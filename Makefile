# Convenience targets for the MoPAC reproduction (stdlib-only Go module).

GO ?= go

.PHONY: build test vet bench-all race fuzz experiments analyze examples clean serve fleet-demo perfbench loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository benchmark (perfbench/): builds it from source, runs
# one workload (sweep, attack or serve) for SECONDS of measured time at
# a seed, and prints the machine line, the results digests and every
# metric with its unit.
WORKLOAD ?= sweep
SEED ?= 1
SECONDS ?= 20

perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS)

# Go line counts outside perfbench/ (a module of its own), non-test and
# test, over the files git tracks: stage new files before counting.
loc:
	@echo "non-test $$(git ls-files -- '*.go' ':!:perfbench/*' ':!:*_test.go' | xargs cat | wc -l)"
	@echo "test     $$(git ls-files -- '*_test.go' ':!:perfbench/*' | xargs cat | wc -l)"

# Every paper-reproduction benchmark (tables, figures, ablations).
bench-all:
	$(GO) test -bench=. -benchmem .

fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz=FuzzLoad -fuzztime 30s ./internal/config/
	$(GO) test -fuzz=FuzzParseAttackSpec -fuzztime 30s ./internal/workload/
	$(GO) test -fuzz=FuzzTable -fuzztime 30s ./internal/rowtab/

# Regenerates EXPERIMENTS-results.md at full scale: sim.DefaultScale,
# which the CLI's flags default to. Cold: tens of minutes on one core
# (the planner dedupes shared configs and runs one saturated pool
# across all figures). Warm: near-instant — results
# persist in the content-addressed store (~/.cache/mopac; -store DIR to
# relocate, -no-store to disable), so re-runs and the second invocation
# below only simulate what the first did not.
experiments:
	$(GO) run ./cmd/mopac-experiments -o EXPERIMENTS-results.md
	$(GO) run ./cmd/mopac-experiments -only overheads -o EXPERIMENTS-overheads.md

analyze:
	$(GO) run ./cmd/mopac-analyze

serve:
	$(GO) run ./cmd/mopac-serve

# A throwaway localhost fleet (1 coordinator + 2 workers) under herd
# load; Ctrl-C tears it down. CI runs the assertive version of this
# as the fleet-smoke job.
fleet-demo:
	$(GO) build -o /tmp/mopac-fleet-bin/ ./cmd/mopac-serve ./cmd/mopac-loadgen
	@/tmp/mopac-fleet-bin/mopac-serve -role coordinator -addr :8080 -store /tmp/mopac-fleet-store & C=$$!; \
	/tmp/mopac-fleet-bin/mopac-serve -role worker -addr :8091 -coordinator http://localhost:8080 & W1=$$!; \
	/tmp/mopac-fleet-bin/mopac-serve -role worker -addr :8092 -coordinator http://localhost:8080 & W2=$$!; \
	sleep 2; /tmp/mopac-fleet-bin/mopac-loadgen -target http://localhost:8080 -shape herd -duration 10s; \
	kill $$W1 $$W2; sleep 1; kill $$C 2>/dev/null || true

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/paramsearch
	$(GO) run ./examples/attack
	$(GO) run ./examples/masstree
	$(GO) run ./examples/tradeoffs

clean:
	$(GO) clean ./...
