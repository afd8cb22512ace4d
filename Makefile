# Convenience targets for the MoPAC reproduction (stdlib-only Go module).

GO ?= go

.PHONY: build test vet bench bench-all bench-check race fuzz experiments analyze examples clean serve fleet-demo perfbench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmarks BENCH_baseline.json tracks: end-to-end simulator
# throughput (ns/op, simNs/op, allocs/op) and the event-engine hot
# paths. -benchtime=5x pins SimulatorThroughput to seeds 1-5 so its
# simNs/op metric is exactly reproducible run to run; the engine
# microbenchmarks use a fixed iteration count for stable averaging.
BENCH_RUN = ( $(GO) test -run='^$$' -bench='SimulatorThroughput|HammerThroughput' \
		-benchmem -benchtime=5x -count=3 . && \
	$(GO) test -run='^$$' -bench='ScheduleAndFire|Engine' \
		-benchmem -benchtime=2000000x -count=3 ./internal/event/ )

bench:
	$(BENCH_RUN) | $(GO) run ./cmd/mopac-bench -o BENCH_baseline.json
	@echo wrote BENCH_baseline.json

# Compare the current tree against the committed baseline: prints a
# per-metric delta table, leaves the fresh numbers in
# BENCH_current.json, and fails on >30% growth in any tracked metric.
bench-check:
	$(BENCH_RUN) | $(GO) run ./cmd/mopac-bench -against BENCH_baseline.json
	@echo wrote BENCH_current.json

# The repository benchmark (perfbench/): builds it from source, runs
# one workload (sweep, attack or serve) for SECONDS of measured time at
# a seed, and prints the machine line, the results digests and every
# metric with its unit.
WORKLOAD ?= sweep
SEED ?= 1
SECONDS ?= 20

perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS)

# Every paper-reproduction benchmark (tables, figures, ablations).
bench-all:
	$(GO) test -bench=. -benchmem .

fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz=FuzzLoad -fuzztime 30s ./internal/config/
	$(GO) test -fuzz=FuzzParseAttackSpec -fuzztime 30s ./internal/workload/

# Regenerates EXPERIMENTS-results.md at full scale. Cold: tens of
# minutes on one core (the planner dedupes shared configs and runs one
# saturated pool across all figures). Warm: near-instant — results
# persist in the content-addressed store (~/.cache/mopac; -store DIR to
# relocate, -no-store to disable), so re-runs and the second invocation
# below only simulate what the first did not.
experiments:
	$(GO) run ./cmd/mopac-experiments -instr 1000000 -acts 150000 -o EXPERIMENTS-results.md
	$(GO) run ./cmd/mopac-experiments -instr 1000000 -only overheads -o EXPERIMENTS-overheads.md

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
