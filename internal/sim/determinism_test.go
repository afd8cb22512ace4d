package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mopac/internal/telemetry"
)

// summaryHash runs cfg to completion and digests the full JSON summary.
// Hashing the marshalled form covers every reported field at once —
// timings, IPC, latency percentiles, counter-update rates — so any
// nondeterminism anywhere in the pipeline flips the hash.
func summaryHash(t *testing.T, cfg Config) string {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res.Summary())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestCrossDesignDeterminism replays the same Config+seed twice for each
// evaluated design and demands bit-identical summaries. This is the
// contract the serve layer's result cache and the paper's
// reproducibility claims rest on: a Config fully determines the run.
func TestCrossDesignDeterminism(t *testing.T) {
	for _, d := range []Design{DesignBaseline, DesignPRAC, DesignMoPACC, DesignMoPACD} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Design:       d,
				TRH:          500,
				Workload:     "bwaves",
				Cores:        2,
				InstrPerCore: 30_000,
				Seed:         7,
			}
			first := summaryHash(t, cfg)
			second := summaryHash(t, cfg)
			if first != second {
				t.Fatalf("%v: identical configs hashed %s then %s", d, first, second)
			}
		})
	}
}

// runFull builds and runs cfg, returning both the Result and the System
// so tests can inspect post-run state.
func runFull(t *testing.T, cfg Config) (Result, *System) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return res, sys
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// oracleDigest flattens every externally observable oracle output —
// the verdict, the canonical violation list, the full peak ranking,
// the max excursion, and the stream counters — for byte comparison.
func oracleDigest(t *testing.T, res Result) []byte {
	t.Helper()
	if res.Oracle == nil {
		t.Fatal("run carried no oracle")
	}
	c, b, r := res.Oracle.MaxUnmitigated()
	return mustJSON(t, map[string]any{
		"secure":      res.Oracle.Secure(),
		"violations":  res.Oracle.Violations(),
		"top_peaks":   res.Oracle.TopPeaks(-1),
		"max":         []int{c, b, r},
		"activations": res.Oracle.Activations(),
		"mitigations": res.Oracle.Mitigations(),
	})
}

// TestTracingDoesNotPerturbResults proves the telemetry probes are
// purely observational: the full result summary — simulated time
// included — is byte-identical with tracing on and off, for every
// design with probe points, even when a tiny ring limit forces drops.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for _, d := range []Design{DesignBaseline, DesignPRAC, DesignMoPACC, DesignMoPACD} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Design:       d,
				TRH:          500,
				Workload:     "bwaves",
				Cores:        2,
				InstrPerCore: 30_000,
				Seed:         7,
			}
			plain := summaryHash(t, cfg)

			traced := cfg
			traced.Trace = telemetry.New(telemetry.Options{})
			if got := summaryHash(t, traced); got != plain {
				t.Fatalf("%v: tracing changed the summary: %s vs %s", d, plain, got)
			}
			if traced.Trace.Records() == 0 {
				t.Fatal("tracer captured no records")
			}

			// Ring wrap (drops) must not perturb results either.
			wrapped := cfg
			wrapped.Trace = telemetry.New(telemetry.Options{TrackLimit: 16})
			if got := summaryHash(t, wrapped); got != plain {
				t.Fatalf("%v: ring wrap changed the summary: %s vs %s", d, plain, got)
			}
			if wrapped.Trace.Dropped() == 0 {
				t.Fatal("16-record rings never wrapped on a 30k-instruction run")
			}
		})
	}
}
