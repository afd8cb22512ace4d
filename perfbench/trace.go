package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mopac/internal/sim"
)

// maxUnattributedPct is the largest share of profile samples the
// traced run may leave outside every named group.
const maxUnattributedPct = 5

// runTraced is the traced run. It runs every workload untraced for
// half the run and traced for the other half, with a CPU profile of
// the named workload's traced phase; the difference between the two
// halves in that workload's primary metric is bench.trace_overhead_pct.
// It then replays single layers and writes the spans as Chrome
// trace-event JSON and the profile next to them.
func runTraced(cfg runConfig) (result, error) {
	half := time.Duration(cfg.seconds) * time.Second / 2
	plain, err := runAll(cfg, phase{tag: "plain", reps: cfg.def.setupReps}, half)
	if err != nil {
		return result{}, err
	}

	tr := newTracer()
	stores := &storeCounts{}
	in := &replayInputs{seed: cfg.seed, size: cfg.size}
	var prof bytes.Buffer
	traced, err := runAll(cfg, phase{tag: "traced", reps: 1, tr: tr, stores: stores, prof: &prof, in: in}, half)
	if err != nil {
		return result{}, err
	}
	spans := tr.snapshot()

	for _, wl := range cfg.size.sweepWorkloads {
		for _, d := range []sim.Design{sim.DesignBaseline, sim.DesignMoPACD} {
			in.sweepSample = append(in.sweepSample, sim.Config{
				Design: d, TRH: replayTRH, Workload: wl, InstrPerCore: cfg.size.sweepInstr, Seed: cfg.seed,
			})
		}
	}
	m, err := runReplays(*in)
	if err != nil {
		return result{}, err
	}
	for k, v := range traced.counts {
		m[k] = v
	}
	for k, v := range spanMetrics(spans) {
		m[k] = v
	}
	m["store.saves"] = metric{float64(stores.saves.Load()), "count"}
	m["store.loads"] = metric{float64(stores.loads.Load()), "count"}
	m["store.hit_ratio"] = metric{float64(stores.hits.Load()) / float64(stores.loads.Load()), "ratio"}

	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for k, v := range shares {
		m[k] = metric{v, "%"}
	}
	p, u := plain.metrics[plain.primary].Value, traced.metrics[traced.primary].Value
	m["bench.trace_overhead_pct"] = metric{100 * (u - p) / p, "%"}

	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := writeTraceFiles(base, spans, prof.Bytes()); err != nil {
		return result{}, err
	}
	fmt.Printf("spans %s.trace.json (%d spans), profile %s.pprof (%d samples)\n", base, len(spans), base, samples)

	correct := plain.failed == 0 && traced.failed == 0
	if m["dram.protocol_ok"].Value != 1 {
		correct = false
	}
	if un := m["profile.unattributed"].Value; un > maxUnattributedPct {
		fmt.Printf("profile.unattributed %.2f%% exceeds %d%%\n", un, maxUnattributedPct)
		correct = false
	}
	return result{
		Correct:   correct,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// spanMetrics turns the recorded spans into the per-layer timings:
// medians of self time.
func spanMetrics(spans []span) map[string]metric {
	self := selfTimes(spans)
	med := func(name string, scale float64, unit string) metric {
		return metric{median(selfByName(spans, self, name)) * scale, unit}
	}
	m := map[string]metric{
		"sim.plan_declare_ms":   med("sim.plan_declare", 1, "ms"),
		"sim.plan_flush_s":      med("sim.plan_flush", 1e-3, "s"),
		"sim.warm_replan_ms":    med("sim.warm_replan", 1, "ms"),
		"store.save_us":         med("store.save", 1e3, "us"),
		"store.load_us":         med("store.load", 1e3, "us"),
		"attack.batch_ms":       med("attack.batch", 1, "ms"),
		"service.queue_wait_ms": med("service.queue_wait", 1, "ms"),
		"service.run_ms":        med("service.run", 1, "ms"),
	}
	// The service's own overhead per job: the handler span less the
	// queue wait and run the service reports for the job.
	own := map[int]int64{}
	for i, s := range spans {
		if s.Name == "service.handle" && s.End >= s.Start {
			own[i] += s.End - s.Start
		}
	}
	for _, c := range spans {
		if (c.Name == "service.queue_wait" || c.Name == "service.run") && c.End >= c.Start {
			if _, ok := own[c.Parent]; ok {
				own[c.Parent] -= c.End - c.Start
			}
		}
	}
	var overhead []float64
	for _, o := range own {
		overhead = append(overhead, float64(o)/1e6)
	}
	m["service.overhead_ms"] = metric{median(overhead), "ms"}
	return m
}

// writeTraceFiles writes the spans as Chrome trace-event JSON and the
// CPU profile.
func writeTraceFiles(base string, spans []span, prof []byte) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(base+".pprof", prof, 0o644)
}
