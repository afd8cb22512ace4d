package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mopac/internal/sim"
)

// sweepBench is the sweep workload: a cold mopac-experiments pass over
// fig9, fig11 and fig1d, flushed into a fresh store, then re-planned
// against the now-warm store, which must execute nothing.
type sweepBench struct {
	env
	tally
	passes    int
	refDigest string
	cpus      []float64 // CPU seconds of each checked cold pass
	instr     int64     // simulated instructions of the checked passes

	// Filled by traced runs for the per-layer report.
	stats []sim.PlanStats
	cpu   []float64 // process CPU seconds ÷ (workers × flush wall)
}

func openSweep(e env) (bench, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	return &sweepBench{env: e}, nil
}

func (b *sweepBench) scale() sim.Scale {
	return sim.Scale{
		InstrPerCore: b.size.sweepInstr,
		Workloads:    b.size.sweepWorkloads,
		Seed:         b.seed,
		Parallel:     b.workers,
	}
}

// passResult is one pass's outcome.
type passResult struct {
	cpu    float64 // CPU seconds of the cold pass: runner through Flush
	instr  int64   // simulated instructions the pass executed
	digest string  // hash of the sorted stored result-v1 records
}

// pass runs one cold pass into a fresh store under dir and checks it.
func (b *sweepBench) pass(dir string, trace int) (passResult, error) {
	root := b.tr.begin("sweep.pass", trace, -1)
	defer b.tr.end(root)
	parent := root
	st, err := openCountingStore(dir, sim.StoreSchema, b.env, func(string, string) (int, int) { return trace, parent })
	if err != nil {
		return passResult{}, err
	}
	start := processCPU()
	r := sim.NewRunner(b.scale())
	r.Planner().SetStore(st)
	id := b.tr.begin("sim.plan_declare", trace, root)
	for _, step := range b.size.sweepSteps {
		r.PlanStep(step)
	}
	b.tr.end(id)
	flush := b.tr.begin("sim.plan_flush", trace, root)
	parent = flush
	flushStart, cpu0 := time.Now(), processCPU()
	err = r.Planner().Flush()
	b.tr.end(flush)
	cpu := processCPU() - start
	if b.tr != nil {
		b.cpu = append(b.cpu, (processCPU()-cpu0)/(float64(b.workers)*time.Since(flushStart).Seconds()))
	}
	if err != nil {
		return passResult{}, fmt.Errorf("flush: %w", err)
	}
	stats := r.Planner().Stats()

	check := b.tr.begin("sweep.check", trace, root)
	parent = check
	out := passResult{cpu: cpu}
	h := sha256.New()
	for _, key := range st.savedKeys() {
		data, ok := st.inner.Load(key)
		if !ok {
			return out, fmt.Errorf("stored result %s is missing", key)
		}
		res, ok := sim.DecodeStoredResult(data, key)
		if !ok || res.TimeNs <= 0 {
			return out, fmt.Errorf("stored result %s is invalid", key)
		}
		for _, ipc := range res.IPC {
			if math.IsNaN(ipc) {
				return out, fmt.Errorf("stored result %s has a NaN IPC", key)
			}
		}
		out.instr += int64(len(res.IPC)) * res.Config.InstrPerCore
		fmt.Fprintf(h, "%s\n%s\n", key, data)
	}
	b.tr.end(check)
	out.digest = hex.EncodeToString(h.Sum(nil))
	if n := int64(len(st.savedKeys())); n != stats.Unique || stats.Executed != stats.Unique {
		return out, fmt.Errorf("cold pass stored %d and executed %d of %d unique configs", n, stats.Executed, stats.Unique)
	}

	warm := b.tr.begin("sim.warm_replan", trace, root)
	parent = warm
	r2 := sim.NewRunner(b.scale())
	r2.Planner().SetStore(st)
	for _, step := range b.size.sweepSteps {
		r2.PlanStep(step)
	}
	err = r2.Planner().Flush()
	b.tr.end(warm)
	if err != nil {
		return out, fmt.Errorf("warm re-plan: %w", err)
	}
	if ws := r2.Planner().Stats(); ws.Executed != 0 {
		return out, fmt.Errorf("warm re-plan executed %d simulations", ws.Executed)
	}
	if b.tr != nil {
		b.stats = append(b.stats, stats)
	}
	return out, nil
}

func (b *sweepBench) passDir() string {
	b.passes++
	return filepath.Join(b.dir, fmt.Sprintf("pass-%d", b.passes))
}

func (b *sweepBench) warmUp() error {
	dir := b.passDir()
	defer os.RemoveAll(dir)
	p, err := b.pass(dir, b.tr.newTrace())
	if err != nil {
		return err
	}
	b.refDigest = p.digest
	return nil
}

// step runs one cold pass and checks it.
func (b *sweepBench) step() error {
	defer b.time()()
	b.attempted++
	dir := b.passDir()
	p, err := b.pass(dir, b.tr.newTrace())
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		return rmErr
	}
	if err == nil && p.digest != b.refDigest {
		err = fmt.Errorf("results_digest %s differs from the first pass's %s", p.digest, b.refDigest)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "sweep pass %d failed: %v\n", b.attempted, err)
		return nil
	}
	b.cpus = append(b.cpus, p.cpu)
	b.instr += p.instr
	return nil
}

func (b *sweepBench) enough() bool { return b.attempted >= b.size.sweepMinPasses }

func (b *sweepBench) report() (outcome, error) {
	if len(b.cpus) == 0 {
		return outcome{}, errNoOps
	}
	oc := b.outcome(b.refDigest)
	oc.metrics["pass_s"] = metric{median(b.cpus), "s"}
	oc.metrics["sim_minstr_per_s"] = metric{float64(b.instr) / 1e6 / b.spent, "Minstr/s"}
	return oc, nil
}

func (b *sweepBench) layerCounts(*replayInputs) map[string]metric {
	var ratios []float64
	for _, s := range b.stats {
		ratios = append(ratios, float64(s.Unique)/float64(s.Requested))
	}
	return map[string]metric{
		"sim.plan_unique_ratio": {median(ratios), "ratio"},
		"sim.plan_cpu_util":     {median(b.cpu), "ratio"},
	}
}

func (b *sweepBench) close() { os.RemoveAll(b.dir) }
