package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mopac/internal/attack"
	"mopac/internal/sim"
	"mopac/internal/workload"
)

// attackBench is the attack workload: cycles of attackSearches
// mopac-attack searches against MoPAC-D with the oracle on and no
// store, one search per measured step. The search seeds and the
// simulation seed derive from the run's seed, so each search must
// report byte-identically to the same search's first run, and no
// search may find a pattern that escapes the design.
type attackBench struct {
	env
	tally
	refs    [][]byte // by search of the cycle: its first report
	checked int      // measured searches that passed their checks
	cpu     float64  // CPU seconds of the checked searches
	evals   int64    // evaluations the measured searches simulated

	// Filled by traced runs for the per-layer report.
	stats []sim.PlanStats
	specs []workload.AttackSpec // every candidate of the last search
}

// attackTRH is the threshold the searched design must hold.
const attackTRH = 500

func openAttack(e env) (bench, error) {
	return &attackBench{env: e, refs: make([][]byte, e.size.attackSearches)}, nil
}

func (b *attackBench) options(k int) attack.Options {
	return attack.Options{
		Base:       sim.Config{Design: sim.DesignMoPACD, TRH: attackTRH, Seed: b.seed},
		Seed:       b.seed*uint64(b.size.attackSearches) + uint64(k),
		Budget:     b.size.attackBudget,
		TargetActs: b.size.attackActs,
		Workers:    b.workers,
	}
}

// search runs one search and returns its report JSON and the number of
// evaluations it simulated.
func (b *attackBench) search(opt attack.Options, trace, parent int) ([]byte, int64, error) {
	root := b.tr.begin("attack.search", trace, parent)
	defer b.tr.end(root)
	if b.tr != nil {
		// One span per batch of evaluations: from the end of the
		// previous batch's Progress callbacks to the end of this one's.
		last := time.Now()
		opt.Progress = func(e attack.Eval) {
			if e.Index == -1 || (e.Index+1)%attack.DefaultBatch == 0 || e.Index+1 == opt.Budget {
				now := time.Now()
				b.tr.add("attack.batch", trace, root, last, now)
				last = now
			}
		}
	}
	rep, stats, err := attack.Search(opt)
	if err != nil {
		return nil, 0, err
	}
	if b.tr != nil {
		b.stats = append(b.stats, stats)
		b.specs = b.specs[:0]
		for _, e := range rep.Evals {
			b.specs = append(b.specs, e.Knobs)
		}
	}
	if rep.Best.Escaped {
		return nil, stats.Executed, fmt.Errorf("pattern %s escaped %s at TRH %d", rep.Best.Spec, rep.Design, rep.TRH)
	}
	data, err := json.Marshal(rep)
	return data, stats.Executed, err
}

// warmUp runs the cycle's first search; the first measured search
// must repeat its report.
func (b *attackBench) warmUp() error {
	data, _, err := b.search(b.options(0), b.tr.newTrace(), -1)
	b.refs[0] = data
	return err
}

// step runs the cycle's next search and checks it.
func (b *attackBench) step() error {
	defer b.time()()
	k := b.attempted % b.size.attackSearches
	b.attempted++
	t0 := processCPU()
	data, n, err := b.search(b.options(k), b.tr.newTrace(), -1)
	cpu := processCPU() - t0
	b.evals += n
	switch {
	case err != nil:
	case b.refs[k] == nil:
		b.refs[k] = data
	case !bytes.Equal(data, b.refs[k]):
		err = fmt.Errorf("report of search %d differs from its first", k)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "attack search %d failed: %v\n", b.attempted, err)
		return nil
	}
	b.checked++
	b.cpu += cpu
	return nil
}

// enough holds only at the end of a cycle, so every run measures the
// same mix of searches.
func (b *attackBench) enough() bool {
	n := b.size.attackSearches
	return b.attempted >= b.size.attackMinCycles*n && b.attempted%n == 0
}

func (b *attackBench) report() (outcome, error) {
	if b.checked == 0 {
		return outcome{}, errNoOps
	}
	h := sha256.New()
	for _, r := range b.refs {
		fmt.Fprintf(h, "%s\n", r)
	}
	oc := b.outcome(hex.EncodeToString(h.Sum(nil)))
	oc.metrics["search_s"] = metric{b.cpu / float64(b.checked), "s"}
	oc.metrics["evals_per_s"] = metric{float64(b.evals) / b.spent, "1/s"}
	return oc, nil
}

func (b *attackBench) layerCounts(in *replayInputs) map[string]metric {
	var unique, requested int64
	for _, s := range b.stats {
		unique += s.Unique
		requested += s.Requested
	}
	in.attackSpecs = append(in.attackSpecs[:0], b.specs...)
	return map[string]metric{"attack.unique_ratio": {float64(unique) / float64(requested), "ratio"}}
}

func (b *attackBench) close() {}
