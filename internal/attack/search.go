// Package attack is the adversarial search harness: given a design
// under test, it optimizes attack-pattern knobs (aggressor count, decoy
// ratio, burst phase/length, bank spread, …) against the security
// oracle's per-row slippage surface, and reports the worst pattern it
// found with a reproducible seed.
//
// The optimizer is deliberately simple and deterministic: a seeded
// random-search phase explores the knob space broadly, then a
// hill-climb phase mutates the best candidate one knob at a time.
// Candidate evaluations fan out through the sim experiment planner, so
// identical candidates — within a search, across searches, and across
// processes via the content-addressed attack store — are never
// simulated twice, and a warm re-run of a finished search simulates
// nothing at all. Determinism contract: equal (design, seed, budget,
// target) searches produce byte-identical reports, because candidate
// generation consumes one seeded RNG single-threaded, evaluations are
// seeded simulations, and results are consumed in declaration order
// regardless of worker parallelism.
package attack

import (
	"fmt"
	"math/rand/v2"

	"mopac/internal/addrmap"
	"mopac/internal/sim"
	"mopac/internal/workload"
)

// DefaultBatch is the default number of candidates declared per
// planner flush (Options.Batch).
const DefaultBatch = 8

// Options configures one search.
type Options struct {
	// Base is the design under test: Design, TRH, Seed, and any design
	// knobs (Chips, SRQSize, RFMLevel, …). Workload must be empty — the
	// attacker is the only traffic source.
	Base sim.Config
	// Seed drives candidate generation. Two searches with equal Base,
	// Seed, Budget, and TargetActs produce byte-identical reports.
	Seed uint64
	// Budget is the number of candidate evaluations the search spends
	// (the stock double-sided baseline is evaluated on top of it).
	Budget int
	// TargetActs is the attacker's activation budget per evaluation
	// (default 30 000).
	TargetActs int64
	// Batch is the number of candidates declared per planner flush
	// (0 = DefaultBatch). Unlike Workers it is part of the seed
	// contract: the hill-climb only updates its incumbent at batch
	// boundaries, so two searches agree byte-for-byte only when their
	// (Seed, Budget, TargetActs, Batch) all match. Larger batches widen
	// the parallel inner loop at the cost of slower incumbent feedback.
	Batch int
	// Workers bounds concurrent evaluations (0 = GOMAXPROCS). It
	// changes wall time only, never the report.
	Workers int
	// Store, when non-nil, persists evaluations under
	// sim.AttackStoreSchema so repeated and warm searches skip
	// re-simulation.
	Store sim.ResultStore
	// Progress, when non-nil, receives every finished evaluation in
	// deterministic (declaration) order.
	Progress func(Eval)
}

// Eval is one scored candidate evaluation.
type Eval struct {
	// Index is the evaluation's position in the search (-1 for the
	// stock double-sided baseline).
	Index int `json:"index"`
	// Spec is the candidate's canonical knob string.
	Spec string `json:"spec"`
	// Knobs is the parsed knob vector behind Spec.
	Knobs workload.AttackSpec `json:"knobs"`
	// Score is the counter slippage: the worst row's unmitigated
	// excursion as a fraction of the Rowhammer threshold. A score >= 1
	// means the oracle recorded a successful attack (Escaped).
	Score float64 `json:"score"`
	// Escaped reports the oracle verdict: some row crossed the
	// threshold unmitigated.
	Escaped bool `json:"escaped"`
	// Result is the raw attack-run outcome.
	Result sim.AttackResult `json:"result"`
	// Err records a failed evaluation (scored below every success).
	Err string `json:"err,omitempty"`
}

// TrajectoryPoint is one improvement step of the best-so-far score.
type TrajectoryPoint struct {
	Eval  int     `json:"eval"` // evaluation index at which best improved
	Score float64 `json:"score"`
	Spec  string  `json:"spec"`
}

// Report is a finished search. It contains no wall-clock times, store
// statistics, or other machine-dependent state: two runs with the same
// options render byte-identical text and JSON.
type Report struct {
	Schema     string `json:"schema"`
	Design     string `json:"design"`
	TRH        int    `json:"trh"`
	Seed       uint64 `json:"seed"`
	Budget     int    `json:"budget"`
	Batch      int    `json:"batch"`
	TargetActs int64  `json:"target_acts"`
	Baseline   Eval   `json:"baseline"`
	Best       Eval   `json:"best"`
	// Improvement is Best.Score - Baseline.Score: how much worse than
	// the stock double-sided loop the found pattern slips.
	Improvement float64           `json:"improvement"`
	Trajectory  []TrajectoryPoint `json:"trajectory"`
	Evals       []Eval            `json:"evals"`
}

// ReportSchema versions the report encoding.
const ReportSchema = "mopac-attack-report-v1"

// BaselineSpec is the stock double-sided pattern every search is
// scored against (the paper's canonical victim anchor).
func BaselineSpec() workload.AttackSpec {
	return workload.AttackSpec{
		Pattern: workload.KindDoubleSided, Victim: workload.DefaultVictim,
	}.Normalize()
}

// Search runs the optimizer and returns its report plus the planner's
// dedup/store statistics (reported separately because warm and cold
// searches differ in them while their reports must not).
func Search(opt Options) (*Report, sim.PlanStats, error) {
	base := opt.Base
	if base.Workload != "" {
		return nil, sim.PlanStats{}, fmt.Errorf("attack: search base config must not carry a workload")
	}
	if err := base.Validate(); err != nil {
		return nil, sim.PlanStats{}, err
	}
	if base.TRH == 0 {
		base.TRH = 500
	}
	if opt.Budget <= 0 {
		return nil, sim.PlanStats{}, fmt.Errorf("attack: search budget must be positive, got %d", opt.Budget)
	}
	if opt.TargetActs <= 0 {
		opt.TargetActs = 30_000
	}
	if opt.Batch <= 0 {
		opt.Batch = DefaultBatch
	}
	geo := addrmap.Default()

	planner := sim.NewPlanner(opt.Workers)
	if opt.Store != nil {
		planner.SetAttackStore(opt.Store)
	}
	evalBatch := func(startIdx int, specs []workload.AttackSpec) ([]Eval, error) {
		cfgs := make([]sim.AttackConfig, len(specs))
		for i, s := range specs {
			cfgs[i] = sim.AttackConfig{Base: base, Spec: s, TargetActs: opt.TargetActs}
			planner.NeedAttack(cfgs[i])
		}
		if err := planner.Flush(); err != nil {
			return nil, err
		}
		out := make([]Eval, len(specs))
		for i, s := range specs {
			res, err := planner.GetAttack(cfgs[i])
			e := Eval{Index: startIdx + i, Spec: s.String(), Knobs: s}
			if err != nil {
				e.Err = err.Error()
				e.Score = -1
			} else {
				e.Result = res
				e.Score = float64(res.MaxUnmitigated) / float64(base.TRH)
				e.Escaped = !res.Secure
			}
			out[i] = e
			if opt.Progress != nil {
				opt.Progress(e)
			}
		}
		return out, nil
	}

	// The stock baseline first: the search's report is an indictment
	// only relative to what the fixed verification pattern achieves.
	blEvals, err := evalBatch(-1, []workload.AttackSpec{BaselineSpec()})
	if err != nil {
		return nil, planner.Stats(), err
	}
	baseline := blEvals[0]
	if baseline.Err != "" {
		return nil, planner.Stats(), fmt.Errorf("attack: baseline evaluation failed: %s", baseline.Err)
	}

	rng := rand.New(rand.NewPCG(opt.Seed, 0x6d6f706163)) // "mopac"
	report := &Report{
		Schema: ReportSchema, Design: base.Design.String(), TRH: base.TRH,
		Seed: opt.Seed, Budget: opt.Budget, Batch: opt.Batch,
		TargetActs: opt.TargetActs,
		Baseline:   baseline,
	}
	best := Eval{Score: -1}
	// The first half of the budget explores at random; the second half
	// hill-climbs around the incumbent.
	explore := (opt.Budget + 1) / 2
	for len(report.Evals) < opt.Budget {
		n := opt.Budget - len(report.Evals)
		if n > opt.Batch {
			n = opt.Batch
		}
		specs := make([]workload.AttackSpec, 0, n)
		for i := 0; i < n; i++ {
			if len(report.Evals)+i < explore || best.Score < 0 {
				specs = append(specs, randomSpec(rng, geo))
			} else {
				specs = append(specs, mutate(rng, geo, best.Knobs))
			}
		}
		batch, err := evalBatch(len(report.Evals), specs)
		if err != nil {
			return nil, planner.Stats(), err
		}
		for _, e := range batch {
			report.Evals = append(report.Evals, e)
			if e.Err == "" && e.Score > best.Score {
				best = e
				report.Trajectory = append(report.Trajectory, TrajectoryPoint{
					Eval: e.Index, Score: e.Score, Spec: e.Spec,
				})
			}
		}
	}
	report.Best = best
	report.Improvement = best.Score - baseline.Score
	return report, planner.Stats(), nil
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Knob ranges. Victim rows keep a margin from the bank edges so every
// aggressor cluster fits; phases and gaps range over roughly two tREFI
// windows (3900 ns) so refresh-sync candidates can land a burst at any
// point of the refresh cadence.
const (
	victimMargin  = 128
	maxAggressors = 16
	maxDecoys     = 48
	maxRatio      = 6
	maxBurst      = 64
	maxSpread     = 8
	phaseRangeNs  = 3900
	gapRangeNs    = 7800
)

// searchKinds are the knob-driven pattern kinds the search draws from,
// in draw order. The fixed kinds (single-sided, multi-bank, srq-fill,
// trrespass) have no knobs to optimize and are left out; changing this
// list changes every search report.
var searchKinds = []string{
	workload.KindDoubleSided, workload.KindManySided, workload.KindWave, workload.KindRefreshSync,
}

// randomSpec draws one candidate uniformly from the knob space. The
// RNG is consumed in a fixed order, so candidate streams are
// reproducible for a given seed.
func randomSpec(rng *rand.Rand, geo addrmap.Geometry) workload.AttackSpec {
	s := workload.AttackSpec{
		Pattern:    searchKinds[rng.IntN(len(searchKinds))],
		Sub:        rng.IntN(geo.Subchannels),
		Bank:       rng.IntN(geo.Banks),
		Victim:     victimMargin + rng.IntN(geo.Rows-2*victimMargin),
		Aggressors: 2 + rng.IntN(maxAggressors-1),
		BankSpread: 1 + rng.IntN(maxSpread),
	}
	switch s.Pattern {
	case workload.KindWave:
		s.Decoys = 2 + rng.IntN(maxDecoys-1)
		s.DecoyRatio = 1 + rng.IntN(maxRatio)
		s.Burst = 2 + rng.IntN(31)
	case workload.KindRefreshSync:
		s.Burst = 4 + rng.IntN(maxBurst-3)
		s.PhaseNs = rng.Int64N(phaseRangeNs)
		s.GapNs = rng.Int64N(gapRangeNs)
	}
	return s.Normalize()
}

// mutate nudges one applicable knob of the incumbent, clamped to the
// knob ranges.
func mutate(rng *rand.Rand, geo addrmap.Geometry, s workload.AttackSpec) workload.AttackSpec {
	knobs := []string{"victim", "aggr", "spread", "bank"}
	switch s.Pattern {
	case workload.KindWave:
		knobs = append(knobs, "decoys", "ratio", "burst")
	case workload.KindRefreshSync:
		knobs = append(knobs, "burst", "phase", "gap")
	}
	switch knobs[rng.IntN(len(knobs))] {
	case "victim":
		s.Victim = clamp(s.Victim+rng.IntN(513)-256, victimMargin, geo.Rows-victimMargin-1)
	case "aggr":
		s.Aggressors = clamp(s.Aggressors+rng.IntN(5)-2, 2, maxAggressors)
	case "spread":
		s.BankSpread = clamp(s.BankSpread+rng.IntN(3)-1, 1, maxSpread)
	case "bank":
		s.Bank = (s.Bank + rng.IntN(geo.Banks)) % geo.Banks
	case "decoys":
		s.Decoys = clamp(s.Decoys+rng.IntN(17)-8, 2, maxDecoys)
	case "ratio":
		s.DecoyRatio = clamp(s.DecoyRatio+rng.IntN(3)-1, 1, maxRatio)
	case "burst":
		s.Burst = clamp(s.Burst+rng.IntN(17)-8, 2, maxBurst)
	case "phase":
		s.PhaseNs = int64(clamp(int(s.PhaseNs)+rng.IntN(1201)-600, 0, phaseRangeNs-1))
	case "gap":
		s.GapNs = int64(clamp(int(s.GapNs)+rng.IntN(1801)-900, 0, gapRangeNs-1))
	}
	return s.Normalize()
}
