package sim

import (
	"fmt"

	"mopac/internal/mc"
	"mopac/internal/security"
	"mopac/internal/workload"
)

// Scale sizes an experiment. The paper runs 8 cores x 100 M instructions
// per workload; scaled-down runs preserve the relative results and are
// what the test suite and benchmarks use.
type Scale struct {
	InstrPerCore int64
	Workloads    []string
	AttackActs   int64
	Seed         uint64
	// Parallel is the number of simulations run concurrently by the
	// runner's planner (0 = GOMAXPROCS). Each simulation is fully
	// isolated, so parallel execution is deterministic.
	Parallel int
}

// DefaultScale returns the configuration the committed reports are
// generated at: every Table 4 workload at one million instructions per
// core. mopac-experiments takes its -instr, -acts and -seed defaults
// from it.
func DefaultScale() Scale {
	return Scale{
		InstrPerCore: 1_000_000,
		Workloads:    workload.All(),
		AttackActs:   120_000,
		Seed:         1,
	}
}

// QuickScale returns a fast configuration for tests.
func QuickScale() Scale {
	return Scale{
		InstrPerCore: 150_000,
		Workloads:    []string{"mcf", "xz", "add"},
		AttackActs:   40_000,
		Seed:         1,
	}
}

// SweepTRHs are the thresholds the threshold-parameterised steps
// (Fig 12, Fig 13, Overheads) are reported at. The CLI iterates this
// same slice, so the planner's declarations (PlanStep) and the
// rendered report can not drift apart.
var SweepTRHs = []int{1000, 500, 250}

// Runner executes experiments at one scale. All performance runs flow
// through a cross-figure Planner (see plan.go): figures declare the
// configs they need, the planner dedupes the union by content-
// addressed config hash and executes the unique set on one shared
// worker pool, memoizing in memory and optionally persisting to an
// on-disk result store. Identical configs recurring across figures
// (baselines, the PRAC-500 column, MoPAC rows shared by Fig 9/11/1d,
// Table 15's open-page rows, ...) therefore simulate exactly once.
type Runner struct {
	scale Scale
	plan  *Planner
}

// NewRunner returns a Runner for the scale.
func NewRunner(sc Scale) *Runner {
	if len(sc.Workloads) == 0 {
		sc.Workloads = workload.All()
	}
	if sc.InstrPerCore == 0 {
		sc.InstrPerCore = 1_000_000
	}
	if sc.AttackActs == 0 {
		sc.AttackActs = 120_000
	}
	return &Runner{scale: sc, plan: NewPlanner(sc.Parallel)}
}

// Scale returns the runner's scale.
func (r *Runner) Scale() Scale { return r.scale }

// Planner returns the runner's planner, so callers can attach a
// persistent store, install progress reporting, pre-declare steps
// (PlanStep), and read execution statistics.
func (r *Runner) Planner() *Planner { return r.plan }

// scaled resolves a figure's config against the runner's scale; the
// result is what the planner keys and executes.
func (r *Runner) scaled(cfg Config) Config {
	cfg.InstrPerCore = r.scale.InstrPerCore
	cfg.Seed = r.scale.Seed
	return cfg
}

// baselineFor returns the unprotected run every slowdown is measured
// against: same workload, same row-closure policy.
func baselineFor(cfg Config) Config {
	return Config{Design: DesignBaseline, Workload: cfg.Workload, Policy: cfg.Policy, TimeoutNs: cfg.TimeoutNs}
}

// run executes one configuration through the planner: declared,
// deduped, served from memo or store when already known.
func (r *Runner) run(cfg Config) (Result, error) {
	cfg = r.scaled(cfg)
	r.plan.Need(cfg)
	// A flush failure may belong to an unrelated pending config; this
	// config's own entry carries its terminal state either way.
	_ = r.plan.Flush()
	return r.plan.Get(cfg)
}

// Baseline returns the unprotected run for a workload under a
// row-closure policy. Safe for concurrent use; the planner memoizes,
// so a sweep pays for each workload's baseline only once per policy —
// across every figure that needs it.
func (r *Runner) Baseline(wl string, policy mc.PagePolicy, timeoutNs int64) (Result, error) {
	return r.run(Config{Design: DesignBaseline, Workload: wl, Policy: policy, TimeoutNs: timeoutNs})
}

// SlowdownOf runs cfg and returns its slowdown versus the matching
// baseline (same workload and closure policy).
func (r *Runner) SlowdownOf(cfg Config) (float64, error) {
	cfg = r.scaled(cfg)
	base := r.scaled(baselineFor(cfg))
	r.plan.Need(base)
	r.plan.Need(cfg)
	_ = r.plan.Flush()
	baseRes, err := r.plan.Get(base)
	if err != nil {
		return 0, err
	}
	res, err := r.plan.Get(cfg)
	if err != nil {
		return 0, err
	}
	return Slowdown(baseRes, res), nil
}

// SlowdownRow is one workload's slowdown under a set of labelled
// configurations.
type SlowdownRow struct {
	Workload  string
	Slowdowns []float64 // parallel to the experiment's Labels
}

// SlowdownTable is a figure's worth of per-workload slowdowns.
type SlowdownTable struct {
	Labels []string
	Rows   []SlowdownRow
}

// Averages returns the per-label mean slowdown across workloads.
func (t SlowdownTable) Averages() []float64 {
	if len(t.Rows) == 0 {
		return nil
	}
	out := make([]float64, len(t.Labels))
	for _, r := range t.Rows {
		for i, s := range r.Slowdowns {
			out[i] += s
		}
	}
	for i := range out {
		out[i] /= float64(len(t.Rows))
	}
	return out
}

// sweepSpec declares a figure: one labelled configuration per column,
// instantiated for every workload. Specs only describe configs — the
// planner owns execution — which is what lets the CLI declare every
// selected figure up front and keep the pool saturated across figure
// boundaries.
type sweepSpec struct {
	labels []string
	mk     func(wl string, i int) Config
}

// declareSweep registers a spec's configs (and their baselines) with
// the planner without executing anything.
func (r *Runner) declareSweep(spec sweepSpec) {
	for _, wl := range r.scale.Workloads {
		for i := range spec.labels {
			cfg := r.scaled(spec.mk(wl, i))
			r.plan.Need(r.scaled(baselineFor(cfg)))
			r.plan.Need(cfg)
		}
	}
}

// assembleSweep builds the figure's table from planner results.
func (r *Runner) assembleSweep(spec sweepSpec) (SlowdownTable, error) {
	t := SlowdownTable{Labels: spec.labels}
	for _, wl := range r.scale.Workloads {
		row := SlowdownRow{Workload: wl, Slowdowns: make([]float64, len(spec.labels))}
		for i := range spec.labels {
			cfg := r.scaled(spec.mk(wl, i))
			base, err := r.plan.Get(r.scaled(baselineFor(cfg)))
			if err != nil {
				return SlowdownTable{}, fmt.Errorf("%s/%s: %w", wl, spec.labels[i], err)
			}
			res, err := r.plan.Get(cfg)
			if err != nil {
				return SlowdownTable{}, fmt.Errorf("%s/%s: %w", wl, spec.labels[i], err)
			}
			row.Slowdowns[i] = Slowdown(base, res)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// sweep declares, executes, and assembles one figure. Figures already
// declared through PlanStep find every config memoized and skip
// straight to assembly.
func (r *Runner) sweep(spec sweepSpec) (SlowdownTable, error) {
	r.declareSweep(spec)
	if err := r.plan.Flush(); err != nil {
		return SlowdownTable{}, err
	}
	return r.assembleSweep(spec)
}

func specFig2() sweepSpec {
	trhs := []int{4000, 500, 100}
	return sweepSpec{
		labels: []string{"PRAC-4000", "PRAC-500", "PRAC-100"},
		mk: func(wl string, i int) Config {
			return Config{Design: DesignPRAC, TRH: trhs[i], Workload: wl}
		},
	}
}

// Fig2 reproduces Figure 2: PRAC slowdown per workload at thresholds
// 4000, 500, and 100 (identical across thresholds; ~10% average).
func (r *Runner) Fig2() (SlowdownTable, error) { return r.sweep(specFig2()) }

func specFig9() sweepSpec {
	trhs := []int{500, 1000, 500, 250}
	return sweepSpec{
		labels: []string{"PRAC", "MoPAC-C-1000", "MoPAC-C-500", "MoPAC-C-250"},
		mk: func(wl string, i int) Config {
			d := DesignMoPACC
			if i == 0 {
				d = DesignPRAC
			}
			return Config{Design: d, TRH: trhs[i], Workload: wl}
		},
	}
}

// Fig9 reproduces Figure 9: PRAC versus MoPAC-C at thresholds 1000, 500,
// and 250 (paper averages: 10% versus 0.7-0.8/1.8/3.0%).
func (r *Runner) Fig9() (SlowdownTable, error) { return r.sweep(specFig9()) }

func specFig11() sweepSpec {
	trhs := []int{500, 1000, 500, 250}
	return sweepSpec{
		labels: []string{"PRAC", "MoPAC-D-1000", "MoPAC-D-500", "MoPAC-D-250"},
		mk: func(wl string, i int) Config {
			d := DesignMoPACD
			if i == 0 {
				d = DesignPRAC
			}
			return Config{Design: d, TRH: trhs[i], Workload: wl}
		},
	}
}

// Fig11 reproduces Figure 11: PRAC versus MoPAC-D (paper averages:
// 10% versus 0.1/0.8/3.5%).
func (r *Runner) Fig11() (SlowdownTable, error) { return r.sweep(specFig11()) }

func specFig12(trh int) sweepSpec {
	drains := []int{0, 1, 2, 4}
	labels := make([]string, len(drains))
	for i, d := range drains {
		labels[i] = fmt.Sprintf("drain-%d", d)
	}
	return sweepSpec{
		labels: labels,
		mk: func(wl string, i int) Config {
			d := drains[i]
			return Config{Design: DesignMoPACD, TRH: trh, Workload: wl, DrainOnREF: &d}
		},
	}
}

// Fig12 reproduces Figure 12: MoPAC-D slowdown as the drain-on-REF rate
// varies over 0/1/2/4 at one threshold.
func (r *Runner) Fig12(trh int) (SlowdownTable, error) { return r.sweep(specFig12(trh)) }

func specFig13(trh int) sweepSpec {
	sizes := []int{8, 16, 32}
	labels := make([]string, len(sizes))
	for i, s := range sizes {
		labels[i] = fmt.Sprintf("srq-%d", s)
	}
	return sweepSpec{
		labels: labels,
		mk: func(wl string, i int) Config {
			return Config{Design: DesignMoPACD, TRH: trh, Workload: wl, SRQSize: sizes[i]}
		},
	}
}

// Fig13 reproduces Figure 13: MoPAC-D slowdown as the SRQ size varies
// over 8/16/32 entries at one threshold.
func (r *Runner) Fig13(trh int) (SlowdownTable, error) { return r.sweep(specFig13(trh)) }

func specFig17() sweepSpec {
	trhs := []int{1000, 1000, 500, 500, 250, 250}
	return sweepSpec{
		labels: []string{
			"uniform-1000", "nup-1000", "uniform-500", "nup-500", "uniform-250", "nup-250",
		},
		mk: func(wl string, i int) Config {
			return Config{Design: DesignMoPACD, TRH: trhs[i], Workload: wl, NUP: i%2 == 1}
		},
	}
}

// Fig17 reproduces Figure 17: MoPAC-D with and without Non-Uniform
// Probability at thresholds 1000/500/250.
func (r *Runner) Fig17() (SlowdownTable, error) { return r.sweep(specFig17()) }

func specFig18() sweepSpec {
	return sweepSpec{
		labels: []string{
			"C-1000", "C-RP-1000", "C-500", "C-RP-500",
			"D-1000", "D-RP-1000", "D-500", "D-RP-500",
		},
		mk: func(wl string, i int) Config {
			design := DesignMoPACC
			if i >= 4 {
				design = DesignMoPACD
			}
			trh := 1000
			if i%4 >= 2 {
				trh = 500
			}
			return Config{Design: design, TRH: trh, Workload: wl, RowPress: i%2 == 1}
		},
	}
}

// Fig18 reproduces the Appendix A figure: MoPAC-C and MoPAC-D with and
// without integrated RowPress protection at thresholds 1000 and 500.
func (r *Runner) Fig18() (SlowdownTable, error) { return r.sweep(specFig18()) }

// Fig19TRH is the threshold the CLI's chip-count sweep reports at.
const Fig19TRH = 250

func specFig19(trh int) sweepSpec {
	chips := []int{1, 2, 4, 8, 16}
	labels := make([]string, len(chips))
	for i, c := range chips {
		labels[i] = fmt.Sprintf("chips-%d", c)
	}
	return sweepSpec{
		labels: labels,
		mk: func(wl string, i int) Config {
			return Config{Design: DesignMoPACD, TRH: trh, Workload: wl, Chips: chips[i]}
		},
	}
}

// Fig19 reproduces the Appendix B figure: MoPAC-D slowdown as the chip
// count varies over 1/2/4/8/16 at one threshold.
func (r *Runner) Fig19(trh int) (SlowdownTable, error) { return r.sweep(specFig19(trh)) }

func specFig1d() sweepSpec {
	cfgs := []struct {
		d   Design
		trh int
	}{
		{DesignPRAC, 500},
		{DesignMoPACC, 4000}, {DesignMoPACC, 1000}, {DesignMoPACC, 500}, {DesignMoPACC, 250},
		{DesignMoPACD, 4000}, {DesignMoPACD, 1000}, {DesignMoPACD, 500}, {DesignMoPACD, 250},
	}
	return sweepSpec{
		labels: []string{
			"PRAC", "MoPAC-C-4000", "MoPAC-C-1000", "MoPAC-C-500", "MoPAC-C-250",
			"MoPAC-D-4000", "MoPAC-D-1000", "MoPAC-D-500", "MoPAC-D-250",
		},
		mk: func(wl string, i int) Config {
			return Config{Design: cfgs[i].d, TRH: cfgs[i].trh, Workload: wl}
		},
	}
}

// Fig1d reproduces the Figure 1(d) summary: average slowdown of PRAC,
// MoPAC-C, and MoPAC-D as the threshold drops from 4000 to 250.
func (r *Runner) Fig1d() (SlowdownTable, error) { return r.sweep(specFig1d()) }

func specTable15() sweepSpec {
	type pol struct {
		policy  mc.PagePolicy
		timeout int64
		name    string
	}
	pols := []pol{
		{mc.OpenPage, 0, "open"},
		{mc.ClosePage, 0, "close"},
		{mc.TimeoutPage, 100, "tON-100"},
		{mc.TimeoutPage, 200, "tON-200"},
	}
	var labels []string
	var cfgs []Config
	for _, p := range pols {
		labels = append(labels, "PRAC-"+p.name)
		cfgs = append(cfgs, Config{Design: DesignPRAC, TRH: 500, Policy: p.policy, TimeoutNs: p.timeout})
		for _, trh := range []int{1000, 500, 250} {
			labels = append(labels, fmt.Sprintf("MoPAC-D-%d-%s", trh, p.name))
			cfgs = append(cfgs, Config{Design: DesignMoPACD, TRH: trh, Policy: p.policy, TimeoutNs: p.timeout})
		}
	}
	return sweepSpec{
		labels: labels,
		mk: func(wl string, i int) Config {
			c := cfgs[i]
			c.Workload = wl
			return c
		},
	}
}

// Table15 reproduces Appendix C: PRAC and MoPAC-D slowdowns under
// alternative row-closure policies.
func (r *Runner) Table15() (SlowdownTable, error) { return r.sweep(specTable15()) }

// PlanStep declares every config the named CLI experiment step will
// need, without executing anything, and reports whether the step is
// planner-backed. Declaring all selected steps before running the
// first one is what turns per-figure sweeps into one deduped,
// pool-saturating execution. The attack steps (tab9, tab10, sec)
// declare attack runs, which dedupe across the three tables; steps
// that are not planner-backed (trace) return false and simply run as
// before.
func (r *Runner) PlanStep(id string) bool {
	switch id {
	case "tab4":
		r.declareTable4()
	case "fig2":
		r.declareSweep(specFig2())
	case "fig9":
		r.declareSweep(specFig9())
	case "fig11":
		r.declareSweep(specFig11())
	case "fig12":
		for _, trh := range SweepTRHs {
			r.declareSweep(specFig12(trh))
		}
	case "fig13":
		for _, trh := range SweepTRHs {
			r.declareSweep(specFig13(trh))
		}
	case "fig17":
		r.declareSweep(specFig17())
	case "tab12":
		r.declareTable12()
	case "fig18":
		r.declareSweep(specFig18())
	case "fig19":
		r.declareSweep(specFig19(Fig19TRH))
	case "tab15":
		r.declareSweep(specTable15())
	case "fig1d":
		r.declareSweep(specFig1d())
	case "overheads":
		for _, trh := range SweepTRHs {
			r.declareOverheads(trh)
		}
	case "psweep":
		r.declarePSweep(500)
	case "tab9":
		r.declareAttackTable(table9, attackTRHs)
	case "tab10":
		r.declareAttackTable(table10, attackTRHs)
	case "sec":
		r.declareSecurity(SecurityTRH)
	default:
		return false
	}
	return true
}

// Table4Row is a measured workload characterisation next to the paper's
// published values.
type Table4Row struct {
	Workload string
	Measured workload.Table4
	Paper    workload.Table4
}

// declareTable4 registers the baselines Table 4 measures.
func (r *Runner) declareTable4() {
	for _, wl := range r.scale.Workloads {
		r.plan.Need(r.scaled(Config{Design: DesignBaseline, Workload: wl, Policy: mc.OpenPage}))
	}
}

// Table4 measures every workload's characteristics on the baseline
// system and pairs them with the published Table 4.
func (r *Runner) Table4() ([]Table4Row, error) {
	r.declareTable4()
	if err := r.plan.Flush(); err != nil {
		return nil, err
	}
	var rows []Table4Row
	for _, wl := range r.scale.Workloads {
		res, err := r.Baseline(wl, mc.OpenPage, 0)
		if err != nil {
			return nil, err
		}
		pub, err := workload.Published(wl)
		if err != nil {
			return nil, err
		}
		mpki := 0.0
		if instr := float64(res.Config.InstrPerCore) * float64(res.Config.Cores); instr > 0 {
			mpki = float64(res.MC.Reads) / instr * 1000
		}
		rows = append(rows, Table4Row{
			Workload: wl,
			Measured: workload.Table4{
				MPKI:   mpki,
				RBHR:   res.RBHR(),
				APRI:   res.Workload.APRI,
				ACT64:  res.Workload.ACT64PerBank,
				ACT200: res.Workload.ACT200PerBank,
			},
			Paper: pub,
		})
	}
	return rows, nil
}

// Table12Row pairs the measured SRQ insertion rates with the paper's.
type Table12Row struct {
	TRH          int
	Uniform, NUP float64
}

// declareTable12 registers the MoPAC-D runs Table 12 aggregates.
func (r *Runner) declareTable12() {
	for _, trh := range SweepTRHs {
		for _, nup := range []bool{false, true} {
			for _, wl := range r.scale.Workloads {
				r.plan.Need(r.scaled(Config{Design: DesignMoPACD, TRH: trh, Workload: wl, NUP: nup}))
			}
		}
	}
}

// Table12 measures SRQ insertions per 100 ACTs with and without NUP.
func (r *Runner) Table12() ([]Table12Row, error) {
	r.declareTable12()
	if err := r.plan.Flush(); err != nil {
		return nil, err
	}
	var rows []Table12Row
	for _, trh := range SweepTRHs {
		row := Table12Row{TRH: trh}
		for _, nup := range []bool{false, true} {
			var acts, ins int64
			for _, wl := range r.scale.Workloads {
				res, err := r.run(Config{Design: DesignMoPACD, TRH: trh, Workload: wl, NUP: nup})
				if err != nil {
					return nil, err
				}
				acts += res.SRQ.Activations
				ins += res.SRQ.Insertions + res.SRQ.Coalesced
			}
			rate := 0.0
			if acts > 0 {
				rate = float64(ins) / float64(acts) * 100
			}
			if nup {
				row.NUP = rate
			} else {
				row.Uniform = rate
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AttackRow is one simulated performance-attack measurement.
type AttackRow struct {
	TRH      int
	Kind     security.AttackKind
	Slowdown float64
	Model    float64
	Secure   bool
	MaxCount int
}

// vectorPatterns maps each §7 attack vector to the fixed pattern that
// mounts it: the mitigation attack uses Fig 14's multi-bank pattern,
// the SRQ attack floods one bank with unique rows, and the tardiness
// attack parks two rows of one bank in the SRQ and hammers them so
// their ACtr races to TTH.
var vectorPatterns = map[security.AttackKind]string{
	security.AttackMitigation: workload.KindMultiBank,
	security.AttackSRQFull:    workload.KindSRQFill,
	security.AttackTardiness:  workload.KindDoubleSided,
}

// attackTable describes one simulated performance-attack table: the
// design under attack, the vectors mounted against it, and the
// closed-form model each row is paired with.
type attackTable struct {
	design Config
	kinds  []security.AttackKind
	derive func(trh int) security.Params
}

var (
	// table9 is Table 9: the mitigation attack on MoPAC-C.
	table9 = attackTable{Config{Design: DesignMoPACC},
		[]security.AttackKind{security.AttackMitigation}, security.DeriveMoPACC}
	// table10 is Table 10: all three attacks on single-chip MoPAC-D.
	table10 = attackTable{Config{Design: DesignMoPACD, Chips: 1},
		[]security.AttackKind{security.AttackMitigation, security.AttackSRQFull, security.AttackTardiness},
		security.DeriveMoPACD}
)

// attackTRHs are the thresholds Tables 9 and 10 report at by default.
var attackTRHs = []int{250, 500, 1000}

// attackRun resolves one fixed-pattern attack run against the runner's
// scale; the result is what the planner keys and executes.
func (r *Runner) attackRun(base Config, pattern string) AttackConfig {
	base.Seed = r.scale.Seed
	return AttackConfig{
		Base:       base,
		Spec:       workload.AttackSpec{Pattern: pattern, Victim: workload.DefaultVictim},
		TargetActs: r.scale.AttackActs,
	}
}

// attackPair returns a table cell's unprotected and protected runs.
func (r *Runner) attackPair(t attackTable, trh int, kind security.AttackKind) (base, prot AttackConfig) {
	d := t.design
	d.TRH = trh
	return r.attackRun(Config{Design: DesignBaseline, TRH: trh}, vectorPatterns[kind]),
		r.attackRun(d, vectorPatterns[kind])
}

// declareAttackTable registers a table's runs with the planner.
func (r *Runner) declareAttackTable(t attackTable, trhs []int) {
	for _, trh := range trhs {
		for _, kind := range t.kinds {
			base, prot := r.attackPair(t, trh, kind)
			r.plan.NeedAttack(base)
			r.plan.NeedAttack(prot)
		}
	}
}

// attackTableRows declares, executes, and assembles an attack table.
func (r *Runner) attackTableRows(t attackTable, trhs []int) ([]AttackRow, error) {
	if len(trhs) == 0 {
		trhs = attackTRHs
	}
	r.declareAttackTable(t, trhs)
	if err := r.plan.Flush(); err != nil {
		return nil, err
	}
	var rows []AttackRow
	for _, trh := range trhs {
		for _, kind := range t.kinds {
			bcfg, pcfg := r.attackPair(t, trh, kind)
			base, err := r.plan.GetAttack(bcfg)
			if err != nil {
				return nil, err
			}
			prot, err := r.plan.GetAttack(pcfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AttackRow{
				TRH:      trh,
				Kind:     kind,
				Slowdown: AttackSlowdown(base, prot),
				Model:    security.AttackSlowdown(t.derive(trh), kind, security.DefaultAlpha),
				Secure:   prot.Secure,
				MaxCount: prot.MaxUnmitigated,
			})
		}
	}
	return rows, nil
}

// AttacksMoPACC simulates the Table 9 performance attack against
// MoPAC-C and pairs it with the closed-form model.
func (r *Runner) AttacksMoPACC(trhs ...int) ([]AttackRow, error) {
	return r.attackTableRows(table9, trhs)
}

// AttacksMoPACD simulates the Table 10 performance attacks against
// MoPAC-D and pairs them with the closed-form model.
func (r *Runner) AttacksMoPACD(trhs ...int) ([]AttackRow, error) {
	return r.attackTableRows(table10, trhs)
}

// SecurityRow is one security-validation verdict.
type SecurityRow struct {
	Design   Design
	Pattern  string
	Secure   bool
	MaxCount int
	TRH      int
}

// SecurityTRH is the threshold the CLI's security suite runs at.
const SecurityTRH = 500

// The security suite: every pattern against the unprotected baseline
// (a control that must fail) and the paper's three designs.
var (
	securityPatterns = []string{
		workload.KindDoubleSided, workload.KindMultiBank, workload.KindTRRespass, workload.KindSRQFill,
	}
	securityDesigns = []Design{DesignBaseline, DesignPRAC, DesignMoPACC, DesignMoPACD}
)

// declareSecurity registers the suite's runs with the planner.
func (r *Runner) declareSecurity(trh int) {
	for _, d := range securityDesigns {
		for _, p := range securityPatterns {
			r.plan.NeedAttack(r.attackRun(Config{Design: d, TRH: trh}, p))
		}
	}
}

// SecurityValidation mounts the attack suite against every protected
// design (plus the unprotected baseline as a control that must fail)
// and reports the oracle verdicts.
func (r *Runner) SecurityValidation(trh int) ([]SecurityRow, error) {
	r.declareSecurity(trh)
	if err := r.plan.Flush(); err != nil {
		return nil, err
	}
	var rows []SecurityRow
	for _, d := range securityDesigns {
		for _, p := range securityPatterns {
			res, err := r.plan.GetAttack(r.attackRun(Config{Design: d, TRH: trh}, p))
			if err != nil {
				return nil, err
			}
			rows = append(rows, SecurityRow{
				Design: d, Pattern: p, Secure: res.Secure,
				MaxCount: res.MaxUnmitigated, TRH: trh,
			})
		}
	}
	return rows, nil
}

// OverheadRow quantifies the paper's key insight for one design: the
// fraction of activations that pay for a counter update, the time lost
// to ABO stalls, and the resulting slowdown.
type OverheadRow struct {
	Design      Design
	CUPer100ACT float64
	ABOStall    float64
	Slowdown    float64
}

// overheadDesigns are the designs whose counter-update economics the
// Overheads step compares.
var overheadDesigns = []Design{DesignPRAC, DesignMoPACC, DesignMoPACD}

// declareOverheads registers one threshold's runs.
func (r *Runner) declareOverheads(trh int) {
	for _, d := range overheadDesigns {
		for _, wl := range r.scale.Workloads {
			r.plan.Need(r.scaled(Config{Design: DesignBaseline, Workload: wl, Policy: mc.OpenPage}))
			r.plan.Need(r.scaled(Config{Design: d, TRH: trh, Workload: wl}))
		}
	}
}

// Overheads measures the counter-update economics across designs at one
// threshold, aggregated over the runner's workloads.
func (r *Runner) Overheads(trh int) ([]OverheadRow, error) {
	r.declareOverheads(trh)
	if err := r.plan.Flush(); err != nil {
		return nil, err
	}
	rows := make([]OverheadRow, 0, len(overheadDesigns))
	for _, d := range overheadDesigns {
		var cu, stall, slow float64
		n := 0
		for _, wl := range r.scale.Workloads {
			base, err := r.Baseline(wl, mc.OpenPage, 0)
			if err != nil {
				return nil, err
			}
			res, err := r.run(Config{Design: d, TRH: trh, Workload: wl})
			if err != nil {
				return nil, err
			}
			cu += res.CounterUpdatesPer100ACTs()
			stall += res.ABOStallFraction()
			slow += Slowdown(base, res)
			n++
		}
		rows = append(rows, OverheadRow{
			Design:      d,
			CUPer100ACT: cu / float64(n),
			ABOStall:    stall / float64(n),
			Slowdown:    slow / float64(n),
		})
	}
	return rows, nil
}

// aloneIPC returns the single-core baseline IPC of a benchmark: the
// denominator of the paper's weighted-speedup metric. Memoized by the
// planner like every other run.
func (r *Runner) aloneIPC(bench string) (float64, error) {
	res, err := r.run(Config{Design: DesignBaseline, Workload: bench, Cores: 1})
	if err != nil {
		return 0, err
	}
	return res.SumIPC, nil
}

// WeightedSpeedup computes the paper's metric for a finished run:
// WS = sum_i IPC_shared,i / IPC_alone,i, with alone-IPCs measured by
// single-core baseline runs of each core's benchmark.
func (r *Runner) WeightedSpeedup(res Result) (float64, error) {
	specs, err := workload.PerCoreSpecs(res.Config.Workload, res.Config.Cores)
	if err != nil {
		return 0, err
	}
	ws := 0.0
	for i, spec := range specs {
		alone, err := r.aloneIPC(spec.Name)
		if err != nil {
			return 0, err
		}
		if alone <= 0 {
			continue
		}
		ws += res.IPC[i] / alone
	}
	return ws, nil
}

// WeightedSlowdownOf runs cfg and returns 1 - WS(cfg)/WS(baseline): the
// exact metric of the paper's figures. For rate-mode workloads this
// equals SlowdownOf to within measurement noise; for the six mixes it
// reweights each core by its alone-IPC.
func (r *Runner) WeightedSlowdownOf(cfg Config) (float64, error) {
	base, err := r.Baseline(cfg.Workload, cfg.Policy, cfg.TimeoutNs)
	if err != nil {
		return 0, err
	}
	res, err := r.run(cfg)
	if err != nil {
		return 0, err
	}
	wsBase, err := r.WeightedSpeedup(base)
	if err != nil {
		return 0, err
	}
	wsRes, err := r.WeightedSpeedup(res)
	if err != nil {
		return 0, err
	}
	if wsBase == 0 {
		return 0, nil
	}
	return 1 - wsRes/wsBase, nil
}

// PSweepRow is one point of the §5.4 p-selection trade-off for MoPAC-C:
// smaller p means fewer counter updates (less timing overhead) but a
// lower ATH* (more ABOs under pressure).
type PSweepRow struct {
	InvP     int
	ATHStar  int
	Slowdown float64
	Alerts   int64
	Valid    bool // ATH* >= 10 (the paper's floor)
}

// defaultPSweepInvPs is the CLI's p-selection sweep.
var defaultPSweepInvPs = []int{2, 4, 8, 16, 32}

// declarePSweep registers the p-sweep's runs, mirroring PSweepMoPACC's
// validity filter so invalid probabilities are never simulated.
func (r *Runner) declarePSweep(trh int, invPs ...int) {
	if len(invPs) == 0 {
		invPs = defaultPSweepInvPs
	}
	for _, invP := range invPs {
		params := security.DeriveWithP(security.VariantMoPACC, trh, 1/float64(invP))
		if params.Validate() != nil {
			continue
		}
		for _, wl := range r.scale.Workloads {
			r.plan.Need(r.scaled(Config{Design: DesignBaseline, Workload: wl, Policy: mc.OpenPage}))
			r.plan.Need(r.scaled(Config{Design: DesignMoPACC, TRH: trh, Workload: wl, PInvOverride: invP}))
		}
	}
}

// PSweepMoPACC sweeps the update probability at one threshold across the
// runner's workloads, reporting the average slowdown and total ALERT
// count per p. Probabilities whose derived ATH* falls below the paper's
// floor of 10 are reported with Valid=false and not simulated.
func (r *Runner) PSweepMoPACC(trh int, invPs ...int) ([]PSweepRow, error) {
	if len(invPs) == 0 {
		invPs = defaultPSweepInvPs
	}
	r.declarePSweep(trh, invPs...)
	if err := r.plan.Flush(); err != nil {
		return nil, err
	}
	var rows []PSweepRow
	for _, invP := range invPs {
		params := security.DeriveWithP(security.VariantMoPACC, trh, 1/float64(invP))
		row := PSweepRow{InvP: invP, ATHStar: params.ATHStar, Valid: params.Validate() == nil}
		if !row.Valid {
			rows = append(rows, row)
			continue
		}
		var slow float64
		var alerts int64
		n := 0
		for _, wl := range r.scale.Workloads {
			base, err := r.Baseline(wl, mc.OpenPage, 0)
			if err != nil {
				return nil, err
			}
			// The runner's standard MoPAC-C config derives p from TRH;
			// here the sweep overrides it through a custom config path.
			res, err := r.runMoPACCWithP(wl, trh, invP)
			if err != nil {
				return nil, err
			}
			slow += Slowdown(base, res)
			alerts += res.Dev.Alerts
			n++
		}
		row.Slowdown = slow / float64(n)
		row.Alerts = alerts
		rows = append(rows, row)
	}
	return rows, nil
}

// runMoPACCWithP runs one MoPAC-C simulation with an explicit update
// probability instead of the TRH-derived default.
func (r *Runner) runMoPACCWithP(wl string, trh, invP int) (Result, error) {
	cfg := Config{Design: DesignMoPACC, TRH: trh, Workload: wl, PInvOverride: invP}
	return r.run(cfg)
}
