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

// sweepTRHs are the thresholds the threshold-parameterised steps
// (Fig 12, Fig 13, Table 12, Overheads) are reported at.
var sweepTRHs = []int{1000, 500, 250}

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

// NewRunner returns a Runner for the scale. Workloads, instructions
// per core and attack activations left zero take DefaultScale's
// values; a zero Seed stays zero.
func NewRunner(sc Scale) *Runner {
	def := DefaultScale()
	if len(sc.Workloads) == 0 {
		sc.Workloads = def.Workloads
	}
	if sc.InstrPerCore == 0 {
		sc.InstrPerCore = def.InstrPerCore
	}
	if sc.AttackActs == 0 {
		sc.AttackActs = def.AttackActs
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

// fetch is how a table builder gets its runs, so one builder both
// declares the runs it needs and reads them. A declaring fetch
// registers each run with the planner and answers a zero result; a
// reading fetch answers the planner's result.
type fetch struct {
	r    *Runner
	read bool
}

// run fetches one figure run, resolved against the runner's scale.
func (f fetch) run(cfg Config) (Result, error) {
	cfg = f.r.scaled(cfg)
	if !f.read {
		f.r.plan.Need(cfg)
		return Result{}, nil
	}
	return f.r.plan.Get(cfg)
}

// attack fetches one attack run.
func (f fetch) attack(a AttackConfig) (AttackResult, error) {
	if !f.read {
		f.r.plan.NeedAttack(a)
		return AttackResult{}, nil
	}
	return f.r.plan.GetAttack(a)
}

// slowdown fetches cfg and its baseline and returns cfg's slowdown.
func (f fetch) slowdown(cfg Config) (float64, error) {
	base, err := f.run(baselineFor(cfg))
	if err != nil {
		return 0, err
	}
	res, err := f.run(cfg)
	if err != nil {
		return 0, err
	}
	return Slowdown(base, res), nil
}

// build runs a table builder declaring, executes what it declared with
// one Flush, and runs it again reading. Runs already known to the
// planner are memo hits. A Flush failure may belong to an unrelated
// pending config; each run's own entry carries its terminal state, and
// the reading pass reports it.
func build[T any](r *Runner, b func(fetch) (T, error)) (T, error) {
	if _, err := b(fetch{r: r}); err != nil {
		var zero T
		return zero, err
	}
	_ = r.plan.Flush()
	return b(fetch{r: r, read: true})
}

// run executes one configuration through the planner: declared,
// deduped, served from memo or store when already known.
func (r *Runner) run(cfg Config) (Result, error) {
	return build(r, func(f fetch) (Result, error) { return f.run(cfg) })
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
	return build(r, func(f fetch) (float64, error) { return f.slowdown(cfg) })
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

// column is one labelled configuration of a sweep. Its Workload is
// empty: the sweep runs it on every workload of the scale.
type column struct {
	label string
	cfg   Config
}

// columnsOver returns one column per value, labelled prefix-value.
func columnsOver(prefix string, vals []int, mk func(v int) Config) []column {
	cols := make([]column, len(vals))
	for i, v := range vals {
		cols[i] = column{fmt.Sprintf("%s-%d", prefix, v), mk(v)}
	}
	return cols
}

// sweep builds a figure's table: every column's slowdown on every
// workload.
func (f fetch) sweep(cols []column) (SlowdownTable, error) {
	t := SlowdownTable{Labels: make([]string, len(cols))}
	for i, c := range cols {
		t.Labels[i] = c.label
	}
	for _, wl := range f.r.scale.Workloads {
		row := SlowdownRow{Workload: wl, Slowdowns: make([]float64, len(cols))}
		for i, c := range cols {
			cfg := c.cfg
			cfg.Workload = wl
			s, err := f.slowdown(cfg)
			if err != nil {
				return SlowdownTable{}, fmt.Errorf("%s/%s: %w", wl, c.label, err)
			}
			row.Slowdowns[i] = s
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (r *Runner) sweep(cols []column) (SlowdownTable, error) {
	return build(r, func(f fetch) (SlowdownTable, error) { return f.sweep(cols) })
}

var fig2Cols = []column{
	{"PRAC-4000", Config{Design: DesignPRAC, TRH: 4000}},
	{"PRAC-500", Config{Design: DesignPRAC, TRH: 500}},
	{"PRAC-100", Config{Design: DesignPRAC, TRH: 100}},
}

// Fig2 reproduces Figure 2: PRAC slowdown per workload at thresholds
// 4000, 500, and 100 (identical across thresholds; ~10% average).
func (r *Runner) Fig2() (SlowdownTable, error) { return r.sweep(fig2Cols) }

var fig9Cols = []column{
	{"PRAC", Config{Design: DesignPRAC, TRH: 500}},
	{"MoPAC-C-1000", Config{Design: DesignMoPACC, TRH: 1000}},
	{"MoPAC-C-500", Config{Design: DesignMoPACC, TRH: 500}},
	{"MoPAC-C-250", Config{Design: DesignMoPACC, TRH: 250}},
}

// Fig9 reproduces Figure 9: PRAC versus MoPAC-C at thresholds 1000, 500,
// and 250 (paper averages: 10% versus 0.7-0.8/1.8/3.0%).
func (r *Runner) Fig9() (SlowdownTable, error) { return r.sweep(fig9Cols) }

var fig11Cols = []column{
	{"PRAC", Config{Design: DesignPRAC, TRH: 500}},
	{"MoPAC-D-1000", Config{Design: DesignMoPACD, TRH: 1000}},
	{"MoPAC-D-500", Config{Design: DesignMoPACD, TRH: 500}},
	{"MoPAC-D-250", Config{Design: DesignMoPACD, TRH: 250}},
}

// Fig11 reproduces Figure 11: PRAC versus MoPAC-D (paper averages:
// 10% versus 0.1/0.8/3.5%).
func (r *Runner) Fig11() (SlowdownTable, error) { return r.sweep(fig11Cols) }

func fig12Cols(trh int) []column {
	return columnsOver("drain", []int{0, 1, 2, 4}, func(n int) Config {
		return Config{Design: DesignMoPACD, TRH: trh, DrainOnREF: &n}
	})
}

// Fig12 reproduces Figure 12: MoPAC-D slowdown as the drain-on-REF rate
// varies over 0/1/2/4 at one threshold.
func (r *Runner) Fig12(trh int) (SlowdownTable, error) { return r.sweep(fig12Cols(trh)) }

func fig13Cols(trh int) []column {
	return columnsOver("srq", []int{8, 16, 32}, func(n int) Config {
		return Config{Design: DesignMoPACD, TRH: trh, SRQSize: n}
	})
}

// Fig13 reproduces Figure 13: MoPAC-D slowdown as the SRQ size varies
// over 8/16/32 entries at one threshold.
func (r *Runner) Fig13(trh int) (SlowdownTable, error) { return r.sweep(fig13Cols(trh)) }

var fig17Cols = []column{
	{"uniform-1000", Config{Design: DesignMoPACD, TRH: 1000}},
	{"nup-1000", Config{Design: DesignMoPACD, TRH: 1000, NUP: true}},
	{"uniform-500", Config{Design: DesignMoPACD, TRH: 500}},
	{"nup-500", Config{Design: DesignMoPACD, TRH: 500, NUP: true}},
	{"uniform-250", Config{Design: DesignMoPACD, TRH: 250}},
	{"nup-250", Config{Design: DesignMoPACD, TRH: 250, NUP: true}},
}

// Fig17 reproduces Figure 17: MoPAC-D with and without Non-Uniform
// Probability at thresholds 1000/500/250.
func (r *Runner) Fig17() (SlowdownTable, error) { return r.sweep(fig17Cols) }

var fig18Cols = []column{
	{"C-1000", Config{Design: DesignMoPACC, TRH: 1000}},
	{"C-RP-1000", Config{Design: DesignMoPACC, TRH: 1000, RowPress: true}},
	{"C-500", Config{Design: DesignMoPACC, TRH: 500}},
	{"C-RP-500", Config{Design: DesignMoPACC, TRH: 500, RowPress: true}},
	{"D-1000", Config{Design: DesignMoPACD, TRH: 1000}},
	{"D-RP-1000", Config{Design: DesignMoPACD, TRH: 1000, RowPress: true}},
	{"D-500", Config{Design: DesignMoPACD, TRH: 500}},
	{"D-RP-500", Config{Design: DesignMoPACD, TRH: 500, RowPress: true}},
}

// Fig18 reproduces the Appendix A figure: MoPAC-C and MoPAC-D with and
// without integrated RowPress protection at thresholds 1000 and 500.
func (r *Runner) Fig18() (SlowdownTable, error) { return r.sweep(fig18Cols) }

// fig19TRH is the threshold the report's chip-count sweep is at.
const fig19TRH = 250

func fig19Cols(trh int) []column {
	return columnsOver("chips", []int{1, 2, 4, 8, 16}, func(n int) Config {
		return Config{Design: DesignMoPACD, TRH: trh, Chips: n}
	})
}

// Fig19 reproduces the Appendix B figure: MoPAC-D slowdown as the chip
// count varies over 1/2/4/8/16 at one threshold.
func (r *Runner) Fig19(trh int) (SlowdownTable, error) { return r.sweep(fig19Cols(trh)) }

var fig1dCols = []column{
	{"PRAC", Config{Design: DesignPRAC, TRH: 500}},
	{"MoPAC-C-4000", Config{Design: DesignMoPACC, TRH: 4000}},
	{"MoPAC-C-1000", Config{Design: DesignMoPACC, TRH: 1000}},
	{"MoPAC-C-500", Config{Design: DesignMoPACC, TRH: 500}},
	{"MoPAC-C-250", Config{Design: DesignMoPACC, TRH: 250}},
	{"MoPAC-D-4000", Config{Design: DesignMoPACD, TRH: 4000}},
	{"MoPAC-D-1000", Config{Design: DesignMoPACD, TRH: 1000}},
	{"MoPAC-D-500", Config{Design: DesignMoPACD, TRH: 500}},
	{"MoPAC-D-250", Config{Design: DesignMoPACD, TRH: 250}},
}

// Fig1d reproduces the Figure 1(d) summary: average slowdown of PRAC,
// MoPAC-C, and MoPAC-D as the threshold drops from 4000 to 250.
func (r *Runner) Fig1d() (SlowdownTable, error) { return r.sweep(fig1dCols) }

var table15Cols = func() []column {
	var cols []column
	for _, p := range []struct {
		name    string
		policy  mc.PagePolicy
		timeout int64
	}{
		{"open", mc.OpenPage, 0},
		{"close", mc.ClosePage, 0},
		{"tON-100", mc.TimeoutPage, 100},
		{"tON-200", mc.TimeoutPage, 200},
	} {
		cols = append(cols, column{"PRAC-" + p.name,
			Config{Design: DesignPRAC, TRH: 500, Policy: p.policy, TimeoutNs: p.timeout}})
		for _, trh := range []int{1000, 500, 250} {
			cols = append(cols, column{fmt.Sprintf("MoPAC-D-%d-%s", trh, p.name),
				Config{Design: DesignMoPACD, TRH: trh, Policy: p.policy, TimeoutNs: p.timeout}})
		}
	}
	return cols
}()

// Table15 reproduces Appendix C: PRAC and MoPAC-D slowdowns under
// alternative row-closure policies.
func (r *Runner) Table15() (SlowdownTable, error) { return r.sweep(table15Cols) }

// Table4Row is a measured workload characterisation next to the paper's
// published values.
type Table4Row struct {
	Workload string
	Measured workload.Table4
	Paper    workload.Table4
}

// table4 measures every workload's characteristics on the baseline
// system and pairs them with the published Table 4.
func (f fetch) table4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, wl := range f.r.scale.Workloads {
		res, err := f.run(Config{Design: DesignBaseline, Workload: wl, Policy: mc.OpenPage})
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

// Table4 measures every workload's characteristics on the baseline
// system and pairs them with the published Table 4.
func (r *Runner) Table4() ([]Table4Row, error) { return build(r, fetch.table4) }

// Table12Row pairs the measured SRQ insertion rates with the paper's.
type Table12Row struct {
	TRH          int
	Uniform, NUP float64
}

// table12 measures SRQ insertions per 100 ACTs with and without NUP,
// aggregated over the workloads.
func (f fetch) table12() ([]Table12Row, error) {
	var rows []Table12Row
	for _, trh := range sweepTRHs {
		row := Table12Row{TRH: trh}
		for _, nup := range []bool{false, true} {
			var acts, ins int64
			for _, wl := range f.r.scale.Workloads {
				res, err := f.run(Config{Design: DesignMoPACD, TRH: trh, Workload: wl, NUP: nup})
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

// Table12 measures SRQ insertions per 100 ACTs with and without NUP.
func (r *Runner) Table12() ([]Table12Row, error) { return build(r, fetch.table12) }

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

// attacks builds an attack table: every vector at every threshold,
// against the unprotected baseline and the design under attack.
func (f fetch) attacks(t attackTable, trhs []int) ([]AttackRow, error) {
	var rows []AttackRow
	for _, trh := range trhs {
		for _, kind := range t.kinds {
			d := t.design
			d.TRH = trh
			base, err := f.attack(f.r.attackRun(Config{Design: DesignBaseline, TRH: trh}, vectorPatterns[kind]))
			if err != nil {
				return nil, err
			}
			prot, err := f.attack(f.r.attackRun(d, vectorPatterns[kind]))
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

// attackTableRows declares, executes, and builds an attack table at
// trhs (attackTRHs when empty).
func (r *Runner) attackTableRows(t attackTable, trhs []int) ([]AttackRow, error) {
	if len(trhs) == 0 {
		trhs = attackTRHs
	}
	return build(r, func(f fetch) ([]AttackRow, error) { return f.attacks(t, trhs) })
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

// securityTRH is the threshold the report's security suite runs at.
const securityTRH = 500

// The security suite: every pattern against the unprotected baseline
// (a control that must fail) and the paper's three designs.
var (
	securityPatterns = []string{
		workload.KindDoubleSided, workload.KindMultiBank, workload.KindTRRespass, workload.KindSRQFill,
	}
	securityDesigns = []Design{DesignBaseline, DesignPRAC, DesignMoPACC, DesignMoPACD}
)

// securitySuite mounts the attack suite and collects the oracle verdicts.
func (f fetch) securitySuite(trh int) ([]SecurityRow, error) {
	var rows []SecurityRow
	for _, d := range securityDesigns {
		for _, p := range securityPatterns {
			res, err := f.attack(f.r.attackRun(Config{Design: d, TRH: trh}, p))
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

// SecurityValidation mounts the attack suite against every protected
// design (plus the unprotected baseline as a control that must fail)
// and reports the oracle verdicts.
func (r *Runner) SecurityValidation(trh int) ([]SecurityRow, error) {
	return build(r, func(f fetch) ([]SecurityRow, error) { return f.securitySuite(trh) })
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

// overheads averages each design's counter-update economics at one
// threshold over the workloads.
func (f fetch) overheads(trh int) ([]OverheadRow, error) {
	rows := make([]OverheadRow, 0, len(overheadDesigns))
	for _, d := range overheadDesigns {
		var cu, stall, slow float64
		for _, wl := range f.r.scale.Workloads {
			cfg := Config{Design: d, TRH: trh, Workload: wl}
			base, err := f.run(baselineFor(cfg))
			if err != nil {
				return nil, err
			}
			res, err := f.run(cfg)
			if err != nil {
				return nil, err
			}
			cu += res.CounterUpdatesPer100ACTs()
			stall += res.ABOStallFraction()
			slow += Slowdown(base, res)
		}
		n := float64(len(f.r.scale.Workloads))
		rows = append(rows, OverheadRow{Design: d, CUPer100ACT: cu / n, ABOStall: stall / n, Slowdown: slow / n})
	}
	return rows, nil
}

// Overheads measures the counter-update economics across designs at one
// threshold, aggregated over the runner's workloads.
func (r *Runner) Overheads(trh int) ([]OverheadRow, error) {
	return build(r, func(f fetch) ([]OverheadRow, error) { return f.overheads(trh) })
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

// defaultPSweepInvPs is the report's p-selection sweep.
var defaultPSweepInvPs = []int{2, 4, 8, 16, 32}

// pSweep builds the p-selection sweep at one threshold. A probability
// whose ATH* falls below the floor is a row with Valid=false, and its
// runs are never fetched.
func (f fetch) pSweep(trh int, invPs []int) ([]PSweepRow, error) {
	if len(invPs) == 0 {
		invPs = defaultPSweepInvPs
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
		for _, wl := range f.r.scale.Workloads {
			cfg := Config{Design: DesignMoPACC, TRH: trh, Workload: wl, PInvOverride: invP}
			base, err := f.run(baselineFor(cfg))
			if err != nil {
				return nil, err
			}
			res, err := f.run(cfg)
			if err != nil {
				return nil, err
			}
			slow += Slowdown(base, res)
			row.Alerts += res.Dev.Alerts
		}
		row.Slowdown = slow / float64(len(f.r.scale.Workloads))
		rows = append(rows, row)
	}
	return rows, nil
}

// PSweepMoPACC sweeps the update probability at one threshold across the
// runner's workloads, reporting the average slowdown and total ALERT
// count per p. Probabilities whose derived ATH* falls below the paper's
// floor of 10 are reported with Valid=false and not simulated.
func (r *Runner) PSweepMoPACC(trh int, invPs ...int) ([]PSweepRow, error) {
	return build(r, func(f fetch) ([]PSweepRow, error) { return f.pSweep(trh, invPs) })
}
