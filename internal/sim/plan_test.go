package sim

import (
	"fmt"
	"strings"
	"testing"

	"mopac/internal/store"
)

// planScale is small enough that the golden serial-vs-planner
// comparison stays fast while still exercising multiple workloads and
// labels.
func planScale() Scale {
	return Scale{
		InstrPerCore: 60_000,
		Workloads:    []string{"mcf", "add"},
		AttackActs:   10_000,
		Seed:         1,
	}
}

// serialSweep is the pre-planner reference implementation: run every
// (column, workload) pair and its baseline directly and serially, with a
// simple per-(workload,policy) baseline memo — exactly what the Runner
// did before the planner existed. The golden test holds the planner to
// byte-identical output against this path.
func serialSweep(t *testing.T, sc Scale, cols []column) SlowdownTable {
	t.Helper()
	runCfg := func(cfg Config) Result {
		cfg.InstrPerCore = sc.InstrPerCore
		cfg.Seed = sc.Seed
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baselines := map[string]Result{}
	baseline := func(cfg Config) Result {
		b := baselineFor(cfg)
		k := fmt.Sprintf("%s/%d/%d", b.Workload, b.Policy, b.TimeoutNs)
		if res, ok := baselines[k]; ok {
			return res
		}
		res := runCfg(b)
		baselines[k] = res
		return res
	}
	var table SlowdownTable
	for _, c := range cols {
		table.Labels = append(table.Labels, c.label)
	}
	for _, wl := range sc.Workloads {
		row := SlowdownRow{Workload: wl, Slowdowns: make([]float64, len(cols))}
		for i, c := range cols {
			cfg := c.cfg
			cfg.Workload = wl
			row.Slowdowns[i] = Slowdown(baseline(cfg), runCfg(cfg))
		}
		table.Rows = append(table.Rows, row)
	}
	return table
}

// renderTable formats a table the way the CLI does — full float
// precision — so "byte-identical" is checked on bytes, not on an
// epsilon.
func renderTable(t SlowdownTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", t.Labels)
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s %v\n", r.Workload, r.Slowdowns)
	}
	fmt.Fprintf(&b, "avg %v\n", t.Averages())
	return b.String()
}

// TestPlannerMatchesSerialPath is the golden test the planner hangs
// on: every figure declared up front and flushed as one deduped,
// parallel, shared-run batch must render byte-identically to the
// serial solo path. Fig 9 never rides (MoPAC-C changes the
// controller); the MoPAC-D figures and Table 12 ride their baselines.
func TestPlannerMatchesSerialPath(t *testing.T) {
	sc := planScale()
	r := NewRunner(sc)
	for _, id := range []string{"fig9", "fig11", "fig12", "fig13", "fig17", "fig19", "tab12", "fig1d"} {
		r.PlanStep(id)
	}
	if err := r.Planner().Flush(); err != nil {
		t.Fatal(err)
	}
	if st := r.Planner().Stats(); st.Shared == 0 || st.Executed != st.Unique {
		t.Fatalf("stats %+v: want shared runs and every unique config executed once", st)
	}

	figs := map[string][]column{
		"fig9": fig9Cols, "fig11": fig11Cols, "fig17": fig17Cols,
		"fig19": fig19Cols(fig19TRH), "fig1d": fig1dCols,
	}
	for _, trh := range sweepTRHs {
		figs[fmt.Sprintf("fig12-%d", trh)] = fig12Cols(trh)
		figs[fmt.Sprintf("fig13-%d", trh)] = fig13Cols(trh)
	}
	for name, cols := range figs {
		want := renderTable(serialSweep(t, sc, cols))
		got, err := r.sweep(cols)
		if err != nil {
			t.Fatal(err)
		}
		if g := renderTable(got); g != want {
			t.Fatalf("%s: planner table differs from serial path:\nserial:\n%s\nplanner:\n%s", name, want, g)
		}
	}

	var want []Table12Row
	for _, trh := range sweepTRHs {
		row := Table12Row{TRH: trh}
		for _, nup := range []bool{false, true} {
			var acts, ins int64
			for _, wl := range sc.Workloads {
				res := soloResult(t, r.scaled(Config{Design: DesignMoPACD, TRH: trh, Workload: wl, NUP: nup}))
				acts += res.SRQ.Activations
				ins += res.SRQ.Insertions + res.SRQ.Coalesced
			}
			rate := float64(ins) / float64(acts) * 100
			if nup {
				row.NUP = rate
			} else {
				row.Uniform = rate
			}
		}
		want = append(want, row)
	}
	got, err := r.Table12()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
		t.Fatalf("Table 12 differs from serial path:\nserial:  %s\nplanner: %s", w, g)
	}
}

// TestPlannerDedupesAcrossFigures checks the tentpole's observable
// win: declaring Fig 9 and Fig 11 together executes strictly fewer
// simulations than the naive per-figure sum, because the PRAC column
// and every baseline are shared.
func TestPlannerDedupesAcrossFigures(t *testing.T) {
	r := NewRunner(planScale())
	if !r.PlanStep("fig9") || !r.PlanStep("fig11") {
		t.Fatal("fig9/fig11 must be planner-backed")
	}
	if err := r.Planner().Flush(); err != nil {
		t.Fatal(err)
	}
	st := r.Planner().Stats()
	if st.Unique >= st.Requested {
		t.Fatalf("no dedup: unique=%d requested=%d", st.Unique, st.Requested)
	}
	if st.Executed != st.Unique {
		t.Fatalf("executed=%d unique=%d: cold run must execute exactly the unique set", st.Executed, st.Unique)
	}

	// The figures were pre-declared, so assembling them must execute
	// nothing new.
	if _, err := r.Fig9(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fig11(); err != nil {
		t.Fatal(err)
	}
	if after := r.Planner().Stats(); after.Executed != st.Executed {
		t.Fatalf("assembling pre-declared figures executed %d extra simulations", after.Executed-st.Executed)
	}
}

// TestPlannerFailsFast checks the sweep error-path fix: after the
// first failure the remaining queued configs are skipped, not
// simulated to completion.
func TestPlannerFailsFast(t *testing.T) {
	sc := planScale()
	sc.Parallel = 1 // deterministic order: the bad config fails first
	r := NewRunner(sc)
	p := r.Planner()

	bad := r.scaled(Config{Design: DesignPRAC, Workload: "no-such-workload"})
	p.Need(bad)
	var good []Config
	for i := 0; i < 4; i++ {
		cfg := r.scaled(Config{Design: DesignPRAC, TRH: 500 + i, Workload: "mcf"})
		good = append(good, cfg)
		p.Need(cfg)
	}

	if err := p.Flush(); err == nil {
		t.Fatal("flush with a bad config must fail")
	}
	st := p.Stats()
	if st.Executed != 0 {
		t.Fatalf("executed %d simulations after the first failure; want 0", st.Executed)
	}
	for _, cfg := range good {
		if _, err := p.Get(cfg); err == nil {
			t.Fatalf("queued config %s/%d must be aborted, not silently succeed", cfg.Workload, cfg.TRH)
		} else if !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("queued config error = %v, want plan-aborted", err)
		}
	}
}

// TestPlannerGetUndeclared: asking for a result that was never
// declared is a programming error, not a hang.
func TestPlannerGetUndeclared(t *testing.T) {
	r := NewRunner(planScale())
	if _, err := r.Planner().Get(Config{Design: DesignPRAC, Workload: "mcf"}); err == nil {
		t.Fatal("undeclared Get must error")
	}
}

// TestPlannerWarmRunExecutesNothing is the acceptance criterion for
// the persistent store: a second runner over the same store directory
// serves every config from disk, executes zero simulations, and
// produces byte-identical tables. Fig 11's MoPAC-D columns reach the
// store through shared runs.
func TestPlannerWarmRunExecutesNothing(t *testing.T) {
	dir := t.TempDir()
	sc := planScale()

	runOnce := func() (string, PlanStats) {
		s, err := store.Open(dir, StoreSchema, "test-rev")
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(sc)
		r.Planner().SetStore(s)
		fig9, err := r.Fig9()
		if err != nil {
			t.Fatal(err)
		}
		fig11, err := r.Fig11()
		if err != nil {
			t.Fatal(err)
		}
		return renderTable(fig9) + renderTable(fig11), r.Planner().Stats()
	}

	cold, coldStats := runOnce()
	if coldStats.Executed != coldStats.Unique || coldStats.Shared == 0 {
		t.Fatalf("cold run %+v: want every unique config executed, some of them shared", coldStats)
	}
	if coldStats.StoreHits != 0 {
		t.Fatalf("cold run had %d store hits", coldStats.StoreHits)
	}

	warm, warmStats := runOnce()
	if warmStats.Executed != 0 {
		t.Fatalf("warm run executed %d simulations; want 0", warmStats.Executed)
	}
	if warmStats.StoreHits != warmStats.Unique {
		t.Fatalf("warm run: hits=%d unique=%d", warmStats.StoreHits, warmStats.Unique)
	}
	if warm != cold {
		t.Fatalf("warm table differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestPlannerSurvivesCorruptStore: a mangled store entry is recomputed
// transparently — same table, one extra execution, no error.
func TestPlannerSurvivesCorruptStore(t *testing.T) {
	dir := t.TempDir()
	sc := planScale()
	sc.Workloads = []string{"add"}

	s, err := store.Open(dir, StoreSchema, "test-rev")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sc)
	r.Planner().SetStore(s)
	cfg := r.scaled(Config{Design: DesignMoPACD, TRH: 500, Workload: "add"})
	want, err := r.run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Mangle the persisted record: valid JSON envelope, nonsense data.
	if err := s.Save(cfg.Hash(), []byte(`{"garbage":true}`)); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, StoreSchema, "test-rev")
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(sc)
	r2.Planner().SetStore(s2)
	got, err := r2.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Planner().Stats(); st.Executed != 1 {
		t.Fatalf("corrupt entry not recomputed: executed=%d", st.Executed)
	}
	if got.TimeNs != want.TimeNs || got.SumIPC != want.SumIPC {
		t.Fatalf("recomputed result differs: %v vs %v", got.TimeNs, want.TimeNs)
	}

	// And the recompute must have healed the store.
	s3, err := store.Open(dir, StoreSchema, "test-rev")
	if err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(sc)
	r3.Planner().SetStore(s3)
	if _, err := r3.run(cfg); err != nil {
		t.Fatal(err)
	}
	if st := r3.Planner().Stats(); st.Executed != 0 || st.StoreHits != 1 {
		t.Fatalf("store not healed: executed=%d hits=%d", st.Executed, st.StoreHits)
	}
}

// TestPlannerSkipsStoreForOracleRuns: security-tracking results depend
// on oracle state that does not serialize; they must never be stored
// or served from disk.
func TestPlannerSkipsStoreForOracleRuns(t *testing.T) {
	dir := t.TempDir()
	sc := planScale()
	sc.Workloads = []string{"add"}

	s, err := store.Open(dir, StoreSchema, "test-rev")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sc)
	r.Planner().SetStore(s)
	cfg := Config{Design: DesignMoPACD, TRH: 500, Workload: "add", TrackSecurity: true}
	res, err := r.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Oracle == nil {
		t.Fatal("oracle run lost its oracle")
	}
	if s.Writes() != 0 {
		t.Fatalf("oracle run was persisted (%d writes)", s.Writes())
	}
}
