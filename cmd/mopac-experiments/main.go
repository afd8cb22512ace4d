// Command mopac-experiments regenerates every simulated figure and table
// of the paper's evaluation and writes a markdown report (the source of
// EXPERIMENTS.md). Experiments are selectable; the default runs all of
// them at the given scale.
//
// Execution is planned, not figure-by-figure: every selected step first
// declares its configs to the runner's planner, which dedupes the union
// (baselines and columns shared across figures simulate once) and runs
// the unique set on one saturated worker pool, serving repeats from the
// persistent result store (see -store). A warm re-run of an identical
// invocation executes zero simulations.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mopac/internal/buildinfo"
	"mopac/internal/config"
	"mopac/internal/plot"
	"mopac/internal/prof"
	"mopac/internal/sim"
	"mopac/internal/store"
	"mopac/internal/telemetry"
)

// orAll spells an empty subset flag as "all".
func orAll(flagValue string) string {
	if flagValue == "" {
		return "all"
	}
	return flagValue
}

func main() {
	def := sim.DefaultScale()
	var (
		instr    = flag.Int64("instr", def.InstrPerCore, "instructions per core")
		acts     = flag.Int64("acts", def.AttackActs, "activations per attack run")
		seed     = flag.Uint64("seed", def.Seed, "random seed")
		only     = flag.String("only", "", "comma-separated experiment ids (default: all; see -list)")
		list     = flag.Bool("list", false, "print the experiment step ids and exit")
		out      = flag.String("o", "", "output file (default: stdout)")
		wls      = flag.String("workloads", "", "comma-separated workload subset")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")

		storeDir = flag.String("store", "", "result store directory (default: user cache dir, e.g. ~/.cache/mopac)")
		noStore  = flag.Bool("no-store", false, "disable the persistent result store")
		progress = flag.Bool("progress", true, "report live completed/total progress with ETA on stderr")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")

		tracePth = flag.String("trace", "", "also capture a cycle-level trace of one run (.json = Chrome/Perfetto, else text timeline)")
		traceWin = flag.String("trace-window", "", "only trace simulated time lo:hi in ns")
		traceLim = flag.Int("trace-limit", 0, "per-track ring capacity in records (0 = default)")
		traceDes = flag.String("trace-design", "prac", "design for the -trace run: "+strings.Join(config.Designs(), " | "))
		traceWl  = flag.String("trace-workload", "mcf", "Table 4 workload for the -trace run")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	sc := sim.Scale{InstrPerCore: *instr, AttackActs: *acts, Seed: *seed, Parallel: *parallel}
	if *wls != "" {
		sc.Workloads = strings.Split(*wls, ",")
	}
	runner := sim.NewRunner(sc)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	type step struct {
		id    string
		brief string
		run   func() error
	}
	steps := []step{
		{"tab4", "Table 4 workload characteristics", func() error { return emitTable4(w, runner) }},
		{"fig2", "Figure 2 PRAC slowdown", func() error {
			return emitSlowdowns(w, "Figure 2 — PRAC slowdown (T_RH 4000/500/100)", runner.Fig2)
		}},
		{"fig9", "Figure 9 PRAC vs MoPAC-C", func() error {
			return emitSlowdowns(w, "Figure 9 — PRAC vs MoPAC-C", runner.Fig9)
		}},
		{"fig11", "Figure 11 PRAC vs MoPAC-D", func() error {
			return emitSlowdowns(w, "Figure 11 — PRAC vs MoPAC-D", runner.Fig11)
		}},
		{"fig12", "Figure 12 drain-on-REF sweep", func() error {
			for _, trh := range sim.SweepTRHs {
				trh := trh
				if err := emitSlowdowns(w, fmt.Sprintf("Figure 12 — drain-on-REF sweep at T_RH=%d", trh),
					func() (sim.SlowdownTable, error) { return runner.Fig12(trh) }); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig13", "Figure 13 SRQ size sweep", func() error {
			for _, trh := range sim.SweepTRHs {
				trh := trh
				if err := emitSlowdowns(w, fmt.Sprintf("Figure 13 — SRQ size sweep at T_RH=%d", trh),
					func() (sim.SlowdownTable, error) { return runner.Fig13(trh) }); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig17", "Figure 17 NUP ablation", func() error {
			return emitSlowdowns(w, "Figure 17 — MoPAC-D with/without NUP", runner.Fig17)
		}},
		{"tab12", "Table 12 SRQ insertion rates", func() error { return emitTable12(w, runner) }},
		{"fig18", "Appendix A RowPress protection", func() error {
			return emitSlowdowns(w, "Appendix A (Fig 18) — RowPress protection", runner.Fig18)
		}},
		{"fig19", "Appendix B chip-count sweep", func() error {
			return emitSlowdowns(w, fmt.Sprintf("Appendix B (Fig 19) — chip-count sweep at T_RH=%d", sim.Fig19TRH),
				func() (sim.SlowdownTable, error) { return runner.Fig19(sim.Fig19TRH) })
		}},
		{"tab15", "Appendix C row-closure policies", func() error {
			return emitSlowdowns(w, "Appendix C (Table 15) — row-closure policies", runner.Table15)
		}},
		{"fig1d", "Figure 1(d) threshold summary", func() error {
			return emitSlowdowns(w, "Figure 1(d) — summary across thresholds", runner.Fig1d)
		}},
		{"tab9", "Table 9 attacks on MoPAC-C", func() error {
			return emitAttacks(w, "Table 9 — performance attacks on MoPAC-C (simulated vs model)", runner.AttacksMoPACC)
		}},
		{"tab10", "Table 10 attacks on MoPAC-D", func() error {
			return emitAttacks(w, "Table 10 — performance attacks on MoPAC-D (simulated vs model)", runner.AttacksMoPACD)
		}},
		{"sec", "security validation suite", func() error { return emitSecurity(w, runner) }},
		{"overheads", "counter-update economics", func() error { return emitOverheads(w, runner) }},
		{"psweep", "MoPAC-C p-selection sweep", func() error { return emitPSweep(w, runner) }},
		{"trace", "cycle-level trace of one run (requires -trace PATH)", func() error {
			return emitTrace(w, sc, *traceDes, *traceWl, *tracePth, *traceWin, *traceLim)
		}},
	}
	if *list {
		for _, s := range steps {
			fmt.Printf("%-10s %s\n", s.id, s.brief)
		}
		return
	}

	known := map[string]bool{}
	for _, s := range steps {
		known[s.id] = true
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				var ids []string
				for _, s := range steps {
					ids = append(ids, s.id)
				}
				fmt.Fprintf(os.Stderr, "unknown experiment id %q; valid ids: %s\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			selected[id] = true
		}
	}
	want := func(id string) bool {
		if id == "trace" {
			// The trace step needs an output path; it only runs when
			// asked for one (and -only trace without -trace is an error).
			if *tracePth == "" {
				if selected["trace"] {
					fmt.Fprintln(os.Stderr, "-only trace requires -trace PATH")
					os.Exit(2)
				}
				return false
			}
			return len(selected) == 0 || selected[id]
		}
		return len(selected) == 0 || selected[id]
	}

	if !*noStore {
		dir := *storeDir
		if dir == "" {
			if dir, err = store.DefaultDir(); err != nil {
				fmt.Fprintf(os.Stderr, "result store disabled: %v\n", err)
			}
		}
		if dir != "" {
			// Figure runs and attack runs share the directory under
			// their own schemas. The store is an accelerator, never a
			// requirement.
			rev := buildinfo.Get().Revision
			if st, err := store.Open(dir, sim.StoreSchema, rev); err != nil {
				fmt.Fprintf(os.Stderr, "result store disabled: %v\n", err)
			} else {
				runner.Planner().SetStore(st)
				fmt.Fprintf(os.Stderr, "result store: %s\n", st.Dir())
			}
			if st, err := store.Open(dir, sim.AttackStoreSchema, rev); err != nil {
				fmt.Fprintf(os.Stderr, "attack store disabled: %v\n", err)
			} else {
				runner.Planner().SetAttackStore(st)
			}
		}
	}

	// The header names everything the body depends on and nothing
	// else (no date), so two runs at one revision are byte-identical.
	fmt.Fprintf(w, "# MoPAC experiment report\n\n")
	fmt.Fprintf(w, "Hash version `%s`. Scale: `-instr %d -acts %d -seed %d -workloads %s -only %s` (%d workloads).\n\n",
		sim.HashVersion(), sc.InstrPerCore, sc.AttackActs, sc.Seed, orAll(*wls), orAll(*only),
		len(runner.Scale().Workloads))

	// Phase 1: declare every selected planner-backed step, so the whole
	// report becomes one deduped batch instead of a pool-drain per
	// figure. The trace step drives its own run and is skipped here.
	for _, s := range steps {
		if want(s.id) {
			runner.PlanStep(s.id)
		}
	}

	// Phase 2: execute the unique set on one worker pool.
	if *progress {
		start := time.Now()
		var mu sync.Mutex
		runner.Planner().SetProgress(func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			elapsed := time.Since(start)
			eta := "?"
			if done > 0 {
				remaining := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
				eta = remaining.Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr, "\r[plan] %d/%d simulations (ETA %s)   ", done, total, eta)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}
	flushStart := time.Now()
	if err := runner.Planner().Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "\nplanned execution failed: %v\n", err)
		os.Exit(1)
	}
	// Snapshot before assembly: the render pass re-declares its configs
	// (all memo hits), which would inflate Requested.
	planned := runner.Planner().Stats()
	if planned.Unique > 0 {
		fmt.Fprintf(os.Stderr, "[plan] %d requested -> %d unique after dedup; finished in %v\n",
			planned.Requested, planned.Unique, time.Since(flushStart).Round(time.Millisecond))
	}
	runner.Planner().SetProgress(nil)

	// Phase 3: assemble the report; planner-backed steps find every
	// result memoized.
	for _, s := range steps {
		if !want(s.id) {
			continue
		}
		start := time.Now()
		if err := s.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", s.id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s] done in %v\n", s.id, time.Since(start).Round(time.Millisecond))
	}

	st := runner.Planner().Stats()
	fmt.Fprintf(os.Stderr, "executed %d simulations (%d store hits, %d unique of %d requested; %d shared a run, %d re-run after diverging)\n",
		st.Executed, st.StoreHits, st.Unique, planned.Requested, st.Shared, st.Rerun)
}

// emitTrace runs one instrumented simulation at the report's scale and
// writes its cycle-level trace to path, appending a digest section to
// the report.
func emitTrace(w io.Writer, sc sim.Scale, design, workload, path, window string, limit int) error {
	d, err := config.ParseDesign(design)
	if err != nil {
		return fmt.Errorf("-trace-design: %w", err)
	}
	lo, hi, err := telemetry.ParseWindow(window)
	if err != nil {
		return err
	}
	tracer := telemetry.New(telemetry.Options{WindowStartNs: lo, WindowEndNs: hi, TrackLimit: limit})
	cfg := sim.Config{
		Design:       d,
		TRH:          500,
		Workload:     workload,
		Cores:        8,
		InstrPerCore: sc.InstrPerCore,
		Seed:         sc.Seed,
		Trace:        tracer,
	}
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return err
	}
	if _, err := sys.Run(0); err != nil {
		return err
	}
	if err := tracer.WriteFile(path); err != nil {
		return err
	}
	ts := tracer.Summary()
	fmt.Fprintf(w, "## Cycle-level trace\n\n")
	fmt.Fprintf(w, "Captured %d records on %d tracks (%d dropped) for %s/%s at T_RH=500 into `%s`.\n",
		ts.Records, ts.Tracks, ts.Dropped, design, workload, path)
	fmt.Fprintf(w, "Read latency p50/p95: %d/%d ns over %d reads.\n\n",
		ts.ReadLatency.P50, ts.ReadLatency.P95, ts.ReadLatency.Count)
	return nil
}

func emitSlowdowns(w io.Writer, title string, run func() (sim.SlowdownTable, error)) error {
	tbl, err := run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## %s\n\n", title)
	fmt.Fprintf(w, "| workload | %s |\n", strings.Join(tbl.Labels, " | "))
	fmt.Fprintf(w, "|---|%s\n", strings.Repeat("---|", len(tbl.Labels)))
	for _, row := range tbl.Rows {
		cells := make([]string, len(row.Slowdowns))
		for i, s := range row.Slowdowns {
			cells[i] = fmt.Sprintf("%.2f%%", 100*s)
		}
		fmt.Fprintf(w, "| %s | %s |\n", row.Workload, strings.Join(cells, " | "))
	}
	avg := tbl.Averages()
	cells := make([]string, len(avg))
	for i, s := range avg {
		cells[i] = fmt.Sprintf("**%.2f%%**", 100*s)
	}
	fmt.Fprintf(w, "| **average** | %s |\n\n", strings.Join(cells, " | "))

	ch := plot.New("averages", "%")
	for i, l := range tbl.Labels {
		ch.Add(l, 100*avg[i])
	}
	if err := ch.Fenced(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func emitTable4(w io.Writer, r *sim.Runner) error {
	rows, err := r.Table4()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Table 4 — workload characteristics (measured vs published)\n\n")
	fmt.Fprintln(w, "| workload | MPKI | pub | RBHR | pub | APRI | pub | ACT-64+ | pub | ACT-200+ | pub |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|")
	for _, row := range rows {
		m, p := row.Measured, row.Paper
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %.2f | %.2f | %.1f | %.1f | %.1f | %.1f | %.1f | %.1f |\n",
			row.Workload, m.MPKI, p.MPKI, m.RBHR, p.RBHR, m.APRI, p.APRI,
			m.ACT64, p.ACT64, m.ACT200, p.ACT200)
	}
	fmt.Fprintln(w)
	return nil
}

func emitTable12(w io.Writer, r *sim.Runner) error {
	rows, err := r.Table12()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Table 12 — SRQ insertions per 100 ACTs\n\n")
	fmt.Fprintln(w, "| T_RH | uniform | paper | NUP | paper |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	paper := map[int][2]float64{1000: {6.2, 3.1}, 500: {12.5, 6.3}, 250: {25.0, 13.4}}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TRH > rows[j].TRH })
	for _, row := range rows {
		p := paper[row.TRH]
		fmt.Fprintf(w, "| %d | %.1f | %.1f | %.1f | %.1f |\n", row.TRH, row.Uniform, p[0], row.NUP, p[1])
	}
	fmt.Fprintln(w)
	return nil
}

func emitAttacks(w io.Writer, title string, run func(...int) ([]sim.AttackRow, error)) error {
	rows, err := run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## %s\n\n", title)
	fmt.Fprintln(w, "| T_RH | attack | simulated | model | secure | max count |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, row := range rows {
		fmt.Fprintf(w, "| %d | %s | %.1f%% | %.1f%% | %v | %d |\n",
			row.TRH, row.Kind, 100*row.Slowdown, 100*row.Model, row.Secure, row.MaxCount)
	}
	fmt.Fprintln(w)
	return nil
}

func emitOverheads(w io.Writer, r *sim.Runner) error {
	fmt.Fprintf(w, "## Counter-update economics (the §4 insight, measured)\n\n")
	fmt.Fprintln(w, "| T_RH | design | counter updates /100 ACTs | ABO stall fraction | slowdown |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, trh := range sim.SweepTRHs {
		rows, err := r.Overheads(trh)
		if err != nil {
			return err
		}
		for _, row := range rows {
			fmt.Fprintf(w, "| %d | %s | %.1f | %.4f | %.2f%% |\n",
				trh, row.Design, row.CUPer100ACT, row.ABOStall, 100*row.Slowdown)
		}
	}
	fmt.Fprintln(w)
	return nil
}

func emitPSweep(w io.Writer, r *sim.Runner) error {
	fmt.Fprintf(w, "## p-selection trade-off for MoPAC-C at T_RH=500 (§5.4)\n\n")
	fmt.Fprintln(w, "| p | ATH* | valid | avg slowdown | total ALERTs |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	rows, err := r.PSweepMoPACC(500)
	if err != nil {
		return err
	}
	for _, row := range rows {
		slow, athStar := "-", "-"
		if row.Valid {
			slow = fmt.Sprintf("%.2f%%", 100*row.Slowdown)
			athStar = fmt.Sprintf("%d", row.ATHStar)
		}
		fmt.Fprintf(w, "| 1/%d | %s | %v | %s | %d |\n", row.InvP, athStar, row.Valid, slow, row.Alerts)
	}
	fmt.Fprintln(w)
	return nil
}

func emitSecurity(w io.Writer, r *sim.Runner) error {
	fmt.Fprintf(w, "## Security validation — attack-success criterion (threat model §2.1)\n\n")
	fmt.Fprintln(w, "| design | pattern | secure | max unmitigated | T_RH |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	rows, err := r.SecurityValidation(sim.SecurityTRH)
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "| %s | %s | %v | %d | %d |\n",
			row.Design, row.Pattern, row.Secure, row.MaxCount, row.TRH)
	}
	fmt.Fprintln(w)
	return nil
}
