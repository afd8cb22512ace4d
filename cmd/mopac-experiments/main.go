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
	"slices"
	"strings"
	"sync"
	"time"

	"mopac/internal/buildinfo"
	"mopac/internal/prof"
	"mopac/internal/sim"
	"mopac/internal/store"
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
		version = flag.Bool("version", false, "print build information and exit")
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

	// The report is sim's step table.
	var ids []string
	for _, s := range sim.Steps() {
		ids = append(ids, s.ID)
	}
	if *list {
		for _, s := range sim.Steps() {
			fmt.Printf("%-10s %s\n", s.ID, s.Brief)
		}
		return
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "unknown experiment id %q; valid ids: %s\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			selected[id] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

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

	// Phase 1: declare every selected step, so the whole report becomes
	// one deduped batch instead of a pool-drain per figure.
	for _, id := range ids {
		if want(id) {
			runner.PlanStep(id)
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

	// Phase 3: write the report; every step finds its runs memoized.
	for _, id := range ids {
		if !want(id) {
			continue
		}
		start := time.Now()
		if err := runner.WriteStep(id, w); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s] done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}

	st := runner.Planner().Stats()
	fmt.Fprintf(os.Stderr, "executed %d simulations (%d store hits, %d unique of %d requested; %d shared a run, %d re-run after diverging)\n",
		st.Executed, st.StoreHits, st.Unique, planned.Requested, st.Shared, st.Rerun)
}
