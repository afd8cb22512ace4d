// Command mopac-attack searches for adversarial activation patterns
// against a mitigation design: a seeded random-search + hill-climb over
// pattern knobs (aggressor count, decoy ratio, burst phase/length, bank
// spread), scored by the security oracle's counter slippage. Reports
// are reproducible: the same -design/-seed/-budget produce byte-identical
// output, and candidate evaluations dedupe through the content-addressed
// attack store, so warm re-runs simulate nothing.
//
//	mopac-attack -design mopac-d -seed 1 -budget 32
//	mopac-attack -design prac -trh 250 -budget 64 -json report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mopac/internal/attack"
	"mopac/internal/buildinfo"
	"mopac/internal/config"
	"mopac/internal/sim"
	"mopac/internal/store"
)

func main() {
	var (
		design   = flag.String("design", "mopac-d", "design under test (see -list-designs)")
		trh      = flag.Int("trh", 500, "Rowhammer threshold")
		seed     = flag.Uint64("seed", 1, "search seed (same seed => byte-identical report)")
		simSeed  = flag.Uint64("sim-seed", 1, "simulation seed for every evaluation")
		budget   = flag.Int("budget", 32, "candidate evaluations to spend")
		batch    = flag.Int("batch", attack.DefaultBatch, "evaluations per hill-climb batch (part of the seed contract: changing it changes the report)")
		acts     = flag.Int64("acts", 30_000, "attacker activations per evaluation")
		chips    = flag.Int("chips", 4, "chips per subchannel (MoPAC-D)")
		nup      = flag.Bool("nup", false, "MoPAC-D non-uniform probability")
		rowpress = flag.Bool("rowpress", false, "RowPress-aware configuration")
		jobs     = flag.Int("j", 0, "parallel evaluations (0 = GOMAXPROCS; never changes the report)")
		storeDir = flag.String("store", "", "attack store directory (default: user cache dir, e.g. ~/.cache/mopac)")
		noStore  = flag.Bool("no-store", false, "disable the persistent attack store")
		out      = flag.String("o", "", "write the text report here (default stdout)")
		jsonOut  = flag.String("json", "", "also write the JSON report to this file (- = stdout)")
		quiet    = flag.Bool("q", false, "suppress per-evaluation progress on stderr")
		list     = flag.Bool("list-designs", false, "list the registered design names and exit")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if *list {
		for _, d := range config.Designs() {
			fmt.Println(d)
		}
		return
	}

	d, err := config.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var st sim.ResultStore
	if !*noStore {
		dir := *storeDir
		if dir == "" {
			dir, err = store.DefaultDir()
		}
		if err == nil {
			var s *store.Store
			s, err = store.Open(dir, sim.AttackStoreSchema, buildinfo.Get().Revision)
			if err == nil {
				st = s
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "attack store disabled: %v\n", err)
		}
	}

	opt := attack.Options{
		Base: sim.Config{
			Design: d, TRH: *trh, Chips: *chips,
			NUP: *nup, RowPress: *rowpress, Seed: *simSeed,
		},
		Seed: *seed, Budget: *budget, Batch: *batch, TargetActs: *acts,
		Workers: *jobs, Store: st,
	}
	if !*quiet {
		opt.Progress = func(e attack.Eval) {
			label := fmt.Sprintf("eval %d", e.Index)
			if e.Index < 0 {
				label = "baseline"
			}
			if e.Err != "" {
				fmt.Fprintf(os.Stderr, "%s failed: %s (%s)\n", label, e.Err, e.Spec)
				return
			}
			fmt.Fprintf(os.Stderr, "%s score=%.4f %s\n", label, e.Score, e.Spec)
		}
	}
	rep, stats, err := attack.Search(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Store and dedup statistics are machine/state-dependent, so they go
	// to stderr only — the report itself stays reproducible.
	fmt.Fprintf(os.Stderr, "attack search: %d declared, %d unique, %d simulated, %d from store\n",
		stats.Requested, stats.Unique, stats.Executed, stats.StoreHits)

	var w io.Writer = os.Stdout
	if *out != "" {
		fd, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer fd.Close()
		w = fd
	}
	if err := rep.WriteText(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		jw := os.Stdout
		if *jsonOut != "-" {
			fd, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer fd.Close()
			jw = fd
		}
		enc := json.NewEncoder(jw)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
