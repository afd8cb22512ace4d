// Command mopac-trace generates, inspects, and replays workload trace
// files — the analogue of the paper artifact's TRACES directory.
//
// Subcommands:
//
//	gen  -workload mcf -core 0 -n 1000000 -o mcf.trace.gz
//	info -i mcf.trace.gz
//	run  -i mcf.trace.gz -design prac -trh 500
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mopac/internal/addrmap"
	"mopac/internal/buildinfo"
	"mopac/internal/config"
	"mopac/internal/cpu"
	"mopac/internal/sim"
	"mopac/internal/trace"
	"mopac/internal/workload"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: mopac-trace gen|info|run [flags]")
	}
	switch os.Args[1] {
	case "version", "-version", "--version":
		fmt.Println(buildinfo.String())
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "run":
		run(os.Args[2:])
	default:
		fatalf("unknown subcommand %q", os.Args[1])
	}
}

func mapper() addrmap.Mapper {
	m, err := addrmap.NewMOP(addrmap.Default(), 4)
	if err != nil {
		fatalf("%v", err)
	}
	return m
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	wl := fs.String("workload", "mcf", "workload name (non-mix)")
	core := fs.Int("core", 0, "core index for the address region")
	cores := fs.Int("cores", 8, "total cores partitioning the rows")
	n := fs.Int64("n", 1_000_000, "accesses to record")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (required)")
	_ = fs.Parse(args)
	if *out == "" {
		fatalf("gen: -o is required")
	}
	spec, err := workload.Lookup(*wl)
	if err != nil {
		fatalf("%v", err)
	}
	g, err := workload.NewGenerator(spec, mapper(), *core, *cores, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		fatalf("%v", err)
	}
	got, err := trace.Record(w, g, *n)
	if err != nil {
		fatalf("record: %v", err)
	}
	if err := w.Close(); err != nil {
		fatalf("close: %v", err)
	}
	st, _ := f.Stat()
	fmt.Printf("wrote %d accesses to %s (%d bytes, %.2f B/access)\n",
		got, *out, st.Size(), float64(st.Size())/float64(got))
}

func openTrace(path string) (*trace.Reader, *os.File) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	r, err := trace.NewReader(f)
	if err != nil {
		fatalf("%v", err)
	}
	return r, f
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required)")
	_ = fs.Parse(args)
	if *in == "" {
		fatalf("info: -i is required")
	}
	r, f := openTrace(*in)
	defer f.Close()
	defer r.Close()

	m := mapper()
	var n, deps, instr int64
	banks := map[int]int64{}
	rows := map[[2]int]int64{}
	for {
		a, ok := r.Next()
		if !ok {
			break
		}
		n++
		instr += a.Gap + 1
		if a.Dep {
			deps++
		}
		loc := m.Decode(a.Addr)
		banks[loc.GlobalBank(m.Geometry())]++
		rows[[2]int{loc.GlobalBank(m.Geometry()), loc.Row}]++
	}
	if err := r.Err(); err != nil {
		fatalf("decode: %v", err)
	}
	if n == 0 {
		fatalf("empty trace")
	}
	hot := 0
	for _, c := range rows {
		if c >= 64 {
			hot++
		}
	}
	fmt.Printf("accesses:        %d\n", n)
	fmt.Printf("instructions:    %d (MPKI %.1f)\n", instr, float64(n)/float64(instr)*1000)
	fmt.Printf("dependent:       %.1f%%\n", 100*float64(deps)/float64(n))
	fmt.Printf("banks touched:   %d\n", len(banks))
	fmt.Printf("distinct rows:   %d (%d with 64+ accesses)\n", len(rows), hot)
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required)")
	design := fs.String("design", "baseline", "design: "+strings.Join(config.Designs(), " | "))
	trh := fs.Int("trh", 500, "Rowhammer threshold")
	instr := fs.Int64("instr", 1_000_000, "instructions to retire")
	_ = fs.Parse(args)
	if *in == "" {
		fatalf("run: -i is required")
	}
	d, err := config.ParseDesign(*design)
	if err != nil {
		fatalf("%v", err)
	}
	r, f := openTrace(*in)
	defer f.Close()
	defer r.Close()

	sys, err := sim.NewSystem(sim.Config{Design: d, TRH: *trh, InstrPerCore: *instr, Seed: 1})
	if err != nil {
		fatalf("%v", err)
	}
	var src cpu.Source = r
	core, err := sys.AttachCore(src, *instr)
	if err != nil {
		fatalf("%v", err)
	}
	if _, err := sys.Run(5_000_000_000); err != nil {
		fatalf("trace exhausted or run failed: %v", err)
	}
	st := core.Stats()
	fmt.Printf("design=%s instr=%d misses=%d time=%.3fms IPC=%.2f\n",
		d, st.Retired, st.Misses, float64(st.FinishedAt)/1e6, core.IPC())
}
