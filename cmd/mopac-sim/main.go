// Command mopac-sim runs one memory-system simulation and prints its
// performance and security summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mopac/internal/buildinfo"
	"mopac/internal/config"
	"mopac/internal/prof"
	"mopac/internal/sim"
	"mopac/internal/telemetry"
)

func main() {
	var (
		design   = flag.String("design", "baseline", "design under test (see -list-designs)")
		trh      = flag.Int("trh", 500, "Rowhammer threshold")
		wl       = flag.String("workload", "mcf", "Table 4 workload name")
		cores    = flag.Int("cores", 8, "number of cores")
		instr    = flag.Int64("instr", 1_000_000, "instructions per core")
		nup      = flag.Bool("nup", false, "MoPAC-D non-uniform probability")
		rowpress = flag.Bool("rowpress", false, "RowPress-aware configuration")
		chips    = flag.Int("chips", 4, "chips per subchannel (MoPAC-D)")
		seed     = flag.Uint64("seed", 1, "random seed")
		oracle   = flag.Bool("oracle", false, "attach the security oracle")
		qprac    = flag.Bool("qprac", false, "use the QPRAC backend for -design prac")
		rfmLevel = flag.Int("rfm-level", 1, "RFMs per ABO episode")
		postpone = flag.Int("postpone-refs", 0, "max postponed refreshes (0-4)")
		policy   = flag.String("policy", "open", "row closure policy: open | close | timeout")
		timeout  = flag.Int64("ton", 0, "timeout-policy row-open nanoseconds")
		asJSON   = flag.Bool("json", false, "emit the result summary as JSON")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		tracePth = flag.String("trace", "", "write a cycle-level trace here (.json = Chrome/Perfetto, else text timeline)")
		traceWin = flag.String("trace-window", "", "only trace simulated time lo:hi in ns (e.g. 1000000:2000000)")
		traceLim = flag.Int("trace-limit", 0, "per-track ring capacity in records (0 = default)")
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

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	dd, err := config.ParseDesign(*design)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (see -list-designs)\n", err)
		os.Exit(2)
	}
	pp, err := config.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (one of: %s)\n", err, strings.Join(config.Policies(), " "))
		os.Exit(2)
	}
	cfg := sim.Config{
		Design: dd, TRH: *trh, Workload: *wl, Cores: *cores,
		InstrPerCore: *instr, NUP: *nup, RowPress: *rowpress,
		Chips: *chips, Seed: *seed, TrackSecurity: *oracle,
		QPRAC: *qprac, RFMLevel: *rfmLevel, MaxPostponedREFs: *postpone,
		Policy: pp, TimeoutNs: *timeout,
	}
	var tracer *telemetry.Tracer
	if *tracePth != "" {
		lo, hi, err := telemetry.ParseWindow(*traceWin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		tracer = telemetry.New(telemetry.Options{WindowStartNs: lo, WindowEndNs: hi, TrackLimit: *traceLim})
		cfg.Trace = tracer
	}
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := sys.Run(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tracer != nil {
		if err := tracer.WriteFile(*tracePth); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ts := tracer.Summary()
		fmt.Fprintf(os.Stderr, "trace: %d records on %d tracks (%d dropped) -> %s\n",
			ts.Records, ts.Tracks, ts.Dropped, *tracePth)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Summary()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("design=%s workload=%s trh=%d time=%.3fms sumIPC=%.2f rbhr=%.2f apri=%.1f acts=%d alerts=%d mitigations=%d\n",
		dd, *wl, *trh, float64(res.TimeNs)/1e6, res.SumIPC, res.RBHR(),
		res.Workload.APRI, res.Dev.Activates, res.Dev.Alerts, res.Dev.Mitigations)
	if res.Oracle != nil {
		mx, b, r := res.Oracle.MaxUnmitigated()
		fmt.Printf("oracle: secure=%v maxUnmitigated=%d (bank %d row %d) violations=%d\n",
			res.Oracle.Secure(), mx, b, r, len(res.Oracle.Violations()))
	}
	if dd == sim.DesignMoPACD {
		fmt.Printf("srq: insertions/100ACT=%.2f drainsREF=%d drainsABO=%d dropped=%d\n",
			res.SRQInsertionsPer100ACTs(), res.SRQ.DrainsOnREF, res.SRQ.DrainsOnABO, res.SRQ.DroppedFull)
	}
}
