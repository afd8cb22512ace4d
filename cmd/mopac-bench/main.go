// Command mopac-bench turns `go test -bench` text output into a stable
// JSON document and, given a baseline, fails on regressions. It is the
// regression half of the performance harness: `make bench` pipes the
// benchmark run through it to refresh BENCH_baseline.json, and CI can
// re-run with -against to keep the hot path honest.
//
//	go test -run='^$' -bench=SimulatorThroughput -benchmem . | mopac-bench -o BENCH_baseline.json
//	go test -run='^$' -bench=SimulatorThroughput -benchmem . | mopac-bench -against BENCH_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"mopac/internal/buildinfo"
)

// Entry is one benchmark's parsed result. Metrics maps unit -> value
// ("ns/op", "allocs/op", plus custom b.ReportMetric units such as
// "simNs/op"); repeated -count runs of the same benchmark are averaged.
type Entry struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	runs       int64
}

// Report is the document written to disk. GoMaxProcs/NumCPU record
// the parallelism available to the run, so a trajectory of reports can
// tell hosts apart. They live outside Benchmarks so -against never
// compares them as metrics.
type Report struct {
	Goos       string           `json:"goos,omitempty"`
	Goarch     string           `json:"goarch,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	GoMaxProcs int              `json:"gomaxprocs,omitempty"`
	NumCPU     int              `json:"num_cpu,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// annotate fills the host-parallelism fields.
func (rep *Report) annotate() {
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
}

// parse consumes `go test -bench` output. Unrecognised lines (test
// chatter, PASS/ok trailers) are echoed to echo so the run stays
// visible when piped through this tool.
func parse(r io.Reader, echo io.Writer) (Report, error) {
	rep := Report{Benchmarks: map[string]Entry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so names are machine-independent.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return rep, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			metrics[fields[i+1]] = v
		}
		prev, seen := rep.Benchmarks[name]
		if !seen {
			rep.Benchmarks[name] = Entry{Iterations: iters, Metrics: metrics, runs: 1}
			continue
		}
		// Average repeated runs (-count=N) metric by metric.
		n := float64(prev.runs)
		for unit, v := range metrics {
			prev.Metrics[unit] = (prev.Metrics[unit]*n + v) / (n + 1)
		}
		prev.runs++
		prev.Iterations += iters
		rep.Benchmarks[name] = prev
	}
	return rep, sc.Err()
}

// compare prints a per-metric delta table of cur versus base and
// reports regressions beyond tol (fractional; 0.3 = 30%). Only growth
// is a failure: ns/op, B/op and allocs/op are all better when smaller.
// A non-empty only set restricts the check (and the table) to those
// units — CI gates on the deterministic simNs/op this way without
// tripping on shared-runner wall-clock noise. Benchmarks present on
// one side only are noted but not fatal, so adding a benchmark does
// not break CI.
func compare(base, cur Report, tol float64, only map[string]bool, w io.Writer) (failures int) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "note: %s missing from current run\n", name)
			continue
		}
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if len(only) > 0 && !only[unit] {
				continue
			}
			bv := b.Metrics[unit]
			cv, ok := c.Metrics[unit]
			if !ok || bv <= 0 {
				continue
			}
			growth := cv/bv - 1
			mark := ""
			if growth > tol {
				failures++
				mark = fmt.Sprintf("  << REGRESSION (tolerance %.0f%%)", 100*tol)
			}
			fmt.Fprintf(w, "%-44s %-14s %12.5g -> %12.5g  %+6.1f%%%s\n",
				name, unit, bv, cv, 100*growth, mark)
		}
	}
	return failures
}

func main() {
	var (
		out     = flag.String("o", "", "write the JSON report to this file (default stdout)")
		against = flag.String("against", "", "compare to this baseline JSON instead of writing a report")
		tol     = flag.Float64("tolerance", 0.30, "allowed fractional growth per metric before -against fails")
		current = flag.String("current", "", `also write the parsed report here (default: BENCH_current.json next to the -against/-o target; "-" disables)`)
		metrics = flag.String("metrics", "", "comma-separated metric units to gate on with -against (default: all)")
		quiet   = flag.Bool("q", false, "do not echo the benchmark output while parsing")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	echo := io.Writer(os.Stderr)
	if *quiet {
		echo = io.Discard
	}
	rep, err := parse(os.Stdin, echo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "mopac-bench: no benchmark lines on stdin")
		os.Exit(1)
	}
	rep.annotate()

	// Every run leaves BENCH_current.json behind (next to the baseline
	// it was checked against, or wherever -current points): CI uploads
	// it as an artifact, and a local `make bench-check` leaves the
	// numbers on disk for comparison without rerunning the suite.
	if *current != "-" {
		path := *current
		if path == "" {
			switch {
			case *against != "":
				path = filepath.Join(filepath.Dir(*against), "BENCH_current.json")
			case *out != "":
				path = filepath.Join(filepath.Dir(*out), "BENCH_current.json")
			default:
				path = "BENCH_current.json"
			}
		}
		if err := writeReport(path, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *against != "" {
		raw, err := os.ReadFile(*against)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "mopac-bench: bad baseline %s: %v\n", *against, err)
			os.Exit(1)
		}
		only := map[string]bool{}
		for _, u := range strings.Split(*metrics, ",") {
			if u = strings.TrimSpace(u); u != "" {
				only[u] = true
			}
		}
		if n := compare(base, rep, *tol, only, os.Stdout); n > 0 {
			fmt.Fprintf(os.Stderr, "mopac-bench: %d metric(s) regressed beyond %.0f%%\n", n, 100**tol)
			os.Exit(1)
		}
		fmt.Printf("mopac-bench: %d benchmark(s) within %.0f%% of %s\n",
			len(base.Benchmarks), 100**tol, *against)
		return
	}

	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeReport writes the indented JSON report to path.
func writeReport(path string, rep Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
