// Command perfbench is the repository's benchmark. It drives three
// workloads through the public entry points users run — a cold
// mopac-experiments pass (sweep), mopac-attack searches (attack) and a
// closed loop of mopac-serve jobs (serve) — checks every output, and
// prints the metrics as one JSON object on the last line of standard
// output. The three take turns through the measured phase, op by op:
// the named workload gets half the measured time and its set-up time is
// reported; the other two share the rest. Times are process CPU
// seconds, run on one worker. With -trace 1 it instead reports
// per-layer numbers taken from spans around its own calls, replays of
// single layers, counts, and a CPU profile of the named workload. See
// README.md.
//
//	perfbench -workload sweep -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"mopac/internal/buildinfo"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload's measured phase produced: ops attempted
// and failed, its end-to-end metrics, and the digest of its outputs.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	digest            string
	// primary names the metric bench.trace_overhead_pct compares.
	primary string
	// counts are the layer counts of a traced run.
	counts map[string]metric
}

// bench is one workload between set-up and tear-down.
type bench interface {
	// warmUp runs one op whose time counts toward set-up only.
	warmUp() error
	// step runs one measured op and checks it. A failed check counts
	// against the op; an error ends the run.
	step() error
	// enough reports whether the workload's minimum op count is met.
	enough() bool
	// report returns the end-to-end metrics of the ops stepped so far.
	report() (outcome, error)
	// layerCounts returns the counts a traced run reports for the
	// layers this workload exercises, and adds the workload's inputs
	// to the replays' inputs.
	layerCounts(in *replayInputs) map[string]metric
	// close stops everything the bench started and removes its files.
	close()
}

// tally counts a workload's measured ops and the CPU time they took.
type tally struct {
	attempted, failed int
	spent             float64 // process CPU seconds of every step
}

// time starts timing a step; calling the function it returns adds the
// step's CPU time to spent.
func (t *tally) time() func() {
	t0 := processCPU()
	return func() { t.spent += processCPU() - t0 }
}

// outcome returns the counts as an outcome with no metrics yet.
func (t *tally) outcome(digest string) outcome {
	return outcome{attempted: t.attempted, failed: t.failed, metrics: map[string]metric{}, digest: digest}
}

// env is what every workload constructor receives.
type env struct {
	seed    uint64
	workers int
	dir     string // scratch directory for this set-up
	seconds int
	size    sizes
	inputs  any          // what workloadDef.inputs built, if anything
	tr      *tracer      // nil in untraced runs
	stores  *storeCounts // where stores tally their calls; nil = their own
}

type workloadDef struct {
	// inputs, when set, builds the workload's inputs once per run,
	// before and outside set-up.
	inputs func(env) (any, error)
	open   func(env) (bench, error)
	// setupReps is how many times a run sets the workload up to take
	// the median set-up time; cheap set-ups are repeated more.
	setupReps int
	// primary is the end-to-end time metric whose traced/untraced
	// difference is reported as bench.trace_overhead_pct.
	primary string
}

var workloads = map[string]workloadDef{
	"sweep":  {open: openSweep, setupReps: 3, primary: "pass_s"},
	"attack": {open: openAttack, setupReps: 3, primary: "search_s"},
	"serve":  {inputs: serveInputs, open: openServe, setupReps: 5, primary: "job_p50_ms"},
}

// benchWorkers is the planner, attack-search and service worker count,
// and the number of serve clients. With one worker the process's CPU
// time, which every end-to-end time is, is the op's own work and the GC
// it causes: no worker spins or waits on another core, and a serve
// job's CPU time is its latency on an idle machine. The Go runtime
// still uses every core for GC.
const benchWorkers = 1

// sizes holds every load knob; tests shrink them.
type sizes struct {
	sweepInstr     int64
	sweepWorkloads []string
	sweepSteps     []string
	sweepMinPasses int

	attackSearches  int
	attackBudget    int
	attackActs      int64
	attackMinCycles int

	serveCores     int
	serveInstr     int64
	serveWorkloads []string
	serveWarmJobs  int
	serveMinJobs   int
	// replayScale divides the per-layer replay sizes (1 = full).
	replayScale int
}

func defaultSizes() sizes {
	return sizes{
		sweepInstr:      50_000,
		sweepWorkloads:  []string{"mcf", "xz", "lbm", "bwaves", "add", "mix1"},
		sweepSteps:      []string{"fig9", "fig11", "fig1d"},
		sweepMinPasses:  3,
		attackSearches:  6,
		attackBudget:    32,
		attackActs:      24_000,
		attackMinCycles: 1,
		serveCores:      8,
		serveInstr:      5_000,
		serveWorkloads:  []string{"mcf", "lbm", "parest", "fotonik3d"},
		serveWarmJobs:   128,
		serveMinJobs:    3000, // 2,000 fresh jobs: two p99 windows
		replayScale:     1,
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, attack or serve")
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch stores, span files and profiles")
	flag.Parse()

	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload sweep|attack|serve, -seconds >= 1 and -trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *name, def: def, seed: *seed, seconds: *seconds,
		workers: benchWorkers, out: *out, size: defaultSizes(),
	}
	printMachine(cfg)
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runPlain(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	def      workloadDef
	seed     uint64
	seconds  int
	workers  int
	out      string
	size     sizes
}

// phase says how setupAndMeasure runs a workload.
type phase struct {
	tag     string        // names the scratch directories
	reps    int           // set-ups, each ending with a warm-up op
	measure time.Duration // length of the measured phase
	tr      *tracer       // nil = untraced
	stores  *storeCounts  // nil = each store counts alone
	prof    io.Writer     // receives a CPU profile of the measured phase
	in      *replayInputs // receives the workload's replay inputs
}

// setUp sets the workload up reps times (each set-up ends with one
// warm-up op) and keeps the last one. It returns that bench and the
// median set-up time in CPU seconds.
func setUp(cfg runConfig, ph phase) (bench, float64, error) {
	base := env{seed: cfg.seed, workers: cfg.workers, seconds: cfg.seconds, size: cfg.size, tr: ph.tr, stores: ph.stores}
	if cfg.def.inputs != nil {
		in, err := cfg.def.inputs(base)
		if err != nil {
			return nil, 0, fmt.Errorf("inputs of %s: %w", cfg.workload, err)
		}
		base.inputs = in
	}
	var setups []float64
	var b bench
	for i := 0; i < max(ph.reps, 1); i++ {
		if b != nil {
			b.close()
		}
		e := base
		e.dir = filepath.Join(cfg.out, fmt.Sprintf("%s-%s-%d", cfg.workload, ph.tag, i))
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, 0, err
		}
		start := processCPU()
		nb, err := cfg.def.open(e)
		if err != nil {
			return nil, 0, fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		b = nb
		if err := b.warmUp(); err != nil {
			b.close()
			return nil, 0, fmt.Errorf("warm up %s: %w", cfg.workload, err)
		}
		setups = append(setups, processCPU()-start)
	}
	return b, median(setups), nil
}

// setupAndMeasure sets the workload up ph.reps times, keeps the last
// set-up, and runs its ops for ph.measure (and at least the workload's
// minimum). It returns the outcome with setup_s added.
func setupAndMeasure(cfg runConfig, ph phase) (outcome, error) {
	b, setup, err := setUp(cfg, ph)
	if err != nil {
		return outcome{}, err
	}
	defer b.close()
	if ph.prof != nil {
		if err := pprof.StartCPUProfile(ph.prof); err != nil {
			return outcome{}, err
		}
	}
	err = measureInTurns([]bench{b}, []float64{1}, ph.measure)
	if ph.prof != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return outcome{}, fmt.Errorf("measure %s: %w", cfg.workload, err)
	}
	oc, err := b.report()
	if err != nil {
		return outcome{}, fmt.Errorf("measure %s: %w", cfg.workload, err)
	}
	oc.metrics["setup_s"] = metric{setup, "s"}
	if ph.in != nil {
		oc.counts = b.layerCounts(ph.in)
	}
	return oc, nil
}

// mainShare is the part of the measured time the named workload gets;
// every other workload gets an equal part of the rest.
const mainShare = 0.5

// runOrder returns the named workload first, then the others in order.
func runOrder(named string) []string {
	names := []string{named}
	for _, n := range sortedNames(workloads) {
		if n != named {
			names = append(names, n)
		}
	}
	return names
}

// share returns the part of the measured time the i-th workload of
// runOrder gets.
func share(i int) float64 {
	if i == 0 {
		return mainShare
	}
	return (1 - mainShare) / float64(len(workloads)-1)
}

// runAll runs every workload in turn through setupAndMeasure: the
// named one first, set up ph.reps times and measured for its share of
// total, then each other one, set up once, for its share. Every run
// thus reports every end-to-end metric, measured on the entry point it
// belongs to; setup_s is the named workload's. Only the named
// workload's measured phase is profiled.
func runAll(cfg runConfig, ph phase, total time.Duration) (outcome, error) {
	all := outcome{metrics: map[string]metric{}, counts: map[string]metric{}, primary: cfg.def.primary}
	for i, name := range runOrder(cfg.workload) {
		c, p := cfg, ph
		c.workload, c.def = name, workloads[name]
		p.measure = time.Duration(float64(total) * share(i))
		if i > 0 {
			p.reps, p.prof = 1, nil
		}
		oc, err := setupAndMeasure(c, p)
		if err != nil {
			return outcome{}, err
		}
		if i > 0 {
			delete(oc.metrics, "setup_s")
		}
		all.merge(name, oc)
	}
	return all, nil
}

// merge adds one workload's outcome to all and prints its digest.
func (all *outcome) merge(name string, oc outcome) {
	for k, v := range oc.metrics {
		all.metrics[k] = v
	}
	for k, v := range oc.counts {
		if _, ok := all.counts[k]; !ok {
			all.counts[k] = v
		}
	}
	all.attempted += oc.attempted
	all.failed += oc.failed
	fmt.Printf("results_digest %s %s\n", name, oc.digest)
}

// measureInTurns runs the benches' ops in turns for d: each turn runs
// one op of the bench furthest behind its share of the time spent so
// far, until d is up and every bench has its minimum op count.
func measureInTurns(benches []bench, shares []float64, d time.Duration) error {
	used := make([]float64, len(benches)) // wall seconds per bench
	deadline := time.Now().Add(d)
	for {
		next := -1
		for i, b := range benches {
			if !time.Now().Before(deadline) && b.enough() {
				continue
			}
			if next < 0 || used[i]/shares[i] < used[next]/shares[next] {
				next = i
			}
		}
		if next < 0 {
			return nil
		}
		// Collect the heap first, so no op pays for the garbage earlier
		// ops left, of its own workload or another.
		runtime.GC()
		t0 := time.Now()
		if err := benches[next].step(); err != nil {
			return err
		}
		used[next] += time.Since(t0).Seconds()
	}
}

// runInterleaved sets every workload up, the named one reps times and
// the others once, and then measures them in turns for total, each for
// its share. Every metric is thus sampled across the whole measured
// phase, not in one stretch of it, and a slow spell of the host
// touches every workload alike.
func runInterleaved(cfg runConfig, reps int, total time.Duration) (outcome, error) {
	names := runOrder(cfg.workload)
	benches := make([]bench, 0, len(names))
	defer func() {
		for _, b := range benches {
			b.close()
		}
	}()
	var setup float64
	for i, name := range names {
		c, ph := cfg, phase{tag: "plain", reps: 1}
		c.workload, c.def = name, workloads[name]
		if i == 0 {
			ph.reps = reps
		}
		b, s, err := setUp(c, ph)
		if err != nil {
			return outcome{}, err
		}
		benches = append(benches, b)
		if i == 0 {
			setup = s
		}
	}
	shares := make([]float64, len(benches))
	for i := range shares {
		shares[i] = share(i)
	}
	if err := measureInTurns(benches, shares, total); err != nil {
		return outcome{}, fmt.Errorf("measure: %w", err)
	}
	all := outcome{metrics: map[string]metric{}, counts: map[string]metric{}, primary: cfg.def.primary}
	for i, b := range benches {
		oc, err := b.report()
		if err != nil {
			return outcome{}, fmt.Errorf("measure %s: %w", names[i], err)
		}
		all.merge(names[i], oc)
	}
	all.metrics["setup_s"] = metric{setup, "s"}
	return all, nil
}

// runPlain is the untraced run: end-to-end metrics only.
func runPlain(cfg runConfig) (result, error) {
	oc, err := runInterleaved(cfg, cfg.def.setupReps, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return result{}, err
	}
	oc.metrics["rss_mb"] = metric{peakRSSMB(), "MB"}
	return result{
		Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: oc.metrics,
	}, nil
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printMachine prints the machine the report was measured on.
func printMachine(cfg runConfig) {
	info := buildinfo.Get()
	m := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_revision": func() string {
			if info.Revision != "" {
				return info.Revision
			}
			return "unknown"
		}(),
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
	}
	line, _ := json.Marshal(m) // a map of strings and numbers always encodes
	fmt.Printf("machine %s\n", line)
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// where that file is absent).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

var errNoOps = errors.New("no op completed")

// processCPU returns the CPU seconds the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
