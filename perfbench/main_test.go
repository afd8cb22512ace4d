package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},  // overlaps b
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of root
		{Name: "a1", Start: 15, End: 20, Parent: 1}, // nested in a
		{Name: "a2", Start: 18, End: 25, Parent: 1}, // overlaps a1
	}
	got := selfTimes(spans)
	// root: 100 - |[10,50] ∪ [90,100]| = 100 - 50 = 50.
	// a: 30 - |[15,25]| = 20. b: 20. c: 30. a1: 5. a2: 7.
	want := []int64{50, 20, 20, 30, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesIgnoresDroppedChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "gone", Start: 0, End: -1, Parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 10 {
		t.Fatalf("self(root) = %d, want 10", got)
	}
	if got := selfByName(spans, selfTimes(spans), "gone"); len(got) != 0 {
		t.Fatalf("dropped span reported: %v", got)
	}
}

func TestUnionLength(t *testing.T) {
	cases := []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 5}}, 5},
		{[][2]int64{{0, 5}, {5, 7}}, 7},
		{[][2]int64{{3, 9}, {0, 4}, {20, 21}}, 10},
		{[][2]int64{{0, 10}, {2, 3}}, 10},
	}
	for _, c := range cases {
		if got := unionLength(c.ivs); got != c.want {
			t.Errorf("unionLength(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	xs := make([]float64, 3500)
	for i := range xs {
		xs[i] = float64(i % 100) // every window's p99 is 98
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 1e6 // a burst inside the second window
	}
	if got := windowedPercentile(xs, 99, 1000); got != 98 {
		t.Errorf("windowed p99 = %v, want 98 (the burst moves one window of three)", got)
	}
	if got := windowedPercentile(xs[:1500], 99, 1000); got != 1e6 {
		t.Errorf("single-window p99 = %v, want the plain p99", got)
	}
}

func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	spans := []span{{Name: "job", Start: 1000, End: 5000, Parent: -1, Trace: 1}, {Name: "gone", End: -1}}
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0]["ph"] != "X" || doc.TraceEvents[0]["dur"] != 4.0 {
		t.Fatalf("unexpected events %v", doc.TraceEvents)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mopac/internal/sim.(*System).Run":     "mopac/internal/sim",
		"runtime.mallocgc":                     "runtime",
		"encoding/json.(*encodeState).marshal": "encoding/json",
		"main.main":                            "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// declared is the metric list BENCHMARK.json declares.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinySizes shrinks every workload so a smoke run takes seconds.
func tinySizes() sizes {
	sz := defaultSizes()
	sz.sweepInstr = 5_000
	sz.sweepWorkloads = []string{"mcf", "xz"}
	sz.sweepSteps = []string{"fig9"}
	sz.sweepMinPasses = 2
	sz.attackSearches = 1
	sz.attackBudget = 4
	sz.attackActs = 2_000
	sz.attackMinCycles = 1
	sz.serveCores = 2
	sz.serveInstr = 2_000
	sz.serveWorkloads = []string{"mcf", "xz"}
	sz.serveWarmJobs = 8
	sz.replayScale = 16
	return sz
}

func smokeConfig(t *testing.T, name string) runConfig {
	return runConfig{
		workload: name, def: workloads[name], seed: 7, seconds: 1,
		workers: benchWorkers, out: t.TempDir(), size: tinySizes(),
	}
}

// checkMetrics asserts res reports exactly the declared names with
// their units, and no failed op.
func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, w := range want {
		got, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if got.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, want %q", w.Name, got.Unit, w.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
	}
}

// sleepBench is a bench whose ops sleep for op and which needs min of
// them.
type sleepBench struct {
	op       time.Duration
	min, ops int
}

func (b *sleepBench) warmUp() error                               { return nil }
func (b *sleepBench) step() error                                 { time.Sleep(b.op); b.ops++; return nil }
func (b *sleepBench) enough() bool                                { return b.ops >= b.min }
func (b *sleepBench) report() (outcome, error)                    { return outcome{}, nil }
func (b *sleepBench) layerCounts(*replayInputs) map[string]metric { return nil }
func (b *sleepBench) close()                                      {}

func TestMeasureInTurnsSharesTime(t *testing.T) {
	// Half the time for a's 4 ms ops, a quarter each for b's 4 ms and
	// c's 12 ms ops; c needs more ops than its share affords.
	a := &sleepBench{op: 4 * time.Millisecond}
	b := &sleepBench{op: 4 * time.Millisecond}
	c := &sleepBench{op: 12 * time.Millisecond, min: 12}
	start := time.Now()
	if err := measureInTurns([]bench{a, b, c}, []float64{0.5, 0.25, 0.25}, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.ops < c.min {
		t.Errorf("c ran %d ops, needs %d", c.ops, c.min)
	}
	// By the deadline a had about twice b's time; c then ran alone.
	if a.ops < 3*b.ops/2 || a.ops > 3*b.ops {
		t.Errorf("a ran %d ops and b %d, want about twice as many", a.ops, b.ops)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("took %v", took)
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	d := readDeclared(t)
	for _, name := range sortedNames(workloads) {
		t.Run(name, func(t *testing.T) {
			res, err := runPlain(smokeConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, d.EndToEnd)
			for k, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke run takes several seconds")
	}
	res, err := runTraced(smokeConfig(t, "serve"))
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, readDeclared(t).PerLayer)
}
