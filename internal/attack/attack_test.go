package attack

import (
	"bytes"
	"encoding/json"
	"testing"

	"mopac/internal/sim"
	"mopac/internal/store"
)

func testOptions() Options {
	return Options{
		Base:       sim.Config{Design: sim.DesignMoPACD, TRH: 500, Seed: 1},
		Seed:       1,
		Budget:     6,
		TargetActs: 4_000,
	}
}

func render(t *testing.T, r *Report) (string, string) {
	t.Helper()
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return text.String(), string(js)
}

// TestSearchDeterminism is the reproducibility contract: equal options
// render byte-identical text and JSON reports.
func TestSearchDeterminism(t *testing.T) {
	a, _, err := Search(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Workers = 1 // parallelism must not leak into the report
	b, _, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	aText, aJSON := render(t, a)
	bText, bJSON := render(t, b)
	if aText != bText {
		t.Fatalf("text reports differ:\n--- a ---\n%s\n--- b ---\n%s", aText, bText)
	}
	if aJSON != bJSON {
		t.Fatal("JSON reports differ")
	}
}

// TestSearchShape checks the report invariants: full budget spent,
// indices sequential, trajectory strictly improving, best = argmax.
func TestSearchShape(t *testing.T) {
	rep, stats, err := Search(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Evals) != rep.Budget {
		t.Fatalf("spent %d evals of budget %d", len(rep.Evals), rep.Budget)
	}
	if rep.Baseline.Index != -1 || rep.Baseline.Spec != BaselineSpec().String() {
		t.Fatalf("baseline malformed: %+v", rep.Baseline)
	}
	for i, e := range rep.Evals {
		if e.Index != i {
			t.Fatalf("eval %d carries index %d", i, e.Index)
		}
		if e.Err == "" && e.Score > rep.Best.Score {
			t.Fatalf("eval %d outscores the reported best", i)
		}
	}
	last := -1.0
	for _, p := range rep.Trajectory {
		if p.Score <= last {
			t.Fatalf("trajectory not strictly improving: %+v", rep.Trajectory)
		}
		last = p.Score
	}
	if len(rep.Trajectory) == 0 || rep.Trajectory[len(rep.Trajectory)-1].Score != rep.Best.Score {
		t.Fatalf("trajectory does not end at the best score: %+v", rep.Trajectory)
	}
	// The baseline plus budget candidates were declared; dedup may make
	// Unique smaller but never larger.
	if stats.Requested != int64(rep.Budget+1) {
		t.Fatalf("declared %d evaluations, want %d", stats.Requested, rep.Budget+1)
	}
	if stats.Unique > stats.Requested || stats.Executed > stats.Unique {
		t.Fatalf("inconsistent stats: %+v", stats)
	}
}

// TestSearchWarmStore: a second search over the same store directory
// simulates nothing and reports identically — the warm-resume contract.
func TestSearchWarmStore(t *testing.T) {
	dir := t.TempDir()
	runOnce := func() (string, sim.PlanStats) {
		s, err := store.Open(dir, sim.AttackStoreSchema, "test-rev")
		if err != nil {
			t.Fatal(err)
		}
		opt := testOptions()
		opt.Store = s
		rep, stats, err := Search(opt)
		if err != nil {
			t.Fatal(err)
		}
		text, _ := render(t, rep)
		return text, stats
	}
	cold, coldStats := runOnce()
	if coldStats.Executed == 0 {
		t.Fatal("cold search executed nothing")
	}
	warm, warmStats := runOnce()
	if warmStats.Executed != 0 {
		t.Fatalf("warm search executed %d simulations, want 0", warmStats.Executed)
	}
	if warmStats.StoreHits != warmStats.Unique {
		t.Fatalf("warm search: hits=%d unique=%d", warmStats.StoreHits, warmStats.Unique)
	}
	if cold != warm {
		t.Fatal("warm report differs from cold")
	}
}

// TestSearchProgressOrder: the progress callback sees the baseline then
// every evaluation in index order, independent of completion order.
func TestSearchProgressOrder(t *testing.T) {
	opt := testOptions()
	var got []int
	opt.Progress = func(e Eval) { got = append(got, e.Index) }
	if _, _, err := Search(opt); err != nil {
		t.Fatal(err)
	}
	want := []int{-1, 0, 1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("progress saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("progress saw %v, want %v", got, want)
		}
	}
}

// TestSearchGoldenTrajectory pins the committed search trajectory for
// the default batch size: the -batch flag replaced a hard-coded
// constant, and the default must keep reproducing the exact trajectory
// earlier releases committed to (budget 12 > batch 8 exercises a batch
// boundary, where the hill-climb's incumbent updates). If this test
// fails, the deterministic seed contract broke — candidate generation,
// scoring, or batching semantics changed.
func TestSearchGoldenTrajectory(t *testing.T) {
	opt := Options{
		Base:       sim.Config{Design: sim.DesignMoPACD, TRH: 500, Seed: 1},
		Seed:       1,
		Budget:     12,
		TargetActs: 4_000,
	}
	rep, _, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := []TrajectoryPoint{
		{Eval: 0, Score: 0.136, Spec: "refresh-sync:sub=0,bank=19,victim=53984,aggr=16,burst=37,phase=3630,gap=1902,spread=5"},
		{Eval: 1, Score: 0.228, Spec: "many-sided:sub=1,bank=10,victim=47576,aggr=12,spread=3"},
		{Eval: 2, Score: 0.428, Spec: "refresh-sync:sub=1,bank=27,victim=64053,aggr=4,burst=7,phase=3895,gap=189,spread=5"},
	}
	if len(rep.Trajectory) != len(want) {
		t.Fatalf("trajectory = %+v, want %+v", rep.Trajectory, want)
	}
	for i, p := range rep.Trajectory {
		if p != want[i] {
			t.Fatalf("trajectory[%d] = %+v, want %+v", i, p, want[i])
		}
	}
	if got := rep.Baseline.Score; got != 0.406 {
		t.Fatalf("baseline score = %v, want 0.406", got)
	}
	if rep.Batch != DefaultBatch {
		t.Fatalf("report batch = %d, want default %d", rep.Batch, DefaultBatch)
	}
}

// TestSearchParallelismInvariance: Workers shape wall time only — a fanned-out search must render byte-identical reports to the
// serial one. This is the in-process version of the CI attack-smoke
// parallel-equivalence assertion.
func TestSearchParallelismInvariance(t *testing.T) {
	serial, _, err := Search(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Workers = 4
	parallel, _, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	sText, sJSON := render(t, serial)
	pText, pJSON := render(t, parallel)
	if sText != pText {
		t.Fatalf("parallel text report differs:\n--- serial ---\n%s\n--- parallel ---\n%s", sText, pText)
	}
	if sJSON != pJSON {
		t.Fatal("parallel JSON report differs")
	}
}

// TestSearchBatchChangesTrajectoryContract: a non-default batch size is
// a different search (incumbent updates move), and the report must
// record the batch that produced it.
func TestSearchBatchRecorded(t *testing.T) {
	opt := testOptions()
	opt.Batch = 3
	rep, _, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batch != 3 {
		t.Fatalf("report batch = %d, want 3", rep.Batch)
	}
	if len(rep.Evals) != opt.Budget {
		t.Fatalf("spent %d evals of budget %d", len(rep.Evals), opt.Budget)
	}
}

func TestSearchRejectsBadOptions(t *testing.T) {
	opt := testOptions()
	opt.Base.Workload = "mcf"
	if _, _, err := Search(opt); err == nil {
		t.Fatal("workload-carrying base accepted")
	}
	opt = testOptions()
	opt.Budget = 0
	if _, _, err := Search(opt); err == nil {
		t.Fatal("zero budget accepted")
	}
	opt = testOptions()
	opt.Base.Design = sim.Design(99)
	if _, _, err := Search(opt); err == nil {
		t.Fatal("unknown design accepted")
	}
}
