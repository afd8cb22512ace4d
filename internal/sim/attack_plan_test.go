package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mopac/internal/store"
	"mopac/internal/workload"
)

// TestAttackHashNormalisesDefaults: every spelling of the same
// evaluation (implicit vs explicit defaults, raw vs normalized spec)
// must share a key, or the search driver would re-simulate and the
// store would fragment.
func TestAttackHashNormalisesDefaults(t *testing.T) {
	implicit := AttackConfig{
		Base: Config{Design: DesignMoPACD, TRH: 500, Seed: 1},
		Spec: workload.AttackSpec{Victim: 4096},
	}
	explicit := AttackConfig{
		Base: Config{Design: DesignMoPACD, TRH: 500, Seed: 1, Cores: 1, TrackSecurity: true},
		Spec: workload.AttackSpec{
			Pattern: workload.KindDoubleSided, Victim: 4096,
			Aggressors: 2, BankSpread: 1,
		},
		TargetActs: 30_000,
	}
	if implicit.Hash() != explicit.Hash() {
		t.Fatal("implicit and explicit attack defaults must hash identically")
	}
}

// TestAttackHashSeparatesKnobs: every pattern knob and the activation
// target must key distinctly, and the attack keyspace must be disjoint
// from the figure-run keyspace even for the same base config.
func TestAttackHashSeparatesKnobs(t *testing.T) {
	base := Config{Design: DesignMoPACD, TRH: 500, Seed: 1}
	spec := workload.AttackSpec{Pattern: workload.KindWave, Victim: 4096}
	mk := func(mut func(*AttackConfig)) AttackConfig {
		a := AttackConfig{Base: base, Spec: spec}
		mut(&a)
		return a
	}
	variants := map[string]AttackConfig{
		"base":    mk(func(a *AttackConfig) {}),
		"pattern": mk(func(a *AttackConfig) { a.Spec.Pattern = workload.KindManySided }),
		"sub":     mk(func(a *AttackConfig) { a.Spec.Sub = 1 }),
		"bank":    mk(func(a *AttackConfig) { a.Spec.Bank = 3 }),
		"victim":  mk(func(a *AttackConfig) { a.Spec.Victim = 8192 }),
		"aggr":    mk(func(a *AttackConfig) { a.Spec.Aggressors = 6 }),
		"decoys":  mk(func(a *AttackConfig) { a.Spec.Decoys = 16 }),
		"ratio":   mk(func(a *AttackConfig) { a.Spec.DecoyRatio = 2 }),
		"burst":   mk(func(a *AttackConfig) { a.Spec.Burst = 16 }),
		"phase": mk(func(a *AttackConfig) {
			a.Spec.Pattern = workload.KindRefreshSync
			a.Spec.PhaseNs = 100
		}),
		"gap": mk(func(a *AttackConfig) {
			a.Spec.Pattern = workload.KindRefreshSync
			a.Spec.GapNs = 100
		}),
		"spread": mk(func(a *AttackConfig) { a.Spec.BankSpread = 4 }),
		"acts":   mk(func(a *AttackConfig) { a.TargetActs = 40_000 }),
		"design": mk(func(a *AttackConfig) { a.Base.Design = DesignPRAC }),
		"trh":    mk(func(a *AttackConfig) { a.Base.TRH = 250 }),
	}
	seen := map[string]string{base.Hash(): "figure-run"}
	for name, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[h] = name
	}
}

// TestPlannerAttackWarmRun: attack evaluations flow through the planner
// and its store like figure runs — a second planner over the same store
// directory executes nothing and returns identical results.
func TestPlannerAttackWarmRun(t *testing.T) {
	dir := t.TempDir()
	cfgs := []AttackConfig{
		{Base: Config{Design: DesignMoPACD, TRH: 500, Seed: 1},
			Spec: workload.AttackSpec{Victim: 4096}, TargetActs: 5_000},
		{Base: Config{Design: DesignMoPACD, TRH: 500, Seed: 1},
			Spec:       workload.AttackSpec{Pattern: workload.KindManySided, Victim: 4096, Aggressors: 6},
			TargetActs: 5_000},
	}
	runOnce := func() ([]AttackResult, PlanStats) {
		s, err := store.Open(dir, AttackStoreSchema, "test-rev")
		if err != nil {
			t.Fatal(err)
		}
		p := NewPlanner(2)
		p.SetAttackStore(s)
		for _, c := range cfgs {
			p.NeedAttack(c)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		out := make([]AttackResult, len(cfgs))
		for i, c := range cfgs {
			res, err := p.GetAttack(c)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out, p.Stats()
	}

	cold, coldStats := runOnce()
	if coldStats.Executed != 2 {
		t.Fatalf("cold run executed %d, want 2", coldStats.Executed)
	}
	warm, warmStats := runOnce()
	if warmStats.Executed != 0 {
		t.Fatalf("warm run executed %d, want 0", warmStats.Executed)
	}
	if warmStats.StoreHits != 2 {
		t.Fatalf("warm run: %d store hits, want 2", warmStats.StoreHits)
	}
	for i := range cold {
		if cold[i].MaxUnmitigated != warm[i].MaxUnmitigated || cold[i].TimeNs != warm[i].TimeNs {
			t.Fatalf("warm result %d differs: %+v vs %+v", i, warm[i], cold[i])
		}
	}
}

// TestPlannerAttackBadCandidateIsData: a candidate that cannot build is
// a per-candidate error on GetAttack, not a plan abort — one malformed
// mutation must not kill a whole search batch.
func TestPlannerAttackBadCandidateIsData(t *testing.T) {
	p := NewPlanner(2)
	good := AttackConfig{Base: Config{Design: DesignBaseline, TRH: 500, Seed: 1},
		Spec: workload.AttackSpec{Victim: 4096}, TargetActs: 2_000}
	bad := AttackConfig{Base: Config{Design: DesignBaseline, TRH: 500, Seed: 1},
		Spec: workload.AttackSpec{Pattern: "sideways", Victim: 4096}, TargetActs: 2_000}
	p.NeedAttack(good)
	p.NeedAttack(bad)
	if err := p.Flush(); err != nil {
		t.Fatalf("attack-candidate failure aborted the plan: %v", err)
	}
	if _, err := p.GetAttack(bad); err == nil {
		t.Fatal("bad candidate returned no error")
	} else if !strings.Contains(err.Error(), "unknown attack pattern") {
		t.Fatalf("bad candidate error = %v", err)
	}
	if res, err := p.GetAttack(good); err != nil {
		t.Fatalf("good candidate failed alongside the bad one: %v", err)
	} else if res.Activations < 2_000 {
		t.Fatalf("good candidate undershot: %+v", res)
	}
}

// TestPlannerCancelsAttackItems: a figure run failing mid-flush
// cancels the attack evaluations in flight, as it cancels figure runs,
// instead of leaving them to simulate to completion.
func TestPlannerCancelsAttackItems(t *testing.T) {
	p := NewPlanner(2)
	long := AttackConfig{Base: Config{Design: DesignMoPACD, TRH: 500, Seed: 1},
		Spec: workload.AttackSpec{Victim: 4096}, TargetActs: 20_000_000}
	p.NeedAttack(long)
	p.Need(Config{Design: DesignPRAC, Workload: "no-such-workload"})
	if err := p.Flush(); err == nil {
		t.Fatal("flush with a bad config must fail")
	}
	_, err := p.GetAttack(long)
	if err == nil {
		t.Fatal("attack evaluation ran to completion after the flush failed")
	}
	// It is cancelled mid-run, or skipped when the failure came first.
	if !errors.Is(err, ErrCanceled) && !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("attack evaluation error = %v, want ErrCanceled or plan-aborted", err)
	}
}

// TestAttackStepsPlanned: the Table 9, Table 10 and security-suite
// steps declare their 40 attack runs through PlanStep, the planner
// dedupes them to 33 (the baselines and the MoPAC-C multi-bank run the
// tables share), and a warm re-run over the same store simulates none
// of them and assembles identical rows.
func TestAttackStepsPlanned(t *testing.T) {
	dir := t.TempDir()
	runOnce := func() (string, PlanStats, PlanStats) {
		s, err := store.Open(dir, AttackStoreSchema, "test-rev")
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(Scale{AttackActs: 2_000, Seed: 1})
		r.Planner().SetAttackStore(s)
		for _, id := range []string{"tab9", "tab10", "sec"} {
			if !r.PlanStep(id) {
				t.Fatalf("step %s is not planner-backed", id)
			}
		}
		if err := r.Planner().Flush(); err != nil {
			t.Fatal(err)
		}
		planned := r.Planner().Stats()
		c, err := r.AttacksMoPACC()
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.AttacksMoPACD()
		if err != nil {
			t.Fatal(err)
		}
		sec, err := r.SecurityValidation(securityTRH)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(c, d, sec), planned, r.Planner().Stats()
	}
	cold, planned, coldStats := runOnce()
	if planned.Requested != 40 || planned.Unique != 33 {
		t.Fatalf("planned %d requested -> %d unique, want 40 -> 33", planned.Requested, planned.Unique)
	}
	if coldStats.Executed != 33 || coldStats.Unique != 33 {
		t.Fatalf("assembly re-ran declared runs: %+v", coldStats)
	}
	warm, _, warmStats := runOnce()
	if warmStats.Executed != 0 || warmStats.StoreHits != 33 {
		t.Fatalf("warm run: %+v, want 0 executed and 33 store hits", warmStats)
	}
	if warm != cold {
		t.Fatalf("warm rows differ from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
}
