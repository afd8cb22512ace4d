package sim

import (
	"testing"

	"mopac/internal/telemetry"
)

func TestHashNormalisesDefaults(t *testing.T) {
	implicit := Config{Design: DesignMoPACD, Workload: "lbm", Seed: 1}
	explicit := Config{
		Design: DesignMoPACD, Workload: "lbm", Seed: 1,
		Cores: 8, InstrPerCore: 1_000_000, Chips: 4, TRH: 500,
	}
	if implicit.Hash() != explicit.Hash() {
		t.Fatal("zero fields and their explicit defaults must hash identically")
	}
}

func TestHashDistinguishesRuns(t *testing.T) {
	base := Config{Design: DesignMoPACD, Workload: "lbm", Seed: 1}
	drain := 2
	variants := []Config{
		{Design: DesignMoPACC, Workload: "lbm", Seed: 1},
		{Design: DesignMoPACD, Workload: "xz", Seed: 1},
		{Design: DesignMoPACD, Workload: "lbm", Seed: 2},
		{Design: DesignMoPACD, Workload: "lbm", Seed: 1, TRH: 250},
		{Design: DesignMoPACD, Workload: "lbm", Seed: 1, NUP: true},
		{Design: DesignMoPACD, Workload: "lbm", Seed: 1, DrainOnREF: &drain},
		{Design: DesignMoPACD, Workload: "lbm", Seed: 1, TrackSecurity: true},
		{Design: DesignMoPACD, Workload: "lbm", Seed: 1, InstrPerCore: 2_000_000},
	}
	seen := map[string]int{base.Hash(): -1}
	for i, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("variant %d collides with %d", i, prev)
		}
		seen[h] = i
	}
}

func TestHashIsStable(t *testing.T) {
	cfg := Config{Design: DesignQPRAC, Workload: "mcf", Seed: 7}
	if cfg.Hash() != cfg.Hash() {
		t.Fatal("hash must be deterministic")
	}
	if got := len(cfg.Hash()); got != 64 {
		t.Fatalf("hash length = %d, want 64 hex chars", got)
	}
}

// TestHashGolden pins the encoding against committed values. On-disk
// result-store entries are addressed by these keys, so an accidental
// change to the derivation (field order, formatting, defaults) silently
// orphans every persisted result; this test turns that into a loud
// failure. An intentional change must bump hashVersion and update the
// golden values.
func TestHashGolden(t *testing.T) {
	golden := []struct {
		cfg  Config
		want string
	}{
		{Config{},
			"e5189aaaa327f02362a30dfe5ded6f51e2b2fa8904d5ad6c66e12713ca899569"},
		{Config{Design: DesignMoPACD, Workload: "lbm", Seed: 1},
			"ddd729fc3cc28a30a97e3f0cde48273a663b487479e7d8a36edcf104ee5d561c"},
	}
	for i, g := range golden {
		if got := g.cfg.Hash(); got != g.want {
			t.Errorf("golden %d: hash %s, want %s (key encoding changed — bump hashVersion)", i, got, g.want)
		}
	}
}

// TestHashIgnoresTrace proves tracing is store-irrelevant: a traced run
// is simulation-identical to an untraced one, so both must share a key
// (and therefore a cache/store entry).
func TestHashIgnoresTrace(t *testing.T) {
	plain := Config{Design: DesignPRAC, Workload: "mcf", Seed: 1}
	traced := plain
	traced.Trace = telemetry.New(telemetry.Options{})
	if plain.Hash() != traced.Hash() {
		t.Fatal("Trace must not participate in the hash")
	}
}

// TestHashSeparatesEveryPlannerKnob walks every config knob the planner
// dedupes on — design, policy, TRH, and all sweep parameters — and
// checks each variant keys distinctly from a common base. A collision
// here would serve one experiment's result for another's config.
func TestHashSeparatesEveryPlannerKnob(t *testing.T) {
	base := Config{Design: DesignMoPACD, Workload: "lbm", Seed: 1}
	drain0, drain4 := 0, 4
	variants := map[string]Config{
		"design-baseline": {Design: DesignBaseline, Workload: "lbm", Seed: 1},
		"design-prac":     {Design: DesignPRAC, Workload: "lbm", Seed: 1},
		"design-mopac-c":  {Design: DesignMoPACC, Workload: "lbm", Seed: 1},
		"design-trr":      {Design: DesignTRR, Workload: "lbm", Seed: 1},
		"design-mint":     {Design: DesignMINT, Workload: "lbm", Seed: 1},
		"design-pride":    {Design: DesignPrIDE, Workload: "lbm", Seed: 1},
		"design-chronos":  {Design: DesignChronos, Workload: "lbm", Seed: 1},
		"trh-4000":        {Design: DesignMoPACD, Workload: "lbm", Seed: 1, TRH: 4000},
		"trh-1000":        {Design: DesignMoPACD, Workload: "lbm", Seed: 1, TRH: 1000},
		"trh-250":         {Design: DesignMoPACD, Workload: "lbm", Seed: 1, TRH: 250},
		"trh-100":         {Design: DesignMoPACD, Workload: "lbm", Seed: 1, TRH: 100},
		"workload":        {Design: DesignMoPACD, Workload: "xz", Seed: 1},
		"seed":            {Design: DesignMoPACD, Workload: "lbm", Seed: 2},
		"cores":           {Design: DesignMoPACD, Workload: "lbm", Seed: 1, Cores: 1},
		"instr":           {Design: DesignMoPACD, Workload: "lbm", Seed: 1, InstrPerCore: 5},
		"nup":             {Design: DesignMoPACD, Workload: "lbm", Seed: 1, NUP: true},
		"rowpress":        {Design: DesignMoPACD, Workload: "lbm", Seed: 1, RowPress: true},
		"chips":           {Design: DesignMoPACD, Workload: "lbm", Seed: 1, Chips: 16},
		"pinv":            {Design: DesignMoPACD, Workload: "lbm", Seed: 1, PInvOverride: 8},
		"rfmlevel":        {Design: DesignMoPACD, Workload: "lbm", Seed: 1, RFMLevel: 2},
		"maxpostponed":    {Design: DesignMoPACD, Workload: "lbm", Seed: 1, MaxPostponedREFs: 4},
		"srqsize":         {Design: DesignMoPACD, Workload: "lbm", Seed: 1, SRQSize: 8},
		"drain-0":         {Design: DesignMoPACD, Workload: "lbm", Seed: 1, DrainOnREF: &drain0},
		"drain-4":         {Design: DesignMoPACD, Workload: "lbm", Seed: 1, DrainOnREF: &drain4},
		"policy-close":    {Design: DesignMoPACD, Workload: "lbm", Seed: 1, Policy: 1},
		"policy-timeout":  {Design: DesignMoPACD, Workload: "lbm", Seed: 1, Policy: 2, TimeoutNs: 100},
		"timeout-200":     {Design: DesignMoPACD, Workload: "lbm", Seed: 1, Policy: 2, TimeoutNs: 200},
		"security":        {Design: DesignMoPACD, Workload: "lbm", Seed: 1, TrackSecurity: true},
		"logdepth":        {Design: DesignMoPACD, Workload: "lbm", Seed: 1, CommandLogDepth: 16},
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[h] = name
	}
}
