package mitigation

import (
	"testing"

	"mopac/internal/dram"
	"mopac/internal/security"
)

func TestTRRTracksAndMitigates(t *testing.T) {
	g := NewTRR(TRRConfig{Entries: 4, MitigatePerREFs: 1, Rows: 1 << 16})
	for i := 0; i < 10; i++ {
		g.Activate(0, 7)
	}
	g.Activate(0, 8)
	mits := g.Refresh(0)
	if len(mits) != 1 || mits[0].Row != 7 {
		t.Fatalf("mitigations = %v, want hottest row 7", mits)
	}
	if g.Stats().Mitigations != 1 {
		t.Fatalf("stats: %+v", g.Stats())
	}
}

func TestTRRMitigationCadence(t *testing.T) {
	g := NewTRR(TRRConfig{Entries: 4, MitigatePerREFs: 4, Rows: 1 << 16})
	g.Activate(0, 1)
	for i := 0; i < 3; i++ {
		if mits := g.Refresh(0); mits != nil {
			t.Fatalf("REF %d mitigated early: %v", i, mits)
		}
	}
	if mits := g.Refresh(0); len(mits) != 1 {
		t.Fatalf("4th REF must mitigate, got %v", mits)
	}
}

// The classic many-sided bypass: with more interleaved aggressors than
// tracker entries, Misra-Gries decrements erase the evidence and rows
// hammer far past any threshold without mitigation.
func TestTRRManySidedBypass(t *testing.T) {
	g := NewTRR(TRRConfig{Entries: 4, MitigatePerREFs: 1, Rows: 1 << 16})
	rows := []int{10, 20, 30, 40, 50, 60, 70, 80} // 8 aggressors, 4 entries
	mitigated := 0
	for round := 0; round < 2000; round++ {
		for _, r := range rows {
			g.Activate(0, r)
		}
		if round%20 == 19 { // a REF roughly every 20 rounds
			mitigated += len(g.Refresh(0))
		}
	}
	// 16000 activations across 8 rows (2000 each) with almost no
	// mitigations: the tracker thrashes.
	if mitigated > 120 {
		t.Fatalf("TRR mitigated %d times; expected the pattern to thrash the tracker", mitigated)
	}
	if g.Stats().Evictions == 0 {
		t.Fatal("expected evictions under the many-sided pattern")
	}
}

func TestTRRNeverAlerts(t *testing.T) {
	g := NewTRR(TRRConfig{})
	g.Activate(0, 1)
	if g.AlertRequested() || g.ABOAction(0) != nil {
		t.Fatal("TRR must not use ABO")
	}
}

func TestFactoryBuildsEachVariant(t *testing.T) {
	for _, v := range []security.Variant{security.VariantPRAC, security.VariantMoPACC, security.VariantMoPACD} {
		params := security.DeriveWithP(v, 500, security.DefaultP(500))
		if v == security.VariantPRAC {
			params = security.DeriveWithP(v, 500, 1)
		}
		f, err := NewFactory(Options{Params: params, Rows: 1 << 16, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		g := f(0, 0)
		if g == nil {
			t.Fatalf("%v: nil guard", v)
		}
		switch v {
		case security.VariantMoPACD:
			if _, ok := g.(*MoPACD); !ok {
				t.Fatalf("%v: wrong guard type %T", v, g)
			}
		default:
			if _, ok := g.(*MOAT); !ok {
				t.Fatalf("%v: wrong guard type %T", v, g)
			}
		}
	}
}

func TestFactoryOverrides(t *testing.T) {
	drain := 0
	f, err := NewFactory(Options{
		Params:     security.DeriveMoPACD(500),
		Rows:       1 << 16,
		SRQSize:    8,
		DrainOnREF: &drain,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := f(0, 0).(*MoPACD)
	if g.cfg.SRQSize != 8 || g.cfg.DrainOnREF != 0 {
		t.Fatalf("overrides not applied: %+v", g.cfg)
	}
}

func TestFactoryDistinctSeedsPerBank(t *testing.T) {
	f, err := NewFactory(Options{Params: security.DeriveMoPACD(500), Rows: 1 << 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a := f(0, 0).(*MoPACD)
	b := f(0, 1).(*MoPACD)
	c := f(1, 0).(*MoPACD)
	if a.cfg.Seed == b.cfg.Seed || a.cfg.Seed == c.cfg.Seed || b.cfg.Seed == c.cfg.Seed {
		t.Fatal("banks/chips must get distinct RNG seeds")
	}
}

func TestFactoryRejectsInvalidParams(t *testing.T) {
	bad := security.DeriveMoPACD(500)
	bad.ATHStar = 1
	if _, err := NewFactory(Options{Params: bad, Rows: 64}); err == nil {
		t.Fatal("factory accepted invalid params")
	}
}

func TestPMenuRoundTrip(t *testing.T) {
	for invP := 2; invP <= 64; invP *= 2 {
		code, err := dram.PMenuCode(invP)
		if err != nil {
			t.Fatal(err)
		}
		if got := 2 << code; got != invP {
			t.Fatalf("menu round trip: 1/%d -> %d -> 1/%d", invP, code, got)
		}
	}
	if _, err := dram.PMenuCode(3); err == nil {
		t.Fatal("off-menu p accepted")
	}
}
