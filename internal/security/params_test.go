package security

import (
	"math"
	"testing"
)

func TestTable5PaperValues(t *testing.T) {
	// Table 5. Note: the paper prints eps(1000) as 1.12e-8 but
	// sqrt(1.44e-16) = 1.20e-8; we assert the computed value and accept
	// the paper's rounding on F.
	cases := []struct {
		trh int
		f   float64
		eps float64
	}{
		{250, 3.59e-17, 5.99e-9},
		{500, 7.19e-17, 8.48e-9},
		{1000, 1.44e-16, 1.20e-8},
	}
	for _, c := range cases {
		if got := FailureBudget(c.trh); !relClose(got, c.f, 0.01) {
			t.Errorf("F(%d) = %.3e, want %.2e", c.trh, got, c.f)
		}
		if got := Epsilon(c.trh); !relClose(got, c.eps, 0.01) {
			t.Errorf("eps(%d) = %.3e, want %.2e", c.trh, got, c.eps)
		}
	}
	if len(Table5()) != 3 {
		t.Fatal("default Table5 must have three rows")
	}
}

func TestDefaultPPaperValues(t *testing.T) {
	// §1: p = 1/64, 1/32, 1/16, 1/8, 1/4 at T = 4K, 2K, 1K, 500, 250.
	want := map[int]float64{
		4000: 1.0 / 64, 2000: 1.0 / 32, 1000: 1.0 / 16,
		500: 1.0 / 8, 250: 1.0 / 4, 125: 1.0 / 2,
	}
	for trh, p := range want {
		if got := DefaultP(trh); got != p {
			t.Errorf("DefaultP(%d) = %v, want %v", trh, got, p)
		}
	}
	if DefaultP(0) != 1 {
		t.Error("DefaultP(0) must degrade to 1")
	}
}

func TestMOATTable2(t *testing.T) {
	want := map[int]int{1000: 975, 500: 472, 250: 219}
	got := Table2()
	for trh, ath := range want {
		if got[trh] != ath {
			t.Errorf("ATH(%d) = %d, want %d", trh, got[trh], ath)
		}
	}
	// ETH = ATH/2 (footnote 3).
	if eth := MOATEligibilityThreshold(500); eth != 236 {
		t.Errorf("ETH(500) = %d, want 236", eth)
	}
}

func TestMOATExtensionMonotone(t *testing.T) {
	prev := 0
	for _, trh := range []int{125, 250, 500, 1000, 2000, 4000, 8000} {
		ath := MOATAlertThreshold(trh)
		if ath <= prev {
			t.Fatalf("ATH(%d) = %d not increasing (prev %d)", trh, ath, prev)
		}
		if ath >= trh {
			t.Fatalf("ATH(%d) = %d must be below the threshold", trh, ath)
		}
		prev = ath
	}
}

func TestTable7MoPACC(t *testing.T) {
	want := []struct{ trh, ath, c, athStar int }{
		{250, 219, 20, 80},
		{500, 472, 22, 176},
		{1000, 975, 23, 368},
	}
	for _, w := range want {
		p := DeriveMoPACC(w.trh)
		if p.ATH != w.ath || p.C != w.c || p.ATHStar != w.athStar {
			t.Errorf("T=%d: got ATH=%d C=%d ATH*=%d, want %d/%d/%d",
				w.trh, p.ATH, p.C, p.ATHStar, w.ath, w.c, w.athStar)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("T=%d: %v", w.trh, err)
		}
		if p.UpdateWeight() != int(math.Round(1/p.P)) {
			t.Errorf("T=%d: update weight mismatch", w.trh)
		}
	}
}

func TestTable8MoPACD(t *testing.T) {
	// Paper lists A' = 187/440/942; our 943 at T=1000 reflects
	// 975-32 = 943 (the paper's 942 appears to be a typo), so we accept
	// +-1 on A and pin C/ATH*/drain exactly.
	want := []struct{ trh, a, c, athStar, drain int }{
		{250, 187, 15, 60, 4},
		{500, 440, 19, 152, 2},
		{1000, 942, 21, 336, 1},
	}
	for _, w := range want {
		p := DeriveMoPACD(w.trh)
		if d := p.A - w.a; d < -1 || d > 1 {
			t.Errorf("T=%d: A = %d, want %d (+-1)", w.trh, p.A, w.a)
		}
		if p.C != w.c || p.ATHStar != w.athStar || p.DrainOnREF != w.drain {
			t.Errorf("T=%d: got C=%d ATH*=%d drain=%d, want %d/%d/%d",
				w.trh, p.C, p.ATHStar, p.DrainOnREF, w.c, w.athStar, w.drain)
		}
		if p.TTH != TardinessThreshold || p.SRQSize != SRQEntries {
			t.Errorf("T=%d: TTH/SRQ defaults wrong: %+v", w.trh, p)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("T=%d: %v", w.trh, err)
		}
	}
}

func TestDerivePRACBaseline(t *testing.T) {
	p := DeriveWithP(VariantPRAC, 500, 1)
	if p.P != 1 || p.ATHStar != p.ATH || p.ATH != 472 {
		t.Fatalf("PRAC baseline wrong: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The failure probability at the chosen C must stay below epsilon for
// every threshold and both variants — the central security property.
func TestDerivedParamsRespectEpsilon(t *testing.T) {
	for _, trh := range []int{250, 500, 1000, 2000, 4000} {
		for _, v := range []Variant{VariantMoPACC, VariantMoPACD} {
			p := DeriveWithP(v, trh, DefaultP(trh))
			if p.UndercountP >= p.Epsilon {
				t.Errorf("%v T=%d: failure prob %.2e >= eps %.2e",
					v, trh, p.UndercountP, p.Epsilon)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("%v T=%d: %v", v, trh, err)
			}
		}
	}
}

// Halving p must never increase ATH* beyond the previous value times two
// and must keep the configuration secure — the §5.4 p-selection trade-off.
func TestSmallerPLowersUpdateRate(t *testing.T) {
	for _, trh := range []int{500, 1000} {
		base := DeriveWithP(VariantMoPACC, trh, DefaultP(trh))
		finer := DeriveWithP(VariantMoPACC, trh, DefaultP(trh)/2)
		if finer.C > base.C {
			t.Errorf("T=%d: halving p increased C from %d to %d", trh, base.C, finer.C)
		}
		if finer.UndercountP >= finer.Epsilon {
			t.Errorf("T=%d: finer p insecure", trh)
		}
	}
}

func TestVariantString(t *testing.T) {
	if VariantPRAC.String() != "PRAC" || VariantMoPACC.String() != "MoPAC-C" ||
		VariantMoPACD.String() != "MoPAC-D" {
		t.Fatal("variant names wrong")
	}
	if Variant(99).String() == "" {
		t.Fatal("unknown variant must still format")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	good := DeriveMoPACC(500)
	for _, mut := range []func(*Params){
		func(p *Params) { p.TRH = 0 },
		func(p *Params) { p.P = 0 },
		func(p *Params) { p.P = 1.5 },
		func(p *Params) { p.C = 0 },
		func(p *Params) { p.ATHStar = 5 },
		func(p *Params) { p.ATHStar = p.ATH + 1 },
	} {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted bad params %+v", p)
		}
	}
}

func TestAttackATHStarPaperValues(t *testing.T) {
	// Tables 9/10 use ATH* = (C+1)/p: 84/184/384 and 64/160/352.
	for trh, want := range map[int]int{250: 84, 500: 184, 1000: 384} {
		if got := DeriveMoPACC(trh).AttackATHStar(); got != want {
			t.Errorf("MoPAC-C attack ATH*(%d) = %d, want %d", trh, got, want)
		}
	}
	for trh, want := range map[int]int{250: 64, 500: 160, 1000: 352} {
		if got := DeriveMoPACD(trh).AttackATHStar(); got != want {
			t.Errorf("MoPAC-D attack ATH*(%d) = %d, want %d", trh, got, want)
		}
	}
}

// TestMTTFSensitivityIsLogarithmic: ε = √F and F is inversely
// proportional to the Bank-MTTF target (Equations 3 and 6), so a 100x
// harsher or laxer target scales ε by 10. Either must cost only a few
// critical updates, which is why the paper's conclusions are robust to
// the exact MTTF choice.
func TestMTTFSensitivityIsLogarithmic(t *testing.T) {
	ath, p, eps := MOATAlertThreshold(500), 1.0/8, Epsilon(500)
	c10k, prob10k := CriticalUpdates(ath, p, eps)
	c1m, prob1m := CriticalUpdates(ath, p, eps/10)
	c100, prob100 := CriticalUpdates(ath, p, eps*10)
	if def := DeriveMoPACC(500); c10k != def.C {
		t.Fatalf("10k-year C = %d, DeriveMoPACC C = %d", c10k, def.C)
	}
	if !(c1m < c10k && c10k < c100) {
		t.Fatalf("C not monotone in MTTF: %d/%d/%d", c1m, c10k, c100)
	}
	if c10k-c1m > 6 || c100-c10k > 6 {
		t.Fatalf("MTTF sensitivity too steep: %d/%d/%d", c1m, c10k, c100)
	}
	// Every derivation stays below its own epsilon.
	if prob1m >= eps/10 || prob10k >= eps || prob100 >= eps*10 {
		t.Fatalf("insecure at MTTF variant: %e/%e/%e", prob1m, prob10k, prob100)
	}
}
