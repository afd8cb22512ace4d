package mopac

import (
	"math"
	"testing"
)

func TestDeriveParamsPaperValues(t *testing.T) {
	c := DeriveParams(VariantMoPACC, 500)
	if c.P != 1.0/8 || c.C != 22 || c.ATHStar != 176 {
		t.Fatalf("MoPAC-C params: %+v", c)
	}
	d := DeriveParams(VariantMoPACD, 500)
	if d.P != 1.0/8 || d.C != 19 || d.ATHStar != 152 || d.DrainOnREF != 2 {
		t.Fatalf("MoPAC-D params: %+v", d)
	}
	pr := DeriveParams(VariantPRAC, 500)
	if pr.P != 1 || pr.ATHStar != 472 {
		t.Fatalf("PRAC params: %+v", pr)
	}
	if n := NUPParams(500); n.ATHStar != 136 {
		t.Fatalf("NUP ATH* = %d, want 136", n.ATHStar)
	}
	if rp := RowPressParams(VariantMoPACC, 500); rp.ATHStar != 80 {
		t.Fatalf("RowPress MoPAC-C ATH* = %d, want 80", rp.ATHStar)
	}
}

func TestEpsilonAndBudget(t *testing.T) {
	if e := Epsilon(500); math.Abs(e-8.48e-9)/8.48e-9 > 0.01 {
		t.Fatalf("eps(500) = %e", e)
	}
	if f := FailureBudget(500); math.Abs(f-7.19e-17)/7.19e-17 > 0.01 {
		t.Fatalf("F(500) = %e", f)
	}
}

func TestWorkloadsList(t *testing.T) {
	if len(Workloads()) != 23 {
		t.Fatalf("workloads = %d", len(Workloads()))
	}
}

func TestSimulateAndCompare(t *testing.T) {
	cfg := Config{Design: MoPACD, TRH: 500, Workload: "mcf", InstrPerCore: 100_000, Seed: 1}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SumIPC <= 0 {
		t.Fatal("no throughput")
	}
	slow, base, prot, err := CompareToBaseline(Config{
		Design: PRAC, TRH: 500, Workload: "mcf", InstrPerCore: 100_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow < 0.05 {
		t.Fatalf("PRAC slowdown = %.3f, want noticeable", slow)
	}
	if base.SumIPC <= prot.SumIPC {
		t.Fatal("baseline must outperform PRAC")
	}
}

func TestHammerVerdicts(t *testing.T) {
	base, err := Hammer(Config{Design: Baseline, TRH: 500, Seed: 1}, PatternDoubleSided, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	if base.Secure {
		t.Fatal("baseline must be broken by a double-sided hammer")
	}
	prot, err := Hammer(Config{Design: MoPACD, TRH: 500, Seed: 1}, PatternDoubleSided, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	if !prot.Secure {
		t.Fatal("MoPAC-D must stop the double-sided hammer")
	}
	if loss := AttackThroughputLoss(base, prot); loss < -0.05 || loss > 0.5 {
		t.Fatalf("throughput loss = %.3f out of range", loss)
	}
}

func TestModelAttackSlowdownTable10(t *testing.T) {
	p := DeriveParams(VariantMoPACD, 500)
	if got := ModelAttackSlowdown(p, AttackSRQFull); math.Abs(got-0.149) > 0.002 {
		t.Fatalf("SRQ attack model = %.3f, want 0.149", got)
	}
	if got := ModelAttackSlowdown(p, AttackTardiness); math.Abs(got-0.179) > 0.002 {
		t.Fatalf("TTH attack model = %.3f, want 0.179", got)
	}
}

func TestExperimentsFacade(t *testing.T) {
	ex := NewExperiments(Scale{InstrPerCore: 80_000, Workloads: []string{"add"}, Seed: 1})
	tbl, err := ex.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestNewDesignsExposed(t *testing.T) {
	for _, d := range []Design{TRR, MINT, PrIDE, Chronos} {
		res, err := Simulate(Config{Design: d, TRH: 1000, Workload: "add", InstrPerCore: 50_000, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.SumIPC <= 0 {
			t.Fatalf("%v: no throughput", d)
		}
	}
	// QPRAC backend reachable through the facade.
	res, err := Simulate(Config{Design: QPRAC, TRH: 500, Workload: "add", InstrPerCore: 50_000, Seed: 1})
	if err != nil || res.SumIPC <= 0 {
		t.Fatalf("QPRAC facade: %v %v", res.SumIPC, err)
	}
}
