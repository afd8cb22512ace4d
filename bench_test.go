// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each
// benchmark regenerates its artifact at a reduced scale and reports the
// headline quantity as a custom metric, so `go test -bench=.` doubles as
// a smoke reproduction of the full evaluation. EXPERIMENTS.md is
// generated at full scale by cmd/mopac-experiments.
package mopac

import (
	"testing"

	"mopac/internal/mitigation"
	"mopac/internal/security"
	"mopac/internal/sim"
)

// benchScale keeps each benchmark iteration to roughly a second.
func benchScale() sim.Scale {
	return sim.Scale{
		InstrPerCore: 100_000,
		Workloads:    []string{"mcf", "xz", "add"},
		AttackActs:   30_000,
		Seed:         1,
	}
}

func reportAvg(b *testing.B, name string, tbl sim.SlowdownTable, idx int) {
	b.Helper()
	avg := tbl.Averages()
	if idx < len(avg) {
		b.ReportMetric(100*avg[idx], name)
	}
}

func BenchmarkFig1dSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchScale())
		tbl, err := r.Fig1d()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "prac_slowdown_%", tbl, 0)
		reportAvg(b, "mopacD500_slowdown_%", tbl, 7)
	}
}

func BenchmarkFig2PRACSlowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchScale())
		tbl, err := r.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "prac500_slowdown_%", tbl, 1)
	}
}

func BenchmarkTable2MOATATH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ath := security.Table2()
		if ath[500] != 472 {
			b.Fatal("ATH drift")
		}
	}
}

func BenchmarkTable4Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchScale())
		rows, err := r.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable5FailureBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(security.Table5()) != 3 {
			b.Fatal("table drift")
		}
	}
}

func BenchmarkTable6UndercountProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := security.Table6(20, 25)
		if len(rows) != 6 {
			b.Fatal("table drift")
		}
	}
}

func BenchmarkTable7MoPACCParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, trh := range []int{250, 500, 1000} {
			if p := security.DeriveMoPACC(trh); p.C <= 0 {
				b.Fatal("derivation failed")
			}
		}
	}
}

func BenchmarkFig9MoPACC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchScale())
		tbl, err := r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "mopacC500_slowdown_%", tbl, 2)
	}
}

func BenchmarkTable8MoPACDParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, trh := range []int{250, 500, 1000} {
			if p := security.DeriveMoPACD(trh); p.C <= 0 {
				b.Fatal("derivation failed")
			}
		}
	}
}

func BenchmarkFig11MoPACD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchScale())
		tbl, err := r.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "mopacD500_slowdown_%", tbl, 2)
	}
}

func BenchmarkFig12DrainOnREF(b *testing.B) {
	sc := benchScale()
	sc.Workloads = []string{"lbm"}
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(sc)
		tbl, err := r.Fig12(500)
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "drain0_slowdown_%", tbl, 0)
		reportAvg(b, "drain2_slowdown_%", tbl, 2)
	}
}

func BenchmarkFig13SRQSize(b *testing.B) {
	sc := benchScale()
	sc.Workloads = []string{"lbm"}
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(sc)
		tbl, err := r.Fig13(250)
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "srq8_slowdown_%", tbl, 0)
		reportAvg(b, "srq32_slowdown_%", tbl, 2)
	}
}

func BenchmarkTable9AttackMoPACC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchScale())
		rows, err := r.AttacksMoPACC(500)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].Slowdown, "sim_slowdown_%")
		b.ReportMetric(100*rows[0].Model, "model_slowdown_%")
	}
}

func BenchmarkTable10AttackMoPACD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchScale())
		rows, err := r.AttacksMoPACD(500)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if !row.Secure {
				b.Fatal("attack broke MoPAC-D")
			}
		}
	}
}

func BenchmarkTable11NUPParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if p := security.DeriveNUP(500); p.ATHStar != 136 {
			b.Fatal("NUP drift")
		}
	}
}

func BenchmarkFig17NUP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchScale())
		tbl, err := r.Fig17()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "nup250_slowdown_%", tbl, 5)
	}
}

func BenchmarkTable12SRQInsertions(b *testing.B) {
	sc := benchScale()
	sc.Workloads = []string{"mcf"}
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(sc)
		rows, err := r.Table12()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.TRH == 500 {
				b.ReportMetric(row.Uniform, "uniform_per100")
				b.ReportMetric(row.NUP, "nup_per100")
			}
		}
	}
}

func BenchmarkTable13RelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := security.Table13()
		if rows[0].MoPACD != 250 {
			b.Fatal("table drift")
		}
	}
}

func BenchmarkFig18RowPress(b *testing.B) {
	sc := benchScale()
	sc.Workloads = []string{"mcf"}
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(sc)
		tbl, err := r.Fig18()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "cRP500_slowdown_%", tbl, 3)
	}
}

func BenchmarkFig19ChipCount(b *testing.B) {
	sc := benchScale()
	sc.Workloads = []string{"lbm"}
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(sc)
		tbl, err := r.Fig19(250)
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "chips16_slowdown_%", tbl, 4)
	}
}

func BenchmarkTable15RowClosure(b *testing.B) {
	sc := benchScale()
	sc.Workloads = []string{"mcf"}
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(sc)
		tbl, err := r.Table15()
		if err != nil {
			b.Fatal(err)
		}
		reportAvg(b, "pracClose_slowdown_%", tbl, 4)
	}
}

func BenchmarkSecurityValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchScale())
		rows, err := r.SecurityValidation(500)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Design != Baseline && !row.Secure {
				b.Fatalf("%v broken by %s", row.Design, row.Pattern)
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed on a busy
// baseline system. Iteration i runs seed i+1, so -benchtime=5x covers
// the runs TestThroughputGolden pins; simNs/op is their mean simulated
// time.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var simNs int64
	for i := 0; i < b.N; i++ {
		res, err := simulatorThroughputRun(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		simNs += res.TimeNs
	}
	b.ReportMetric(float64(simNs)/float64(b.N), "simNs/op")
}

// BenchmarkHammerThroughput measures attack-mode simulation speed: the
// inner loop of the mopac-attack search. Iteration i runs seed i+1, so
// -benchtime=5x covers the runs TestThroughputGolden pins; hammerNs/op
// is their mean simulated attack duration.
func BenchmarkHammerThroughput(b *testing.B) {
	b.ReportAllocs()
	var simNs int64
	for i := 0; i < b.N; i++ {
		res, err := hammerThroughputRun(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Secure {
			b.Fatal("insecure")
		}
		simNs += res.TimeNs
	}
	b.ReportMetric(float64(simNs)/float64(b.N), "hammerNs/op")
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out ---

// BenchmarkAblationMINTvsPARA quantifies footnote 6: the maximum gap
// between consecutive selections, which MINT bounds and PARA does not.
func BenchmarkAblationMINTvsPARA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range []mitigation.Sampler{mitigation.SamplerMINT, mitigation.SamplerPARA} {
			cfg := mitigation.MoPACDFromParams(security.DeriveMoPACD(500), 1<<16, false, uint64(i+1))
			cfg.Sampler = s
			cfg.DrainOnREF = 16
			g := mitigation.NewMoPACD(cfg)
			maxGap, last, prev := 0, 0, int64(0)
			for act := 1; act <= 50_000; act++ {
				g.Activate(0, act%4096)
				cur := g.Stats().Insertions + g.Stats().Coalesced
				if cur > prev {
					if gap := act - last; gap > maxGap {
						maxGap = gap
					}
					last, prev = act, cur
				}
				if act%64 == 0 {
					g.Refresh(0)
				}
			}
			name := "mint_max_gap"
			if s == mitigation.SamplerPARA {
				name = "para_max_gap"
			}
			b.ReportMetric(float64(maxGap), name)
		}
	}
}

// BenchmarkAblationNUP3 compares the footnote-7 three-level NUP
// derivation against the shipped two-level design.
func BenchmarkAblationNUP3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := security.DefaultP(500)
		ath := security.MOATAlertThreshold(500)
		eps := security.Epsilon(500)
		c2, _ := security.NUPCriticalUpdates(ath, p/2, p, eps)
		c3, _ := security.NUP3CriticalUpdates(ath, p/2, p, 2*p, c2/2, eps)
		b.ReportMetric(float64(c2)/p, "nup2_athstar")
		b.ReportMetric(float64(c3)/p, "nup3_athstar")
	}
}

// BenchmarkAblationTriggerOnExceed contrasts the trigger-on-exceed ABO
// convention (counter > ATH*, the paper's Tables 9/10) against
// trigger-at (counter >= ATH*): the attack model's sustained ACTs per
// ABO differ by exactly one update weight.
func BenchmarkAblationTriggerOnExceed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := security.DeriveMoPACD(500)
		exceed := security.MultiBankAttackSlowdown(p.AttackATHStar(), security.DefaultAlpha)
		at := security.MultiBankAttackSlowdown(p.ATHStar, security.DefaultAlpha)
		b.ReportMetric(100*exceed, "exceed_attack_%")
		b.ReportMetric(100*at, "at_attack_%")
	}
}

// BenchmarkAblationPSweep explores the §5.4 p-selection trade-off for
// MoPAC-C at T_RH = 500.
func BenchmarkAblationPSweep(b *testing.B) {
	sc := benchScale()
	sc.Workloads = []string{"mcf"}
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(sc)
		rows, err := r.PSweepMoPACC(500, 2, 4, 8, 16)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Valid && row.InvP == 2 {
				b.ReportMetric(100*row.Slowdown, "p_half_slowdown_%")
			}
			if row.Valid && row.InvP == 16 {
				b.ReportMetric(100*row.Slowdown, "p_16th_slowdown_%")
			}
		}
	}
}
