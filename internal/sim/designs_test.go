package sim

import (
	"testing"

	"mopac/internal/dram"
	"mopac/internal/security"
	"mopac/internal/workload"
)

// The §9.2 empirical comparison: under the same double-sided hammer at
// the same per-REF mitigation budget, the worst-case unmitigated count
// ranks MoPAC-D far below MINT and PrIDE, and TRR is broken outright by
// a many-sided pattern.
func TestTrackerComparisonUnderAttack(t *testing.T) {
	maxOf := func(d Design) int {
		res := hammer(t, Config{Design: d, TRH: 500, Seed: 1}, workload.KindDoubleSided, 60_000)
		return res.MaxUnmitigated
	}
	mopacd := maxOf(DesignMoPACD)
	mint := maxOf(DesignMINT)
	pride := maxOf(DesignPrIDE)
	if !(mopacd < mint && mopacd < pride) {
		t.Fatalf("ranking broken: MoPAC-D=%d MINT=%d PrIDE=%d", mopacd, mint, pride)
	}
	// A short benign-length run cannot reach the trackers' MTTF-scale
	// worst case (Table 13's 1491/1975), but the excursions must stay
	// inside their design band and above MoPAC-D's ATH*-bounded peak.
	if mint > 4000 || pride > 4000 {
		t.Fatalf("low-cost trackers lost control: MINT=%d PrIDE=%d", mint, pride)
	}
}

func TestTRRBrokenByManySided(t *testing.T) {
	res := hammer(t, Config{Design: DesignTRR, TRH: 500, Seed: 1}, workload.KindTRRespass, 60_000)
	if res.Secure {
		t.Fatal("TRR must be broken by a many-sided pattern (TRRespass)")
	}
}

func TestTRRStopsSimpleDoubleSided(t *testing.T) {
	// TRR's one saving grace: a plain double-sided pair fits the
	// tracker and is mitigated every few REFs.
	res := hammer(t, Config{Design: DesignTRR, TRH: 4000, Seed: 1}, workload.KindDoubleSided, 60_000)
	if !res.Secure {
		t.Fatalf("TRR failed a 2-aggressor pattern at T=4000 (max %d)", res.MaxUnmitigated)
	}
}

// QPRAC backend: same protection as MOAT at drastically lower ABO rate
// under hammering (the §9.1 trade-off).
func TestQPRACBackendFewerABOs(t *testing.T) {
	moat := hammer(t, Config{Design: DesignPRAC, TRH: 500, Seed: 1}, workload.KindDoubleSided, 50_000)
	qprac := hammer(t, Config{Design: DesignQPRAC, TRH: 500, Seed: 1}, workload.KindDoubleSided, 50_000)
	if !moat.Secure || !qprac.Secure {
		t.Fatalf("both PRAC backends must hold: moat=%v qprac=%v", moat.Secure, qprac.Secure)
	}
	if qprac.Alerts*4 > moat.Alerts {
		t.Fatalf("QPRAC alerts %d not clearly below MOAT's %d", qprac.Alerts, moat.Alerts)
	}
	if qprac.Mitigations == 0 {
		t.Fatal("QPRAC performed no mitigations")
	}
}

// QPRAC on benign workloads behaves like PRAC (same timings dominate).
func TestQPRACBenignPerformanceMatchesMOAT(t *testing.T) {
	run := func(d Design) Result {
		return mustRun(t, Config{Design: d, TRH: 500, Workload: "mcf", InstrPerCore: 100_000, Seed: 1})
	}
	moat, qprac := run(DesignPRAC), run(DesignQPRAC)
	d := Slowdown(moat, qprac)
	if d > 0.02 || d < -0.02 {
		t.Fatalf("QPRAC vs MOAT benign delta %.3f, want ~0", d)
	}
}

func TestNewDesignsRunBenignWorkloads(t *testing.T) {
	for _, d := range []Design{DesignTRR, DesignMINT, DesignPrIDE} {
		res := mustRun(t, Config{Design: d, TRH: 1000, Workload: "add", InstrPerCore: 80_000, Seed: 1})
		if res.MC.Reads == 0 {
			t.Fatalf("%v: no reads", d)
		}
		if res.Dev.Alerts != 0 {
			t.Fatalf("%v must never use ABO", d)
		}
	}
}

func TestNewDesignStrings(t *testing.T) {
	if DesignTRR.String() != "TRR" || DesignMINT.String() != "MINT" || DesignPrIDE.String() != "PrIDE" {
		t.Fatal("design names wrong")
	}
}

func TestRFMLevelSensitivity(t *testing.T) {
	// Higher RFM levels drain more SRQ entries per ABO but stall longer;
	// both must run and stay secure under attack.
	zero := 0
	l1 := hammer(t, Config{Design: DesignMoPACD, TRH: 500, Chips: 1, DrainOnREF: &zero, Seed: 1}, workload.KindSRQFill, 40_000)
	l2 := hammer(t, Config{Design: DesignMoPACD, TRH: 500, Chips: 1, DrainOnREF: &zero, RFMLevel: 2, Seed: 1}, workload.KindSRQFill, 40_000)
	if !l1.Secure || !l2.Secure {
		t.Fatal("both RFM levels must stay secure")
	}
	if l2.Alerts >= l1.Alerts {
		t.Fatalf("level 2 should need fewer ABO episodes: %d vs %d", l2.Alerts, l1.Alerts)
	}
}

func TestRefreshPostponementEndToEnd(t *testing.T) {
	cfg := Config{Design: DesignBaseline, Workload: "bwaves", InstrPerCore: 100_000, Seed: 1}
	strict := mustRun(t, cfg)
	cfg.MaxPostponedREFs = 4
	postponed := mustRun(t, cfg)
	// Postponement must not lose refreshes wholesale over the run.
	if d := strict.Dev.Refreshes - postponed.Dev.Refreshes; d < -8 || d > 8 {
		t.Fatalf("refresh counts diverge: strict %d vs postponed %d", strict.Dev.Refreshes, postponed.Dev.Refreshes)
	}
	// And should never hurt throughput meaningfully.
	if s := Slowdown(strict, postponed); s > 0.01 {
		t.Fatalf("postponement slowed the system by %.3f", s)
	}
}

func TestOverheadsExperiment(t *testing.T) {
	r := NewRunner(Scale{InstrPerCore: 100_000, Workloads: []string{"mcf"}, Seed: 1})
	rows, err := r.Overheads(500)
	if err != nil {
		t.Fatal(err)
	}
	byDesign := map[Design]OverheadRow{}
	for _, row := range rows {
		byDesign[row.Design] = row
	}
	// PRAC updates on ~every ACT; MoPAC-C on ~1/8 of them; MoPAC-D's
	// deferred updates land near the sampling rate too.
	if byDesign[DesignPRAC].CUPer100ACT < 90 {
		t.Fatalf("PRAC CU rate %.1f, want ~100", byDesign[DesignPRAC].CUPer100ACT)
	}
	if c := byDesign[DesignMoPACC].CUPer100ACT; c < 8 || c > 18 {
		t.Fatalf("MoPAC-C CU rate %.1f, want ~12.5", c)
	}
	if c := byDesign[DesignMoPACD].CUPer100ACT; c < 8 || c > 18 {
		t.Fatalf("MoPAC-D CU rate %.1f, want ~12.5", c)
	}
}

// The latency distribution localises PRAC's damage: the *median* read —
// a row-buffer conflict paying the inflated tRP in its critical path —
// inflates strongly, while the P99 tail (requests parked behind a
// 410 ns refresh in either configuration) barely moves. This is why
// MoPAC only needs to fix the common case.
func TestPRACLatencyDistributionShape(t *testing.T) {
	base := mustRun(t, Config{Design: DesignBaseline, Workload: "mcf", InstrPerCore: 150_000, Seed: 1})
	prac := mustRun(t, Config{Design: DesignPRAC, TRH: 500, Workload: "mcf", InstrPerCore: 150_000, Seed: 1})
	if base.Latency.Count == 0 || prac.Latency.Count == 0 {
		t.Fatal("no latency samples")
	}
	p50Infl := float64(prac.Latency.P50) / float64(base.Latency.P50)
	p99Infl := float64(prac.Latency.P99) / float64(base.Latency.P99)
	if p50Infl < 1.2 {
		t.Fatalf("median inflation %.2f too small; conflicts should pay the tRP delta", p50Infl)
	}
	if p99Infl > p50Infl {
		t.Fatalf("P99 inflation %.2f should not exceed the median's %.2f (tail is REF-bound)", p99Infl, p50Infl)
	}
	// The refresh-bound tail sits far above the conflict path in both.
	if base.Latency.P99 < 3*base.Latency.P50 {
		t.Fatalf("baseline tail %d not REF-dominated (median %d)", base.Latency.P99, base.Latency.P50)
	}
}

// End-to-end protocol compliance: every command the controller issued
// over a busy run passes the independent offline checker, for the
// timing-trickiest design (MoPAC-C's mixed PRE/PREcu) and for PRAC.
func TestControllerProtocolCompliance(t *testing.T) {
	for _, d := range []Design{DesignMoPACC, DesignPRAC, DesignBaseline} {
		cfg := Config{
			Design: d, TRH: 500, Workload: "mcf",
			InstrPerCore: 80_000, Seed: 1, CommandLogDepth: 1 << 17,
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(0); err != nil {
			t.Fatal(err)
		}
		for i, dev := range sys.Devices() {
			log := dev.CommandLog()
			if len(log) == 0 {
				t.Fatalf("%v: empty command log", d)
			}
			if err := dram.CheckProtocol(log, dev.Timing()); err != nil {
				t.Fatalf("%v subchannel %d: %v", d, i, err)
			}
		}
	}
}

// The §5.2 handshake end to end: after wiring a MoPAC-C system, the
// DRAM mode register's p matches the derived security parameters.
func TestMoPACCModeRegisterHandshake(t *testing.T) {
	sys, err := NewSystem(Config{Design: DesignMoPACC, TRH: 500, Workload: "add", InstrPerCore: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := security.DeriveMoPACC(500).UpdateWeight()
	for i, dev := range sys.Devices() {
		code := dev.ModeRegister(dram.MRMoPACPMenu)
		if got := 2 << code; got != want {
			t.Fatalf("subchannel %d: MR decodes to 1/%d, params use 1/%d", i, got, want)
		}
	}
}

// Chronos (§9.1): concurrent counter updates remove the tRP inflation,
// so low-activation-rate latency-bound workloads run nearly free where
// PRAC pays its full toll; the doubled tFAW instead throttles
// activation-dense workloads — exactly the "significant restrictions on
// concurrent activations" the paper uses to set Chronos aside.
func TestChronosTradeoff(t *testing.T) {
	slowOf := func(d Design, wl string) float64 {
		base := mustRun(t, quickCfg(DesignBaseline, wl))
		res := mustRun(t, quickCfg(d, wl))
		return Slowdown(base, res)
	}
	// xalancbmk: ~3 ACTs per bank per tREFI, far from the tFAW bound,
	// but 47% of its reads conflict — PRAC hurts, Chronos does not.
	chronosLight := slowOf(DesignChronos, "xalancbmk")
	pracLight := slowOf(DesignPRAC, "xalancbmk")
	if chronosLight > pracLight/2 {
		t.Fatalf("Chronos on xalancbmk %.3f should be far below PRAC %.3f", chronosLight, pracLight)
	}
	// mcf: activation-dense; the doubled tFAW bites hard.
	chronosDense := slowOf(DesignChronos, "mcf")
	if chronosDense < 0.03 {
		t.Fatalf("Chronos tFAW throttle invisible on mcf: %.3f", chronosDense)
	}
}

func TestChronosSecure(t *testing.T) {
	res := hammer(t, Config{Design: DesignChronos, TRH: 500, Seed: 1}, workload.KindDoubleSided, 40_000)
	if !res.Secure {
		t.Fatalf("Chronos broken: max %d", res.MaxUnmitigated)
	}
}

// The MOAT slippage bound: under a worst-case hammer, the maximum
// unmitigated count stays within ATH plus the activations an attacker
// can slip in during the ALERT grace window — the arithmetic behind
// Table 2's ATH < T_RH gaps.
func TestMOATSlippageBound(t *testing.T) {
	res := hammer(t, Config{Design: DesignPRAC, TRH: 500, Seed: 1}, workload.KindDoubleSided, 60_000)
	ath := security.MOATAlertThreshold(500)
	graceACTs := int(180/46) + 2 // ALERT grace window plus drain slack
	if res.MaxUnmitigated > ath+graceACTs {
		t.Fatalf("slippage %d beyond ATH %d + %d", res.MaxUnmitigated, ath, graceACTs)
	}
	if res.MaxUnmitigated < ath {
		t.Fatalf("hammer never reached ATH (%d < %d); bound untested", res.MaxUnmitigated, ath)
	}
}
