package sim

import (
	"encoding/json"
	"math"
	"testing"

	"mopac/internal/cpu"
	"mopac/internal/mc"
)

// cpuAccess aliases the core access type for local test sources.
type cpuAccess = cpu.Access

// quickCfg returns a small but meaningful run.
func quickCfg(d Design, wl string) Config {
	return Config{Design: d, TRH: 500, Workload: wl, InstrPerCore: 120_000, Seed: 1}
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineRunCompletes(t *testing.T) {
	res := mustRun(t, quickCfg(DesignBaseline, "mcf"))
	if len(res.IPC) != 8 {
		t.Fatalf("IPC entries = %d, want 8", len(res.IPC))
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 || ipc > 8 {
			t.Fatalf("core %d IPC = %v out of (0, 8]", i, ipc)
		}
	}
	if res.MC.Reads == 0 || res.Dev.Activates == 0 {
		t.Fatalf("no memory activity: %+v", res.MC)
	}
	if res.Dev.Refreshes == 0 {
		t.Fatal("no refreshes over the run")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, quickCfg(DesignMoPACD, "xz"))
	b := mustRun(t, quickCfg(DesignMoPACD, "xz"))
	if a.SumIPC != b.SumIPC || a.TimeNs != b.TimeNs || a.Dev != b.Dev {
		t.Fatal("identical configs must give identical results")
	}
	c := mustRun(t, Config{Design: DesignMoPACD, TRH: 500, Workload: "xz", InstrPerCore: 120_000, Seed: 2})
	if a.TimeNs == c.TimeNs && a.SumIPC == c.SumIPC {
		t.Fatal("different seeds should perturb the run")
	}
}

// The paper's central result at guardrail strength: PRAC slows the
// system down substantially, MoPAC-C recovers most of it, and MoPAC-D
// with drain-on-REF recovers almost all of it.
func TestDesignOrderingOnLatencyBoundWorkload(t *testing.T) {
	base := mustRun(t, quickCfg(DesignBaseline, "mcf"))
	prac := mustRun(t, quickCfg(DesignPRAC, "mcf"))
	mopc := mustRun(t, quickCfg(DesignMoPACC, "mcf"))
	mopd := mustRun(t, quickCfg(DesignMoPACD, "mcf"))

	sPRAC := Slowdown(base, prac)
	sC := Slowdown(base, mopc)
	sD := Slowdown(base, mopd)
	if sPRAC < 0.06 {
		t.Fatalf("PRAC slowdown %.3f too small for a latency-bound workload", sPRAC)
	}
	if !(sC < sPRAC/2) {
		t.Fatalf("MoPAC-C %.3f must recover most of PRAC's %.3f", sC, sPRAC)
	}
	if !(sD <= sC+0.005) {
		t.Fatalf("MoPAC-D %.3f should not exceed MoPAC-C %.3f at T=500", sD, sC)
	}
	if sD > 0.01 {
		t.Fatalf("MoPAC-D slowdown %.3f too large at T=500", sD)
	}
}

func TestStreamWorkloadUnaffectedByPRAC(t *testing.T) {
	base := mustRun(t, quickCfg(DesignBaseline, "add"))
	prac := mustRun(t, quickCfg(DesignPRAC, "add"))
	if s := Slowdown(base, prac); math.Abs(s) > 0.02 {
		t.Fatalf("stream slowdown under PRAC = %.3f, want ~0 (bandwidth-bound)", s)
	}
	if base.RBHR() < 0.6 {
		t.Fatalf("stream RBHR = %.2f, want high", base.RBHR())
	}
}

func TestPRACUsesCounterUpdatePrecharges(t *testing.T) {
	res := mustRun(t, quickCfg(DesignPRAC, "mcf"))
	if res.Dev.Precharges != 0 {
		t.Fatalf("PRAC issued %d plain PREs", res.Dev.Precharges)
	}
	if res.Dev.PrechargesCU == 0 {
		t.Fatal("PRAC issued no PREcu")
	}
}

func TestMoPACCPrechargeMix(t *testing.T) {
	res := mustRun(t, quickCfg(DesignMoPACC, "mcf"))
	total := res.Dev.Precharges + res.Dev.PrechargesCU
	frac := float64(res.Dev.PrechargesCU) / float64(total)
	// p = 1/8 at T=500.
	if frac < 0.06 || frac > 0.20 {
		t.Fatalf("PREcu fraction %.3f, want ~1/8", frac)
	}
}

func TestMoPACDInsertionRateTable12(t *testing.T) {
	res := mustRun(t, quickCfg(DesignMoPACD, "mcf"))
	rate := res.SRQInsertionsPer100ACTs()
	if math.Abs(rate-12.5) > 1.0 {
		t.Fatalf("SRQ insertions per 100 ACTs = %.2f, want 12.5 (p=1/8)", rate)
	}
	nup := quickCfg(DesignMoPACD, "mcf")
	nup.NUP = true
	resN := mustRun(t, nup)
	rateN := resN.SRQInsertionsPer100ACTs()
	if rateN > rate*0.70 {
		t.Fatalf("NUP insertion rate %.2f should be well below uniform %.2f", rateN, rate)
	}
}

func TestMoPACDChipsReplicate(t *testing.T) {
	cfg := quickCfg(DesignMoPACD, "mcf")
	cfg.Chips = 2
	res2 := mustRun(t, cfg)
	cfg.Chips = 4
	res4 := mustRun(t, cfg)
	// SRQ activations aggregate over chips, so 4 chips see ~2x the
	// events of 2 chips.
	ratio := float64(res4.SRQ.Activations) / float64(res2.SRQ.Activations)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("chip replication ratio %.2f, want ~2", ratio)
	}
}

func TestDrainOverrideZeroForcesABOs(t *testing.T) {
	zero := 0
	cfg := quickCfg(DesignMoPACD, "lbm")
	cfg.TRH = 250
	cfg.DrainOnREF = &zero
	res := mustRun(t, cfg)
	if res.Dev.Alerts == 0 {
		t.Fatal("drain-on-REF=0 at T=250 must trigger ABOs")
	}
	cfg.DrainOnREF = nil
	withDrain := mustRun(t, cfg)
	if withDrain.Dev.Alerts >= res.Dev.Alerts {
		t.Fatalf("drain-on-REF must reduce ABOs: %d vs %d", withDrain.Dev.Alerts, res.Dev.Alerts)
	}
}

func TestSecurityOracleCleanOnBenignWorkload(t *testing.T) {
	cfg := quickCfg(DesignMoPACD, "parest")
	cfg.TrackSecurity = true
	res := mustRun(t, cfg)
	if res.Oracle == nil {
		t.Fatal("oracle missing")
	}
	if !res.Oracle.Secure() {
		t.Fatalf("benign workload flagged insecure: %v", res.Oracle.Violations())
	}
}

func TestClosePagePolicyWired(t *testing.T) {
	open := mustRun(t, quickCfg(DesignBaseline, "mcf"))
	cfg := quickCfg(DesignBaseline, "mcf")
	cfg.Policy = mc.ClosePage
	closed := mustRun(t, cfg)
	// Close-page loses the open-row reuse beyond same-burst hits (the
	// scheduler still services queued hits before the auto-precharge),
	// so RBHR drops but does not reach zero.
	if closed.RBHR() >= open.RBHR()-0.03 {
		t.Fatalf("close-page RBHR %.2f should be clearly below open-page %.2f",
			closed.RBHR(), open.RBHR())
	}
}

func TestRowPressConfigsRun(t *testing.T) {
	for _, d := range []Design{DesignMoPACC, DesignMoPACD} {
		cfg := quickCfg(d, "mcf")
		cfg.RowPress = true
		res := mustRun(t, cfg)
		if res.MC.Reads == 0 {
			t.Fatalf("%v RowPress run produced no reads", d)
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := NewSystem(Config{Design: DesignBaseline, Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestUnknownDesignRejected(t *testing.T) {
	if _, err := NewSystem(Config{Design: Design(42), Workload: "mcf"}); err == nil {
		t.Fatal("unknown design accepted")
	}
}

func TestDesignString(t *testing.T) {
	names := map[Design]string{
		DesignBaseline: "Baseline", DesignPRAC: "PRAC",
		DesignMoPACC: "MoPAC-C", DesignMoPACD: "MoPAC-D",
		DesignTRR: "TRR", DesignMINT: "MINT",
		DesignPrIDE: "PrIDE", DesignChronos: "Chronos",
	}
	for d, want := range names {
		if d.String() != want {
			t.Fatalf("%v != %s", d, want)
		}
	}
	if Design(99).String() == "" {
		t.Fatal("unknown design must format")
	}
}

// TestTimeNsIsLastRetirement: a run stops at the event that retires
// its last core, for every registered design, so TimeNs is the latest
// core's FinishedAt.
func TestTimeNsIsLastRetirement(t *testing.T) {
	for _, d := range Designs() {
		for _, wl := range []string{"mcf", "add"} {
			sys, err := NewSystem(Config{Design: d, Workload: wl, InstrPerCore: 20_000, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(0)
			if err != nil {
				t.Fatalf("%v/%s: %v", d, wl, err)
			}
			var last int64
			for _, c := range sys.cores {
				last = max(last, c.Stats().FinishedAt)
			}
			if res.TimeNs != last {
				t.Errorf("%v/%s: TimeNs %d, latest FinishedAt %d", d, wl, res.TimeNs, last)
			}
			sys.Release()
		}
	}
}

func TestRunCapReturnsError(t *testing.T) {
	sys, err := NewSystem(Config{Design: DesignBaseline, Workload: "mcf", InstrPerCore: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(1000); err == nil {
		t.Fatal("tiny time cap must fail the run")
	}
}

func TestResultSummaryJSON(t *testing.T) {
	cfg := quickCfg(DesignMoPACD, "mcf")
	cfg.TrackSecurity = true
	res := mustRun(t, cfg)
	s := res.Summary()
	if s.Design != "MoPAC-D" || s.Workload != "mcf" || s.TRH != 500 {
		t.Fatalf("summary identity: %+v", s)
	}
	if s.Secure == nil || !*s.Secure {
		t.Fatal("oracle verdict missing from summary")
	}
	if s.SumIPC <= 0 || s.Reads == 0 || s.AvgLatencyNs <= 0 || s.P99LatencyNs < s.P50LatencyNs {
		t.Fatalf("summary stats: %+v", s)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back ResultSummary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Design != s.Design || back.P99LatencyNs != s.P99LatencyNs {
		t.Fatal("summary does not round-trip")
	}
}

// Trace replay path: an externally attached core driven through
// System.Submit/AttachCore behaves like a built-in core.
func TestAttachCoreAndSubmit(t *testing.T) {
	sys, err := NewSystem(Config{Design: DesignBaseline, TRH: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mapper() == nil || len(sys.Controllers()) != 2 || sys.Engine() == nil {
		t.Fatal("accessors broken")
	}
	if sys.Oracle() != nil {
		t.Fatal("oracle attached without TrackSecurity")
	}
	src := &fixedSource{n: 200}
	core, err := sys.AttachCore(src, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Done() || res.TimeNs != core.Stats().FinishedAt {
		t.Fatalf("run stopped at %d ns; core done %v at %d ns", res.TimeNs, core.Done(), core.Stats().FinishedAt)
	}
	if core.Stats().Misses == 0 {
		t.Fatal("attached core issued no misses")
	}
	// Direct Submit also works (read and write).
	done := 0
	sys.Submit(0, false, func(int64) { done++ })
	sys.Submit(1<<20, true, func(int64) { done++ })
	sys.Engine().RunUntil(sys.Engine().Now() + 10_000)
	if done != 2 {
		t.Fatalf("Submit completions = %d, want 2", done)
	}
}

// fixedSource emits n evenly spaced independent reads.
type fixedSource struct{ n, i int }

func (f *fixedSource) Next() (cpuAccess, bool) {
	if f.i >= f.n {
		return cpuAccess{}, false
	}
	f.i++
	return cpuAccess{Gap: 50, Addr: int64(f.i) * 4096}, true
}

func TestZeroDivisionGuards(t *testing.T) {
	var r Result
	if r.RBHR() != 0 || r.SRQInsertionsPer100ACTs() != 0 ||
		r.CounterUpdatesPer100ACTs() != 0 || r.ABOStallFraction() != 0 {
		t.Fatal("zero-value result must read as zeros")
	}
	if Slowdown(Result{}, Result{}) != 0 {
		t.Fatal("zero-baseline slowdown must be 0")
	}
	if AttackSlowdown(AttackResult{}, AttackResult{}) != 0 {
		t.Fatal("zero-baseline attack slowdown must be 0")
	}
}
