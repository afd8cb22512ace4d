package mc

import (
	"math/rand/v2"
	"testing"

	"mopac/internal/dram"
	"mopac/internal/event"
	"mopac/internal/timing"
)

type rig struct {
	eng *event.Engine
	dev *dram.Device
	c   *Controller
}

func newRig(t *testing.T, cfg Config, devCfg dram.Config) *rig {
	t.Helper()
	if devCfg.Banks == 0 {
		devCfg.Banks = 4
	}
	if devCfg.Rows == 0 {
		devCfg.Rows = 1 << 16
	}
	devCfg.Timing = cfg.Timing
	dev, err := dram.NewDevice(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := event.NewEngine()
	c, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, dev: dev, c: c}
}

// run drains the engine up to a deadline.
func (r *rig) run(deadline int64) { r.eng.RunUntil(deadline) }

// atDone returns a Done callback that runs fn at the reported
// completion instant, for tests that enqueue more work on completion
// (Done itself must not re-enter the controller).
func (r *rig) atDone(fn func()) event.Func {
	return func(_ any, doneAt int64) {
		r.eng.AtFunc(doneAt, func(any, int64) { fn() }, nil, 0)
	}
}

// read enqueues a read and returns a pointer to its completion time
// (-1 until served).
func (r *rig) read(bank, row, col int) *int64 {
	done := int64(-1)
	r.c.Enqueue(&Request{Bank: bank, Row: row, Col: col, Done: func(_ any, at int64) { done = at }})
	return &done
}

func TestSingleReadClosedBank(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	done := r.read(0, 5, 0)
	r.run(200)
	// ACT at 0, RD at tRCD=14, data at 14+14+3 = 31.
	if *done != 31 {
		t.Fatalf("done at %d, want 31", *done)
	}
	s := r.c.Stats()
	if s.Reads != 1 || s.RowMisses != 1 || s.RowHits != 0 || s.RowConflicts != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRowHitPipelines(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	d1 := r.read(0, 5, 0)
	d2 := r.read(0, 5, 1)
	r.run(200)
	if *d1 != 31 {
		t.Fatalf("first read done at %d, want 31", *d1)
	}
	// Second read is bus-limited: data slots are back to back (3 ns).
	if *d2 != 34 {
		t.Fatalf("second read done at %d, want 34", *d2)
	}
	s := r.c.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRowConflictUsesFullCycle(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	d1 := r.read(0, 5, 0)
	d2 := r.read(0, 9, 0)
	r.run(400)
	if *d1 != 31 {
		t.Fatalf("first read done at %d", *d1)
	}
	// PRE waits for tRAS (32), ACT at 32+14=46, RD at 60, data at 77.
	if *d2 != 77 {
		t.Fatalf("conflicting read done at %d, want 77", *d2)
	}
	s := r.c.Stats()
	if s.RowConflicts != 1 || s.RowMisses != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// The Fig 2 mechanism: PRAC timings slow conflicting reads but not hits.
func TestPRACSlowsConflictsOnly(t *testing.T) {
	lat := func(tm timing.Params, cuAlways bool) (hit, conflict int64) {
		r := newRig(t, Config{Timing: tm, CUAlways: cuAlways}, dram.Config{})
		r.read(0, 1, 0)
		h := r.read(0, 1, 1)
		cf := r.read(0, 2, 0)
		r.run(1000)
		return *h, *cf
	}
	baseHit, baseConf := lat(timing.DDR5(), false)
	pracHit, pracConf := lat(timing.PRAC(), true)
	// Hits shift by at most the tRCD delta (2 ns) from the opening ACT.
	if pracHit-baseHit > 2 {
		t.Fatalf("PRAC hit latency %d vs base %d; delta must be <= 2", pracHit, baseHit)
	}
	// Conflicts absorb at least the row-cycle inflation: when the PRE
	// follows the last read immediately, the shorter PRAC tRAS offsets
	// part of the tRP growth, leaving the tRC delta (6 ns) plus tRCD.
	if pracConf-baseConf < 6 {
		t.Fatalf("PRAC conflict latency %d vs base %d; expected >= 6 ns penalty", pracConf, baseConf)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	r.read(0, 1, 0)
	r.run(100) // row 1 open, queue empty
	dConf := r.read(0, 2, 0)
	dHit := r.read(0, 1, 1)
	r.run(500)
	if !(*dHit < *dConf) {
		t.Fatalf("hit served at %d, conflict at %d; FR-FCFS must prefer the hit", *dHit, *dConf)
	}
}

func TestBanksServiceInParallel(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	d0 := r.read(0, 1, 0)
	d1 := r.read(1, 1, 0)
	r.run(200)
	// Bank-parallel ACTs; the bus serialises only the 3 ns transfers.
	if *d0 != 31 || *d1 != 34 {
		t.Fatalf("done at %d/%d, want 31/34", *d0, *d1)
	}
}

func TestPeriodicRefreshBlocksAndResumes(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	r.run(10_000) // beyond two tREFI (3900)
	if got := r.dev.Stats().Refreshes; got != 2 {
		t.Fatalf("refreshes = %d, want 2", got)
	}
	// A request during REF waits for tRFC.
	r.run(3 * 3900)
	done := r.read(0, 1, 0)
	r.run(3*3900 + 500)
	if *done < 3*3900+410 {
		t.Fatalf("read done at %d, want after REF completes (%d)", *done, 3*3900+410)
	}
}

func TestOpenPageKeepsRowOpen(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5(), Policy: OpenPage}, dram.Config{})
	r.read(0, 7, 0)
	r.run(1000)
	if r.dev.OpenRow(0) != 7 {
		t.Fatalf("open-page left row %d, want 7 open", r.dev.OpenRow(0))
	}
}

func TestClosePageClosesAfterRead(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5(), Policy: ClosePage}, dram.Config{})
	r.read(0, 7, 0)
	r.run(1000)
	if r.dev.OpenRow(0) != -1 {
		t.Fatal("close-page must precharge after the read")
	}
	// Close-page converts a would-be conflict into a plain miss.
	d := r.read(0, 9, 0)
	before := r.eng.Now()
	r.run(2000)
	if *d-before > 40 {
		t.Fatalf("second read latency %d; close-page should avoid the conflict PRE", *d-before)
	}
}

func TestTimeoutPageClosesAfterIdle(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5(), Policy: TimeoutPage, TimeoutNs: 100}, dram.Config{})
	r.read(0, 7, 0)
	r.run(80)
	if r.dev.OpenRow(0) != 7 {
		t.Fatal("row must stay open before the timeout")
	}
	r.run(300)
	if r.dev.OpenRow(0) != -1 {
		t.Fatal("timeout policy must close the idle row")
	}
}

func TestRowPressCapForcesClosure(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5(), RowPressCapNs: 180}, dram.Config{})
	r.read(0, 7, 0)
	r.run(170)
	if r.dev.OpenRow(0) != 7 {
		t.Fatal("row closed before the cap")
	}
	r.run(400)
	if r.dev.OpenRow(0) != -1 {
		t.Fatal("RowPress cap must close the row at 180 ns")
	}
}

func TestMoPACCSelectsPREcuAtRateP(t *testing.T) {
	tm := timing.MoPACC()
	r := newRig(t, Config{Timing: tm, CUProbInv: 8, Seed: 42, Policy: ClosePage}, dram.Config{Banks: 1})
	const n = 4000
	for i := 0; i < n; i++ {
		r.read(0, i%1024, 0)
	}
	r.run(5_000_000)
	s := r.dev.Stats()
	total := s.Precharges + s.PrechargesCU
	// Pre-queued duplicates coalesce onto one row opening, so the ACT
	// count is ~1024 (the distinct rows), not 4000.
	if total < 1000 {
		t.Fatalf("only %d precharges", total)
	}
	frac := float64(s.PrechargesCU) / float64(total)
	if frac < 0.08 || frac > 0.18 {
		t.Fatalf("PREcu fraction %.3f over %d precharges, want ~1/8", frac, total)
	}
}

func TestCUAlwaysUsesPREcuEverywhere(t *testing.T) {
	r := newRig(t, Config{Timing: timing.PRAC(), CUAlways: true, Policy: ClosePage}, dram.Config{Banks: 1})
	for i := 0; i < 50; i++ {
		r.read(0, i, 0)
	}
	r.run(100_000)
	s := r.dev.Stats()
	if s.Precharges != 0 || s.PrechargesCU < 49 {
		t.Fatalf("stats: %+v", s)
	}
}

// alertOnNthACT raises ALERT after n activations.
type alertOnNthACT struct {
	n     int
	acts  int
	alert bool
}

func (g *alertOnNthACT) Activate(_ int64, _ int) bool {
	g.acts++
	if g.acts >= g.n {
		g.alert = true
	}
	return g.alert
}
func (g *alertOnNthACT) PrechargeClose(int64, int, int64, bool) bool { return g.alert }
func (g *alertOnNthACT) Refresh(int64) []dram.Mitigation             { return nil }
func (g *alertOnNthACT) ABOAction(int64) []dram.Mitigation {
	g.alert = false
	g.acts = 0
	return nil
}
func (g *alertOnNthACT) AlertRequested() bool { return g.alert }
func (g *alertOnNthACT) Quiet() bool          { return false }

func TestAlertGraceThenRFM(t *testing.T) {
	cfg := Config{Timing: timing.DDR5()}
	r := newRig(t, cfg, dram.Config{
		Banks:    1,
		NewGuard: func(int, int) dram.BankGuard { return &alertOnNthACT{n: 1} },
	})
	d1 := r.read(0, 1, 0)
	r.run(20_000)
	if *d1 != 31 {
		t.Fatalf("read before alert handling done at %d", *d1)
	}
	s := r.c.Stats()
	if s.AlertStalls != 1 {
		t.Fatalf("alert stalls = %d, want 1", s.AlertStalls)
	}
	dev := r.dev.Stats()
	if dev.Alerts != 1 || dev.RFMs != 1 {
		t.Fatalf("device stats: %+v", dev)
	}
	// During the grace window plus RFM the bank was unavailable; a read
	// arriving right after the ALERT still completes.
	d2 := r.read(0, 2, 0)
	r.run(40_000)
	if *d2 < 0 {
		t.Fatal("post-alert read never completed")
	}
}

func TestAlertDuringBusyTrafficServesRFMWithin(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{
		Banks:    2,
		NewGuard: func(int, int) dram.BankGuard { return &alertOnNthACT{n: 5} },
	})
	var dones []*int64
	for i := 0; i < 40; i++ {
		dones = append(dones, r.read(i%2, i, 0))
	}
	r.run(100_000)
	for i, d := range dones {
		if *d < 0 {
			t.Fatalf("request %d starved", i)
		}
	}
	if r.c.Stats().AlertStalls == 0 {
		t.Fatal("expected at least one RFM")
	}
	if r.c.Stats().StallNs <= 0 {
		t.Fatal("stall time must accumulate")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := event.NewEngine()
	dev, err := dram.NewDevice(dram.Config{Banks: 1, Rows: 64, Timing: timing.DDR5()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, dev, Config{Timing: timing.DDR5(), CUProbInv: -1}); err == nil {
		t.Fatal("negative CUProbInv accepted")
	}
	if _, err := New(eng, dev, Config{Timing: timing.DDR5(), Policy: TimeoutPage}); err == nil {
		t.Fatal("timeout policy without TimeoutNs accepted")
	}
	bad := timing.DDR5()
	bad.TRP = 0
	if _, err := New(eng, dev, Config{Timing: bad}); err == nil {
		t.Fatal("invalid timing accepted")
	}
}

func TestPagePolicyString(t *testing.T) {
	if OpenPage.String() != "open-page" || ClosePage.String() != "close-page" ||
		TimeoutPage.String() != "timeout-page" {
		t.Fatal("policy names wrong")
	}
	if PagePolicy(9).String() == "" {
		t.Fatal("unknown policy must format")
	}
}

func TestEnqueueBadBankPanics(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.c.Enqueue(&Request{Bank: 99, Row: 0})
}

// Long random soak: the controller must never violate device timing
// (the device panics if it does) and must serve every request.
func TestRandomSoakNoTimingViolations(t *testing.T) {
	for _, cfg := range []Config{
		{Timing: timing.DDR5()},
		{Timing: timing.PRAC(), CUAlways: true},
		{Timing: timing.MoPACC(), CUProbInv: 8, Seed: 3},
		{Timing: timing.DDR5(), Policy: ClosePage},
		{Timing: timing.DDR5(), Policy: TimeoutPage, TimeoutNs: 200},
		{Timing: timing.DDR5(), RowPressCapNs: 180},
	} {
		r := newRig(t, cfg, dram.Config{Banks: 8})
		served := 0
		n := 600
		// Interleave arrivals over time via Done chaining, with
		// occasional bursts of two outstanding requests.
		next := 0
		var submit func()
		submit = func() {
			if next >= n {
				return
			}
			i := next
			next++
			r.c.Enqueue(&Request{
				Bank: (i * 7) % 8,
				Row:  (i * 13) % 97,
				Done: r.atDone(func() {
					served++
					submit()
				}),
			})
			if i%3 == 0 {
				submit()
			}
		}
		submit()
		r.run(5_000_000)
		if served < n {
			t.Fatalf("%s: served %d of %d", cfg.Timing.Name, served, n)
		}
	}
}

func TestRefreshPostponement(t *testing.T) {
	// With postponement allowed and traffic queued, the controller
	// defers REFs and then makes them up back to back.
	cfg := Config{Timing: timing.DDR5(), MaxPostponedREFs: 4}
	r := newRig(t, cfg, dram.Config{Banks: 1})
	// Keep the bank busy across several tREFI.
	served := 0
	var chain func()
	chain = func() {
		if served >= 600 {
			return
		}
		served++
		r.c.Enqueue(&Request{Bank: 0, Row: served % 64, Done: r.atDone(chain)})
	}
	chain()
	r.run(5 * 3900)
	postponed := r.dev.Stats().Refreshes
	// Strict cadence would have done ~5 REFs by now; postponement defers
	// up to 4 while the queue is busy.
	strict := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{Banks: 1})
	sserved := 0
	var schain func()
	schain = func() {
		if sserved >= 600 {
			return
		}
		sserved++
		strict.c.Enqueue(&Request{Bank: 0, Row: sserved % 64, Done: strict.atDone(schain)})
	}
	schain()
	strict.run(5 * 3900)
	if postponed >= strict.dev.Stats().Refreshes {
		t.Fatalf("postponement did not defer: %d vs strict %d", postponed, strict.dev.Stats().Refreshes)
	}
	// Over a long horizon the refresh rate catches up (all owed REFs
	// served).
	r.run(40 * 3900)
	strict.run(40 * 3900)
	if d := strict.dev.Stats().Refreshes - r.dev.Stats().Refreshes; d > 4 {
		t.Fatalf("postponing controller still owes %d refreshes", d)
	}
}

func TestPostponementValidation(t *testing.T) {
	eng := event.NewEngine()
	dev, err := dram.NewDevice(dram.Config{Banks: 1, Rows: 64, Timing: timing.DDR5()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, dev, Config{Timing: timing.DDR5(), MaxPostponedREFs: 5}); err == nil {
		t.Fatal("MaxPostponedREFs > 4 accepted")
	}
}

func TestWriteRequestServiced(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	done := int64(-1)
	r.c.Enqueue(&Request{Bank: 0, Row: 3, Write: true, Done: func(_ any, at int64) { done = at }})
	r.run(300)
	// ACT at 0, WR at tRCD=14, data-in done at 14+12+3 = 29.
	if done != 29 {
		t.Fatalf("write done at %d, want 29", done)
	}
	s := r.c.Stats()
	if s.Writes != 1 || s.Reads != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if r.dev.Stats().Writes != 1 {
		t.Fatal("device write not counted")
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	r.c.Enqueue(&Request{Bank: 0, Row: 3, Write: true})
	dConf := r.read(0, 9, 0) // conflicting read must wait tWR
	r.run(1000)
	// WR data-in ends at 29; PRE legal at 29+30=59; ACT 73; RD 87;
	// data 104.
	if *dConf != 104 {
		t.Fatalf("conflict after write done at %d, want 104", *dConf)
	}
}

func TestWritesDoNotPolluteReadLatency(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	r.c.Enqueue(&Request{Bank: 0, Row: 3, Write: true})
	r.read(1, 5, 0)
	r.run(500)
	if got := r.c.Latency().Count; got != 1 {
		t.Fatalf("latency samples = %d, want reads only", got)
	}
}

// TestPickOldestHitThenOldest pins FR-FCFS selection on an arrival-
// ordered queue: the oldest request to the open row wins over older
// conflicts and younger hits.
func TestPickOldestHitThenOldest(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{Banks: 1})
	r.read(0, 5, 0)
	r.run(50) // row 5 open, queue empty
	for _, row := range []int{9, 2, 5, 5} {
		r.read(0, row, 0)
	}
	if got := r.c.pick(0); got != 2 {
		t.Fatalf("pick = %d, want 2 (oldest hit)", got)
	}
	// Serving the oldest hit keeps arrival order for the rest.
	r.c.completeRead(0, 2, r.eng.Now())
	if got := r.c.queues[0].row; len(got) != 3 || got[0] != 9 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("queue after serving position 2 = %v, want [9 2 5]", got)
	}
}

func TestMoPACCWritesPMenuModeRegister(t *testing.T) {
	r := newRig(t, Config{Timing: timing.MoPACC(), CUProbInv: 8, Seed: 1}, dram.Config{Banks: 1})
	if got := r.dev.ModeRegister(dram.MRMoPACPMenu); got != 2 {
		t.Fatalf("p-menu MR = %d, want 2 (p = 1/8)", got)
	}
	// Off-menu probabilities are rejected at construction.
	eng := event.NewEngine()
	dev, err := dram.NewDevice(dram.Config{Banks: 1, Rows: 64, Timing: timing.MoPACC()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, dev, Config{Timing: timing.MoPACC(), CUProbInv: 7}); err == nil {
		t.Fatal("off-menu CUProbInv accepted")
	}
}

// BenchmarkControllerPickIssue measures the scheduler's pick/issue
// path over an unprotected device (every guard dram.NopGuard): each op
// preloads 32 reads spread over 32 banks and 4 rows per bank, so the
// queue mixes row hits, misses and conflicts, then serves them to the
// end. ns/req is the cost per request.
func BenchmarkControllerPickIssue(b *testing.B) {
	const banks, batch = 32, 32
	tm := timing.DDR5()
	dev, err := dram.NewDevice(dram.Config{
		Banks: banks, Rows: 1 << 16, Timing: tm,
		NewGuard: func(int, int) dram.BankGuard { return dram.NopGuard() },
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := event.NewEngine()
	c, err := New(eng, dev, Config{Timing: tm})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	locs := make([][2]int, 1024)
	for i := range locs {
		locs[i] = [2]int{rng.IntN(banks), rng.IntN(4)}
	}
	pending := func() bool { return c.Pending() > 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			l := locs[(i*batch+j)%len(locs)]
			r := c.NewRequest()
			r.Bank, r.Row = l[0], l[1]
			c.Enqueue(r)
		}
		eng.RunWhile(pending)
	}
	reqs := float64(b.N * batch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
	// Deterministic at a fixed -benchtime Nx, unlike ns/req: a change
	// in the work per request shows here free of host noise.
	b.ReportMetric(float64(eng.Fired())/reqs, "events/req")
	b.ReportMetric(float64(dev.Stats().Activates)/reqs, "acts/req")
}
