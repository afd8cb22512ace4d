package dram

import (
	"testing"

	"mopac/internal/timing"
)

func newDev(t *testing.T, tm timing.Params) *Device {
	t.Helper()
	d, err := NewDevice(Config{Banks: 4, Rows: 1 << 16, Timing: tm})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestActivateReadPrechargeCycle(t *testing.T) {
	d := newDev(t, timing.DDR5())
	if d.OpenRow(0) != -1 {
		t.Fatal("bank must start precharged")
	}
	if got := d.EarliestActivate(0); got != 0 {
		t.Fatalf("earliest ACT = %d, want 0", got)
	}
	d.Activate(0, 0, 7)
	if d.OpenRow(0) != 7 {
		t.Fatalf("open row = %d, want 7", d.OpenRow(0))
	}
	if got := d.EarliestRead(0); got != 14 {
		t.Fatalf("earliest RD = %d, want tRCD=14", got)
	}
	done := d.Read(14, 0)
	if done != 14+14+3 {
		t.Fatalf("read done = %d, want 31 (tCL+tBURST)", done)
	}
	if got := d.EarliestPrecharge(0, false); got != 32 {
		t.Fatalf("earliest PRE = %d, want tRAS=32", got)
	}
	if row := d.Precharge(32, 0, false); row != 7 {
		t.Fatalf("precharged row = %d, want 7", row)
	}
	if got := d.EarliestActivate(0); got != 32+14 {
		t.Fatalf("next ACT = %d, want 46 (tRC)", got)
	}
	s := d.Stats()
	if s.Activates != 1 || s.Reads != 1 || s.Precharges != 1 || s.PrechargesCU != 0 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

// Figure 4 of the paper: a conflicting read under baseline timings takes
// tRP + tRCD + data ~= 40 ns; under PRAC ~= 62 ns (1.55x).
func TestFigure4ConflictLatency(t *testing.T) {
	service := func(tm timing.Params) int64 {
		d := newDev(t, tm)
		d.Activate(0, 0, 1) // conflicting row A open, tRAS satisfied later
		preAt := d.EarliestPrecharge(0, true)
		d.Precharge(preAt, 0, true)
		// Request to row B arrives after the conflict is old enough that
		// tRAS is not the bottleneck; measure PRE->data latency.
		actAt := d.EarliestActivate(0)
		d.Activate(actAt, 0, 99)
		rdAt := d.EarliestRead(0)
		return d.Read(rdAt, 0) - preAt
	}
	base := service(timing.DDR5())
	prac := service(timing.PRAC())
	// Base: tRP(14) + tRCD(14) + tCL(14) + tBURST(3) = 45.
	if base != 45 {
		t.Fatalf("baseline conflict latency = %d, want 45", base)
	}
	// PRAC: tRPcu(36) + tRCD(16) + tCL(14) + tBURST(3) = 69 (1.53x).
	if prac != 69 {
		t.Fatalf("PRAC conflict latency = %d, want 69", prac)
	}
	ratio := float64(prac) / float64(base)
	if ratio < 1.4 || ratio > 1.7 {
		t.Fatalf("PRAC/base conflict ratio = %.2f, want ~1.55", ratio)
	}
}

func TestMoPACCTwoPrechargeFlavours(t *testing.T) {
	tm := timing.MoPACC()
	d := newDev(t, tm)
	d.Activate(0, 0, 1)
	if got := d.EarliestPrecharge(0, false); got != 32 {
		t.Fatalf("normal PRE earliest = %d, want tRAS=32", got)
	}
	if got := d.EarliestPrecharge(0, true); got != 16 {
		t.Fatalf("PREcu earliest = %d, want tRAScu=16", got)
	}
	d.Precharge(16, 0, true)
	if got := d.EarliestActivate(0); got != 16+36 {
		t.Fatalf("ACT after PREcu = %d, want 52 (tRCcu)", got)
	}
	if d.Stats().PrechargesCU != 1 {
		t.Fatal("PREcu not counted")
	}
}

func TestIllegalCommandsPanic(t *testing.T) {
	cases := []struct {
		name string
		fn   func(d *Device)
	}{
		{"ACT while open", func(d *Device) { d.Activate(0, 0, 1); d.Activate(46, 0, 2) }},
		{"ACT too early after PRE", func(d *Device) {
			d.Activate(0, 0, 1)
			d.Precharge(32, 0, false)
			d.Activate(33, 0, 2)
		}},
		{"RD on closed bank", func(d *Device) { d.Read(0, 0) }},
		{"RD too early", func(d *Device) { d.Activate(0, 0, 1); d.Read(5, 0) }},
		{"PRE on closed bank", func(d *Device) { d.Precharge(0, 0, false) }},
		{"PRE before tRAS", func(d *Device) { d.Activate(0, 0, 1); d.Precharge(10, 0, false) }},
		{"REF with open row", func(d *Device) { d.Activate(0, 0, 1); d.Refresh(100) }},
		{"row out of range", func(d *Device) { d.Activate(0, 0, 1<<20) }},
		{"bank out of range", func(d *Device) { d.Activate(0, 99, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newDev(t, timing.DDR5())
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", c.name)
				}
			}()
			c.fn(d)
		})
	}
}

func TestRefreshBlocksBanks(t *testing.T) {
	d := newDev(t, timing.DDR5())
	d.Refresh(1000)
	if got := d.blockedUntil; got != 1410 {
		t.Fatalf("blocked until %d, want 1410 (tRFC)", got)
	}
	if got := d.EarliestActivate(0); got != 1410 {
		t.Fatalf("earliest ACT = %d, want 1410", got)
	}
	if d.Stats().Refreshes != 1 {
		t.Fatal("refresh not counted")
	}
}

type recObserver struct {
	acts  []int
	mits  []int
	refLo []int
}

func (r *recObserver) ObserveActivate(_ int64, _ int, row int)   { r.acts = append(r.acts, row) }
func (r *recObserver) ObserveMitigation(_ int64, _ int, row int) { r.mits = append(r.mits, row) }
func (r *recObserver) ObserveRefresh(_ int64, _ int, lo, _ int)  { r.refLo = append(r.refLo, lo) }

func TestObserverSeesActivatesAndRefreshSweep(t *testing.T) {
	obs := &recObserver{}
	d, err := NewDevice(Config{Banks: 1, Rows: 1 << 16, Timing: timing.DDR5(), Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	d.Activate(0, 0, 5)
	d.Precharge(32, 0, false)
	d.Refresh(1000)
	d.Refresh(6000)
	if len(obs.acts) != 1 || obs.acts[0] != 5 {
		t.Fatalf("observer acts = %v", obs.acts)
	}
	// 64K rows / 8192 groups = 8 rows per group, swept in order.
	if len(obs.refLo) != 2 || obs.refLo[0] != 0 || obs.refLo[1] != 8 {
		t.Fatalf("refresh sweep = %v, want [0 8]", obs.refLo)
	}
}

// alertGuard asserts ALERT after a configurable number of ACTs and
// mitigates the hottest row on ABO.
type alertGuard struct {
	after   int
	acts    int
	lastRow int
	alert   bool
}

func (g *alertGuard) Activate(_ int64, row int) bool {
	g.acts++
	g.lastRow = row
	if g.acts >= g.after {
		g.alert = true
	}
	return g.alert
}
func (g *alertGuard) PrechargeClose(int64, int, int64, bool) bool { return g.alert }
func (g *alertGuard) Refresh(int64) []Mitigation                  { return nil }
func (g *alertGuard) ABOAction(int64) []Mitigation {
	g.alert = false
	g.acts = 0
	return []Mitigation{{Row: g.lastRow}}
}
func (g *alertGuard) AlertRequested() bool { return g.alert }
func (g *alertGuard) Quiet() bool          { return false }

func TestAlertAndABO(t *testing.T) {
	obs := &recObserver{}
	d, err := NewDevice(Config{
		Banks: 2, Rows: 1 << 16, Timing: timing.DDR5(), Observer: obs,
		NewGuard: func(chip, bank int) BankGuard { return &alertGuard{after: 2} },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Activate(0, 0, 10)
	if d.AlertRequested() {
		t.Fatal("alert too early")
	}
	d.Precharge(32, 0, false)
	d.Activate(46, 0, 11)
	if !d.AlertRequested() {
		t.Fatal("alert expected after two ACTs")
	}
	d.Precharge(46+32, 0, false)
	d.ServeABO(100)
	if d.AlertRequested() {
		t.Fatal("alert must clear after ABO")
	}
	if d.blockedUntil != 450 {
		t.Fatalf("RFM block until %d, want 450", d.blockedUntil)
	}
	// Both banks mitigated their tracked row; bank 1 never activated so
	// its mitigation targets row 0 (lastRow zero value).
	if len(obs.mits) != 2 {
		t.Fatalf("mitigations = %v, want 2 entries", obs.mits)
	}
	if obs.mits[0] != 11 {
		t.Fatalf("bank 0 mitigated row %d, want 11", obs.mits[0])
	}
	s := d.Stats()
	if s.Alerts != 1 || s.RFMs != 1 || s.Mitigations != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// JEDEC requires at least one ACT between ALERTs: a guard that re-raises
// immediately must stay masked until the next activation.
func TestAlertMaskedUntilNextActivate(t *testing.T) {
	raise := &alertGuard{after: 1}
	d, err := NewDevice(Config{
		Banks: 1, Rows: 64, Timing: timing.DDR5(),
		NewGuard: func(chip, bank int) BankGuard { return raise },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Activate(0, 0, 1)
	d.Precharge(32, 0, false)
	if !d.AlertRequested() {
		t.Fatal("alert expected")
	}
	d.ServeABO(50)
	// Guard immediately wants another alert, but no ACT has happened.
	raise.alert = true
	d.alertPending = true
	if d.AlertRequested() {
		t.Fatal("alert must be masked with zero ACTs since last ALERT")
	}
	actAt := d.EarliestActivate(0)
	d.Activate(actAt, 0, 2)
	if !d.AlertRequested() {
		t.Fatal("alert must unmask after an ACT")
	}
}

func TestMultiChipGuardsReplicated(t *testing.T) {
	var made int
	d, err := NewDevice(Config{
		Banks: 2, Rows: 64, Chips: 4, Timing: timing.DDR5(),
		NewGuard: func(chip, bank int) BankGuard { made++; return &alertGuard{after: 1000} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if made != 8 {
		t.Fatalf("guards constructed = %d, want 8 (4 chips x 2 banks)", made)
	}
	if d.Chips() != 4 {
		t.Fatalf("Chips = %d", d.Chips())
	}
	d.Activate(0, 0, 3)
	for c := 0; c < 4; c++ {
		if d.Guard(c, 0).(*alertGuard).acts != 1 {
			t.Fatalf("chip %d guard missed the ACT", c)
		}
	}
	if d.Guard(0, 1).(*alertGuard).acts != 0 {
		t.Fatal("bank 1 guard must not see bank 0 ACT")
	}
}

// preAlertGuard raises its alert at a precharge when armed.
type preAlertGuard struct{ armed, alert bool }

func (g *preAlertGuard) Activate(int64, int) bool { return g.alert }
func (g *preAlertGuard) PrechargeClose(int64, int, int64, bool) bool {
	g.alert = g.armed
	return g.alert
}
func (g *preAlertGuard) Refresh(int64) []Mitigation { return nil }
func (g *preAlertGuard) ABOAction(int64) []Mitigation {
	g.alert = false
	return nil
}
func (g *preAlertGuard) AlertRequested() bool { return g.alert }
func (g *preAlertGuard) Quiet() bool          { return false }

// TestPrechargeAlertFromOneChip checks that an alert raised only by
// chip 2's PrechargeClose, on bank 1 of a four-chip device, latches
// ALERT: the device acts on the bool each chip's call returns, and the
// bank-major guard layout hands each call to the right (chip, bank).
func TestPrechargeAlertFromOneChip(t *testing.T) {
	d, err := NewDevice(Config{
		Banks: 2, Rows: 64, Chips: 4, Timing: timing.DDR5(),
		NewGuard: func(chip, bank int) BankGuard {
			return &preAlertGuard{armed: chip == 2 && bank == 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Activate(0, 0, 1)
	d.Precharge(d.EarliestPrecharge(0, false), 0, false)
	if d.AlertRequested() {
		t.Fatal("a precharge of bank 0 raised ALERT")
	}
	d.Activate(d.EarliestActivate(1), 1, 1)
	if d.AlertRequested() {
		t.Fatal("ALERT before any guard raised it")
	}
	d.Precharge(d.EarliestPrecharge(1, false), 1, false)
	if !d.AlertRequested() {
		t.Fatal("chip 2's precharge alert did not latch ALERT")
	}
	for c := 0; c < 4; c++ {
		if got := d.Guard(c, 1).AlertRequested(); got != (c == 2) {
			t.Fatalf("Guard(%d, 1).AlertRequested = %v", c, got)
		}
	}
}

func TestRowOpenTimeReported(t *testing.T) {
	var gotOpen int64 = -1
	var gotCU bool
	g := &closeProbe{open: &gotOpen, cu: &gotCU}
	d, err := NewDevice(Config{
		Banks: 1, Rows: 64, Timing: timing.MoPACC(),
		NewGuard: func(int, int) BankGuard { return g },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Activate(100, 0, 1)
	d.Precharge(100+50, 0, true)
	if gotOpen != 50 || !gotCU {
		t.Fatalf("guard saw openNs=%d cu=%v, want 50,true", gotOpen, gotCU)
	}
}

type closeProbe struct {
	open *int64
	cu   *bool
}

func (p *closeProbe) Activate(int64, int) bool { return false }
func (p *closeProbe) PrechargeClose(_ int64, _ int, openNs int64, cu bool) bool {
	*p.open = openNs
	*p.cu = cu
	return false
}
func (p *closeProbe) Refresh(int64) []Mitigation   { return nil }
func (p *closeProbe) ABOAction(int64) []Mitigation { return nil }
func (p *closeProbe) AlertRequested() bool         { return false }
func (p *closeProbe) Quiet() bool                  { return true }

func TestNopGuardNeverAlerts(t *testing.T) {
	g := NopGuard()
	g.Activate(0, 1)
	g.PrechargeClose(0, 1, 10, true)
	if g.AlertRequested() || g.Refresh(0) != nil || g.ABOAction(0) != nil {
		t.Fatal("nop guard must do nothing")
	}
}

func TestRFMLevelMultipliesStallAndActions(t *testing.T) {
	mk := func(level int) (*Device, *alertGuard) {
		g := &alertGuard{after: 1}
		d, err := NewDevice(Config{
			Banks: 1, Rows: 64, RFMLevel: level, Timing: timing.DDR5(),
			NewGuard: func(int, int) BankGuard { return g },
		})
		if err != nil {
			t.Fatal(err)
		}
		return d, g
	}
	d2, _ := mk(2)
	d2.Activate(0, 0, 1)
	d2.Precharge(32, 0, false)
	if !d2.AlertRequested() {
		t.Fatal("alert expected")
	}
	d2.ServeABO(100)
	// Level 2: two RFMs, 700 ns unavailability, two ABO actions.
	if got := d2.blockedUntil; got != 100+2*350 {
		t.Fatalf("blocked until %d, want 800", got)
	}
	if d2.Stats().RFMs != 2 || d2.Stats().Alerts != 1 {
		t.Fatalf("stats: %+v", d2.Stats())
	}
	if d2.Stats().Mitigations != 2 {
		t.Fatalf("level 2 must run two ABO actions, got %d mitigations", d2.Stats().Mitigations)
	}
}

func TestTFAWThrottlesFifthActivate(t *testing.T) {
	tm := timing.DDR5() // tFAW = 14
	d, err := NewDevice(Config{Banks: 8, Rows: 64, Timing: tm})
	if err != nil {
		t.Fatal(err)
	}
	// Four back-to-back ACTs to different banks at t=0..3.
	for b := 0; b < 4; b++ {
		at := d.EarliestActivate(b)
		if at > int64(b) {
			t.Fatalf("ACT %d throttled too early (at %d)", b, at)
		}
		d.Activate(int64(b), b, 1)
	}
	// The fifth must wait until the first ACT ages out of the window.
	if got := d.EarliestActivate(4); got != 0+tm.TFAW {
		t.Fatalf("fifth ACT earliest = %d, want %d (tFAW)", got, tm.TFAW)
	}
	d.Activate(tm.TFAW, 4, 1)
	// And the sixth until the second ages out.
	if got := d.EarliestActivate(5); got != 1+tm.TFAW {
		t.Fatalf("sixth ACT earliest = %d, want %d", got, 1+tm.TFAW)
	}
}

func TestTFAWViolationPanics(t *testing.T) {
	d, err := NewDevice(Config{Banks: 8, Rows: 64, Timing: timing.DDR5()})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		d.Activate(int64(b), b, 1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected tFAW panic")
		}
	}()
	d.Activate(5, 4, 1) // within the window of the first four
}

// BenchmarkCommandLegality measures the device's command legality
// checks: each op issues one ACT/RD/PRE cycle, round-robin over 32
// banks, every command at the earliest instant the device allows, so
// tRCD, tRAS, tRP and tFAW all bind.
func BenchmarkCommandLegality(b *testing.B) {
	const banks = 32
	d, err := NewDevice(Config{Banks: banks, Rows: 1 << 16, Timing: timing.DDR5()})
	if err != nil {
		b.Fatal(err)
	}
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := i % banks
		now = max(now, d.EarliestActivate(bank))
		d.Activate(now, bank, (i*97)&1023)
		now = max(now, d.EarliestRead(bank))
		d.Read(now, bank)
		now = max(now, d.EarliestPrecharge(bank, false))
		d.Precharge(now, bank, false)
	}
}

// TestDroppedRiderHoldsNoGuards: a rider dropped as diverged, by its
// own alert request or by an RFM it did not ask for, keeps its mark but
// no longer holds its guards; a rider that keeps watching keeps them.
func TestDroppedRiderHoldsNoGuards(t *testing.T) {
	d := newDev(t, timing.DDR5())
	alerting := d.AddRider(2, func(chip, bank int) BankGuard { return &alertGuard{after: 1} }, nil)
	watching := d.AddRider(2, nil, nil)
	d.Activate(0, 0, 10)
	if !alerting.Diverged() || watching.Diverged() {
		t.Fatalf("diverged after an alert request: alerting %v, watching %v", alerting.Diverged(), watching.Diverged())
	}
	if alerting.guards != nil || alerting.quiet != nil {
		t.Fatalf("dropped rider still holds %d guards and %d quiet marks", len(alerting.guards), len(alerting.quiet))
	}
	if len(watching.guards) != 2*d.Banks() || len(watching.quiet) != d.Banks() {
		t.Fatalf("watching rider holds %d guards and %d quiet marks", len(watching.guards), len(watching.quiet))
	}

	d, err := NewDevice(Config{
		Banks: 2, Rows: 1 << 16, Timing: timing.DDR5(),
		NewGuard: func(chip, bank int) BankGuard { return &alertGuard{after: 1} },
	})
	if err != nil {
		t.Fatal(err)
	}
	watching = d.AddRider(1, nil, nil)
	d.Activate(0, 0, 10)
	d.Precharge(32, 0, false)
	d.ServeABO(100)
	if !watching.Diverged() || watching.guards != nil || watching.quiet != nil {
		t.Fatalf("rider after an RFM: diverged %v, %d guards, %d quiet marks",
			watching.Diverged(), len(watching.guards), len(watching.quiet))
	}
}

// countGuard counts the ACT, PRE and REF calls it gets.
type countGuard struct{ calls *int }

func (g countGuard) Activate(int64, int) bool { *g.calls++; return false }
func (g countGuard) PrechargeClose(int64, int, int64, bool) bool {
	*g.calls++
	return false
}
func (g countGuard) Refresh(int64) []Mitigation   { *g.calls++; return nil }
func (g countGuard) ABOAction(int64) []Mitigation { return nil }
func (g countGuard) AlertRequested() bool         { return false }
func (g countGuard) Quiet() bool                  { return false }

// TestDivergedMemberLeavesEveryDevice: a config rides both subchannels
// with one shared divergence mark. Once its rider on subchannel 0 asks
// for an alert, its rider on subchannel 1 gets no further guard calls
// and reports diverged, while another config's rider there keeps
// watching.
func TestDivergedMemberLeavesEveryDevice(t *testing.T) {
	sub0, sub1 := newDev(t, timing.DDR5()), newDev(t, timing.DDR5())
	var calls, otherCalls int
	mark := new(bool)
	alerting := sub0.AddRider(1, func(chip, bank int) BankGuard { return &alertGuard{after: 2} }, mark)
	twin := sub1.AddRider(1, func(chip, bank int) BankGuard { return countGuard{&calls} }, mark)
	other := sub1.AddRider(1, func(chip, bank int) BankGuard { return countGuard{&otherCalls} }, nil)

	cycle := func(d *Device, now int64) {
		d.Activate(now, 0, 10)
		d.Precharge(now+32, 0, false)
		d.Refresh(now + 100)
	}
	cycle(sub0, 0)
	cycle(sub1, 0)
	perCycle := 2 + sub1.Banks() // ACT, PRE, and REF at every bank
	if alerting.Diverged() || calls != perCycle {
		t.Fatalf("before the alert: diverged %v, %d calls on subchannel 1, want %d", alerting.Diverged(), calls, perCycle)
	}
	cycle(sub0, 1000)
	if !alerting.Diverged() || !twin.Diverged() {
		t.Fatalf("after the alert: diverged %v on subchannel 0, %v on subchannel 1", alerting.Diverged(), twin.Diverged())
	}
	for i := int64(0); i < 3; i++ {
		cycle(sub1, 1000+1000*i)
	}
	if calls != perCycle {
		t.Fatalf("the diverged member's rider on subchannel 1 got %d guard calls after it diverged", calls-perCycle)
	}
	if other.Diverged() || otherCalls != 4*perCycle {
		t.Fatalf("the other rider: diverged %v after %d calls, want %d", other.Diverged(), otherCalls, 4*perCycle)
	}
	if twin.guards != nil || len(sub1.riders) != 1 {
		t.Fatalf("subchannel 1 still holds the diverged rider (%d riders)", len(sub1.riders))
	}
}
