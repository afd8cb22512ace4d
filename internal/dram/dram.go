// Package dram models one DDR5 subchannel at command granularity: 32
// banks with per-bank timing state machines, periodic refresh, the PRAC
// ALERT pin, and hooks for in-DRAM Rowhammer mitigation engines
// ("guards") and for security observers.
//
// The device is passive: the memory controller (internal/mc) decides when
// to issue commands, using the Earliest* methods to respect the timing
// parameters, and the device enforces legality (issuing a command early
// or in an illegal bank state panics — a controller bug, not a runtime
// condition). ALERT is subchannel-wide: any bank guard on any chip can
// raise it, and the JEDEC rule that at least one activation must separate
// consecutive ALERTs is enforced here.
package dram

import (
	"fmt"
	"slices"

	"mopac/internal/telemetry"
	"mopac/internal/timing"
)

// Mitigation records one aggressor row that a guard victim-refreshed
// during an ABO or REF window.
type Mitigation struct {
	Row int
}

// BankGuard is the per-bank, per-chip in-DRAM Rowhammer mitigation
// engine. Implementations live in internal/mitigation (MOAT for PRAC,
// the MoPAC-C DRAM side, and MoPAC-D with its SRQ).
type BankGuard interface {
	// Activate notifies an ACT to row at time now and returns
	// AlertRequested as it stands after the call, so the device makes
	// one call per chip on its hottest path.
	Activate(now int64, row int) bool
	// PrechargeClose notifies that the open row closed after openNs of
	// row-open time and, like Activate, returns AlertRequested after
	// the call. counterUpdate reports whether the precharge performed
	// the PRAC counter read-modify-write (always true under PRAC
	// timings, probabilistic under MoPAC-C, never under MoPAC-D).
	PrechargeClose(now int64, row int, openNs int64, counterUpdate bool) bool
	// Refresh notifies a periodic REF; guards may use part of the REF
	// time for counter updates (MoPAC-D drain-on-REF) and return any
	// aggressor rows they mitigated.
	Refresh(now int64) []Mitigation
	// ABOAction performs the guard's alert service during an RFM window
	// and returns the aggressor rows mitigated (possibly none when the
	// window was spent on counter updates).
	ABOAction(now int64) []Mitigation
	// AlertRequested reports whether the guard currently needs an ABO.
	AlertRequested() bool
	// Quiet reports that, until its next Activate, Refresh and
	// ABOAction would return no mitigations and change nothing the
	// guard reports (Stats, AlertRequested), and that AlertRequested is
	// false. The device skips a bank's guards at REF and RFM while all
	// of them are quiet and no ACT has reached the bank since. A guard
	// that counts REFs is never quiet.
	Quiet() bool
}

// nopGuard is the baseline DRAM with no Rowhammer mitigation.
type nopGuard struct{}

func (nopGuard) Activate(int64, int) bool                    { return false }
func (nopGuard) PrechargeClose(int64, int, int64, bool) bool { return false }
func (nopGuard) Refresh(int64) []Mitigation                  { return nil }
func (nopGuard) ABOAction(int64) []Mitigation                { return nil }
func (nopGuard) AlertRequested() bool                        { return false }
func (nopGuard) Quiet() bool                                 { return true }

// NopGuard returns a guard that never mitigates — the unprotected
// baseline device.
func NopGuard() BankGuard { return nopGuard{} }

// Observer receives ground-truth notifications of the activation and
// mitigation stream, independent of what the guards believe. The
// security oracle (internal/oracle) implements it.
type Observer interface {
	// ObserveActivate reports every ACT.
	ObserveActivate(now int64, bank, row int)
	// ObserveMitigation reports a victim refresh of aggressor row.
	ObserveMitigation(now int64, bank, row int)
	// ObserveRefresh reports a periodic refresh of rows [rowLo, rowHi).
	ObserveRefresh(now int64, bank, rowLo, rowHi int)
}

// bankState is the per-bank timing state machine.
type bankState struct {
	openRow       int   // -1 when precharged
	openedAt      int64 // time of the opening ACT
	earliestRD    int64 // tRCD after ACT
	earliestPRE   int64 // tRAS after ACT (normal PRE)
	earliestPRECU int64 // tRAScu after ACT
	earliestACT   int64 // tRP/tRPcu after PRE, or REF/RFM end
}

// Config describes one subchannel device.
type Config struct {
	Banks int
	Rows  int
	// Chips is the number of DRAM chips whose mitigation state is
	// replicated (Appendix B); guards on different chips see the same
	// command stream but make independent probabilistic choices.
	Chips int
	// RFMLevel is the number of RFM commands issued per ABO episode
	// (the JEDEC machine-register setting; the paper uses level 1 for a
	// 350 ns stall). Each RFM gives every bank guard one ABO action.
	RFMLevel int
	Timing   timing.Params
	// NewGuard constructs the guard for (chip, bank). Nil means
	// unprotected.
	NewGuard func(chip, bank int) BankGuard
	// Observer receives ground-truth events; may be nil.
	Observer Observer
	// LogDepth enables the command ring buffer with that many entries
	// (0 disables logging; see CommandLog and CheckProtocol).
	LogDepth int
	// Trace receives command-level telemetry; nil disables tracing (the
	// probe sites reduce to one nil-check).
	Trace *telemetry.DeviceTracks
}

// plane is one set of guards over a device's banks.
type plane struct {
	chips int
	// guards holds every (chip, bank) guard bank-major, at
	// bank*chips+chip, so one bank's chips sit side by side.
	guards []BankGuard
	// quiet marks the banks whose guards all reported Quiet after their
	// last REF or RFM work and that no ACT has reached since: REF and
	// RFM skip their guards. An ACT clears the mark; a PRE needs one
	// first, so guard state cannot change under a mark.
	quiet []bool
}

// newPlane builds newGuard(chip, bank) for every chip and bank; a nil
// newGuard builds NopGuards.
func newPlane(banks, chips int, newGuard func(chip, bank int) BankGuard) plane {
	p := plane{chips: chips, guards: make([]BankGuard, banks*chips), quiet: make([]bool, banks)}
	for c := 0; c < chips; c++ {
		for b := 0; b < banks; b++ {
			if newGuard != nil {
				p.guards[b*chips+c] = newGuard(c, b)
			} else {
				p.guards[b*chips+c] = NopGuard()
			}
		}
	}
	return p
}

// Banks returns the number of banks in the subchannel.
func (p *plane) Banks() int { return len(p.quiet) }

// Chips returns the number of replicated mitigation chips.
func (p *plane) Chips() int { return p.chips }

// Guard returns the guard instance for (chip, bank), for tests and stats.
func (p *plane) Guard(chip, bank int) BankGuard { return p.bankGuards(bank)[chip] }

// bankGuards returns bank's guards, indexed by chip.
func (p *plane) bankGuards(bank int) []BankGuard {
	return p.guards[bank*p.chips : (bank+1)*p.chips]
}

// activate passes an ACT to bank's guards and reports whether any of
// them now requests an alert.
func (p *plane) activate(now int64, bank, row int) bool {
	p.quiet[bank] = false
	alert := false
	for _, g := range p.bankGuards(bank) {
		if g.Activate(now, row) {
			alert = true
		}
	}
	return alert
}

// precharge passes a row close to bank's guards and reports whether any
// of them now requests an alert.
func (p *plane) precharge(now int64, bank, row int, openNs int64, counterUpdate bool) bool {
	alert := false
	for _, g := range p.bankGuards(bank) {
		if g.PrechargeClose(now, row, openNs, counterUpdate) {
			alert = true
		}
	}
	return alert
}

// refresh runs the REF work of bank's guards unless the bank is quiet,
// counts their mitigations into st (reporting chip 0's to obs, when
// set), and reports whether any guard now requests an alert.
func (p *plane) refresh(now int64, bank int, st *Stats, obs Observer) bool {
	if p.quiet[bank] {
		return false
	}
	alert := false
	for c, g := range p.bankGuards(bank) {
		recordMitigations(st, obs, now, bank, c, g.Refresh(now))
		if g.AlertRequested() {
			alert = true
		}
	}
	p.noteQuiet(bank)
	return alert
}

// noteQuiet marks bank quiet when every chip's guard there reports
// Quiet after its REF or RFM work.
func (p *plane) noteQuiet(bank int) {
	for _, g := range p.bankGuards(bank) {
		if !g.Quiet() {
			return
		}
	}
	p.quiet[bank] = true
}

// Rider is a guard plane that watches a device's command stream without
// acting on it. It gets the same ACT, PRE and REF calls as the device's
// own guards, keeps its own quiet marks and mitigation counts, and
// never drives ALERT. Its guards therefore end in the state they would
// reach as the device's own guards, for as long as that device would
// issue the same commands: until one of them asks for an alert, or the
// device serves an RFM the rider did not ask for. Either marks the
// rider diverged, and it gets no further calls.
type Rider struct {
	plane
	stats Stats
	// diverged is the mark one config's riders share across devices:
	// the first of them to diverge sets it, and every device drops the
	// others at its next ACT, PRE, REF or RFM.
	diverged *bool
}

// Stats returns the rider's counts. Only Mitigations and
// GuardMitigations are kept; every command count is the device's.
func (r *Rider) Stats() Stats { return r.stats }

// Diverged reports whether the rider stopped watching because its
// guards or the device left the stream its own run would issue.
func (r *Rider) Diverged() bool { return *r.diverged }

// Device is one DDR5 subchannel.
type Device struct {
	cfg   Config
	banks []bankState
	// plane holds the device's own guards, the ones that drive ALERT.
	plane
	// riders are the attached planes that have not diverged.
	riders []*Rider

	refreshGroup  int // next refresh group index
	refreshGroups int // total groups (8192 in the default geometry)
	rowsPerGroup  int
	blockedUntil  int64 // REF or RFM in progress until this time

	alertPending   bool
	actsSinceAlert int64 // JEDEC: non-zero ACTs required between ALERTs

	faw    [4]int64 // issue times of the last four ACTs (rolling, tFAW)
	fawIdx int

	log cmdLog

	modeRegs map[int]uint8

	trc *telemetry.DeviceTracks

	stats Stats
}

// Stats counts device-level events.
type Stats struct {
	Activates        int64
	Reads            int64
	Writes           int64
	Precharges       int64
	PrechargesCU     int64
	Refreshes        int64
	RFMs             int64
	Alerts           int64
	Mitigations      int64
	GuardMitigations int64 // mitigations summed over chips (>= Mitigations)
}

// RefreshGroups is the number of refresh groups the 32 ms window is
// divided into (one group refreshed per REF).
const RefreshGroups = 8192

// NewDevice constructs a subchannel device. The zero-value Config fields
// default to the paper's Table 3 organisation.
func NewDevice(cfg Config) (*Device, error) {
	d := new(Device)
	if err := d.Init(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Init sets d, zero or used before, up as NewDevice does. A used device
// keeps the storage of its bank state and mode registers; its guards,
// riders and command log are built anew, so none of them is shared with
// what the last run left behind.
func (d *Device) Init(cfg Config) error {
	if cfg.Banks <= 0 {
		cfg.Banks = 32
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 1 << 16
	}
	if cfg.Chips <= 0 {
		cfg.Chips = 1
	}
	if cfg.RFMLevel <= 0 {
		cfg.RFMLevel = 1
	}
	if err := cfg.Timing.Validate(); err != nil {
		return err
	}
	clear(d.modeRegs)
	*d = Device{
		cfg:           cfg,
		banks:         slices.Grow(d.banks[:0], cfg.Banks)[:cfg.Banks],
		plane:         newPlane(cfg.Banks, cfg.Chips, cfg.NewGuard),
		refreshGroups: RefreshGroups,
		rowsPerGroup:  cfg.Rows / RefreshGroups,
		modeRegs:      d.modeRegs,
		trc:           cfg.Trace,
	}
	if d.rowsPerGroup == 0 {
		d.rowsPerGroup = 1
		d.refreshGroups = cfg.Rows
	}
	for b := range d.banks {
		d.banks[b] = bankState{openRow: -1}
	}
	if cfg.LogDepth > 0 {
		d.log.entries = make([]LogEntry, 0, cfg.LogDepth)
	}
	return nil
}

// AddRider attaches a rider plane of chips guards per bank, built by
// newGuard(chip, bank) (nil builds NopGuards). diverged is the
// divergence mark the rider shares with its config's riders on other
// devices; nil gives it a mark of its own. Attach riders before the
// first command.
func (d *Device) AddRider(chips int, newGuard func(chip, bank int) BankGuard, diverged *bool) *Rider {
	if diverged == nil {
		diverged = new(bool)
	}
	r := &Rider{plane: newPlane(d.cfg.Banks, max(chips, 1), newGuard), diverged: diverged}
	d.riders = append(d.riders, r)
	return r
}

// dropRider detaches riders[i] as diverged.
func (d *Device) dropRider(i int) {
	d.riders[i].diverge()
	d.riders = append(d.riders[:i], d.riders[i+1:]...)
}

// diverge marks r diverged and releases its guards. Only riders that
// never diverged are read after a run, so its mark and counts are all
// it keeps.
func (r *Rider) diverge() {
	*r.diverged = true
	r.guards, r.quiet = nil, nil
}

// Rows returns the number of rows per bank.
func (d *Device) Rows() int { return d.cfg.Rows }

// Timing returns the device's timing parameters.
func (d *Device) Timing() timing.Params { return d.cfg.Timing }

// Stats returns a copy of the device event counters.
func (d *Device) Stats() Stats { return d.stats }

// MRMoPACPMenu is the mode register holding the MoPAC-C p-menu code
// (§5.2: the controller and the DRAM chip must share the update
// probability so the chip can set the matching ATH*; JEDEC already uses
// mode registers this way, e.g. for the RFM count under ABO).
const MRMoPACPMenu = 45

// PMenuCode maps an update-probability denominator 1/p to the §5.2 menu
// code written into MRMoPACPMenu: code k selects p = 1/2^(k+1), so
// 2<<code decodes it. The paper sketches a 2-bit menu for 1/2..1/16,
// extended here to cover the 1/64 used at T_RH = 4000.
func PMenuCode(invP int) (uint8, error) {
	code := uint8(0)
	for v := 2; v <= 64; v *= 2 {
		if v == invP {
			return code, nil
		}
		code++
	}
	return 0, fmt.Errorf("dram: 1/%d is not on the MoPAC-C p menu", invP)
}

// WriteModeRegister stores a mode-register value (an MRW command).
func (d *Device) WriteModeRegister(idx int, v uint8) {
	if d.modeRegs == nil {
		d.modeRegs = make(map[int]uint8)
	}
	d.modeRegs[idx] = v
}

// ModeRegister reads back a mode-register value (0 when never written).
func (d *Device) ModeRegister(idx int) uint8 { return d.modeRegs[idx] }

// OpenRow returns the open row in bank, or -1 when precharged.
func (d *Device) OpenRow(bank int) int { return d.banks[bank].openRow }

// RowOpenSince returns the time of the opening ACT for bank; only
// meaningful while a row is open.
func (d *Device) RowOpenSince(bank int) int64 { return d.banks[bank].openedAt }

func (d *Device) checkBank(bank int) *bankState {
	if bank < 0 || bank >= len(d.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range", bank))
	}
	return &d.banks[bank]
}

// EarliestActivate returns the earliest time an ACT to bank may issue.
// The bank must be precharged; calling this with a row open returns the
// earliest time assuming a PRE is issued at its own earliest time with
// the normal precharge. The rolling four-activate window (tFAW) is
// included: the fifth ACT must wait for the oldest of the last four
// plus tFAW.
func (d *Device) EarliestActivate(bank int) int64 {
	b := d.checkBank(bank)
	t := max(b.earliestACT, d.blockedUntil)
	if b.openRow >= 0 {
		pre := max(b.earliestPRE, d.blockedUntil)
		t = max(t, pre+d.cfg.Timing.TRP)
	}
	if faw := d.faw[d.fawIdx]; faw > 0 || d.stats.Activates >= 4 {
		t = max(t, faw+d.cfg.Timing.TFAW)
	}
	return t
}

// Activate opens row in bank at time now.
func (d *Device) Activate(now int64, bank, row int) {
	b := d.checkBank(bank)
	if row < 0 || row >= d.cfg.Rows {
		panic(fmt.Sprintf("dram: row %d out of range", row))
	}
	if b.openRow >= 0 {
		panic(fmt.Sprintf("dram: ACT to bank %d with row %d open", bank, b.openRow))
	}
	if now < b.earliestACT || now < d.blockedUntil {
		panic(fmt.Sprintf("dram: ACT to bank %d at %d before earliest %d/%d",
			bank, now, b.earliestACT, d.blockedUntil))
	}
	if d.stats.Activates >= 4 && now < d.faw[d.fawIdx]+d.cfg.Timing.TFAW {
		panic(fmt.Sprintf("dram: ACT to bank %d at %d violates tFAW (oldest of last four at %d)",
			bank, now, d.faw[d.fawIdx]))
	}
	tm := &d.cfg.Timing
	b.openRow = row
	b.openedAt = now
	b.earliestRD = now + tm.TRCD
	b.earliestPRE = now + tm.TRAS
	b.earliestPRECU = now + tm.TRASCU
	d.faw[d.fawIdx] = now
	d.fawIdx = (d.fawIdx + 1) % len(d.faw)
	d.log.record(LogEntry{At: now, Cmd: CmdACT, Bank: bank, Row: row})
	d.stats.Activates++
	d.actsSinceAlert++
	if d.trc != nil {
		d.trc.Act(now, bank, row)
	}
	if d.activate(now, bank, row) {
		d.markAlert(now)
	}
	for i := 0; i < len(d.riders); {
		if r := d.riders[i]; r.Diverged() || r.activate(now, bank, row) {
			d.dropRider(i)
			continue
		}
		i++
	}
	if d.cfg.Observer != nil {
		d.cfg.Observer.ObserveActivate(now, bank, row)
	}
}

// markAlert latches the ALERT request, tracing the false-to-true
// transition.
func (d *Device) markAlert(now int64) {
	if !d.alertPending && d.trc != nil {
		d.trc.Alert(now)
	}
	d.alertPending = true
}

// EarliestRead returns the earliest time a column read may issue to the
// open row of bank. The bank must have a row open.
func (d *Device) EarliestRead(bank int) int64 {
	b := d.checkBank(bank)
	if b.openRow < 0 {
		panic(fmt.Sprintf("dram: EarliestRead on precharged bank %d", bank))
	}
	return max(b.earliestRD, d.blockedUntil)
}

// Read issues a column read at time now and returns the time the 64 B
// data transfer completes (now + tCL + tBURST). Bus contention is the
// controller's concern.
func (d *Device) Read(now int64, bank int) int64 {
	b := d.checkBank(bank)
	if b.openRow < 0 {
		panic(fmt.Sprintf("dram: RD to precharged bank %d", bank))
	}
	if now < b.earliestRD || now < d.blockedUntil {
		panic(fmt.Sprintf("dram: RD to bank %d at %d before earliest %d", bank, now, b.earliestRD))
	}
	d.log.record(LogEntry{At: now, Cmd: CmdRD, Bank: bank, Row: b.openRow})
	d.stats.Reads++
	if d.trc != nil {
		d.trc.Read(now, bank, b.openRow)
	}
	return now + d.cfg.Timing.TCL + d.cfg.Timing.TBURST
}

// Write issues a column write at time now and returns the time the data
// transfer completes (now + tWL + tBURST). Write recovery (tWR) pushes
// the bank's earliest precharge out past the data-in burst.
func (d *Device) Write(now int64, bank int) int64 {
	b := d.checkBank(bank)
	if b.openRow < 0 {
		panic(fmt.Sprintf("dram: WR to precharged bank %d", bank))
	}
	if now < b.earliestRD || now < d.blockedUntil {
		panic(fmt.Sprintf("dram: WR to bank %d at %d before earliest %d", bank, now, b.earliestRD))
	}
	tm := &d.cfg.Timing
	done := now + tm.TWL + tm.TBURST
	if pre := done + tm.TWR; pre > b.earliestPRE {
		b.earliestPRE = pre
	}
	if pre := done + tm.TWR; pre > b.earliestPRECU {
		b.earliestPRECU = pre
	}
	d.log.record(LogEntry{At: now, Cmd: CmdWR, Bank: bank, Row: b.openRow})
	d.stats.Writes++
	if d.trc != nil {
		d.trc.Write(now, bank, b.openRow)
	}
	return done
}

// EarliestPrecharge returns the earliest time the open row of bank may be
// closed with PRE (counterUpdate false) or PREcu (true).
func (d *Device) EarliestPrecharge(bank int, counterUpdate bool) int64 {
	b := d.checkBank(bank)
	if b.openRow < 0 {
		panic(fmt.Sprintf("dram: EarliestPrecharge on precharged bank %d", bank))
	}
	t := b.earliestPRE
	if counterUpdate {
		t = b.earliestPRECU
	}
	return max(t, d.blockedUntil)
}

// Precharge closes the open row of bank at time now. counterUpdate
// selects PREcu, which performs the PRAC counter read-modify-write and
// uses the longer tRPcu. It returns the closed row.
func (d *Device) Precharge(now int64, bank int, counterUpdate bool) int {
	b := d.checkBank(bank)
	if b.openRow < 0 {
		panic(fmt.Sprintf("dram: PRE to precharged bank %d", bank))
	}
	if now < d.EarliestPrecharge(bank, counterUpdate) {
		panic(fmt.Sprintf("dram: PRE to bank %d at %d before earliest", bank, now))
	}
	tm := &d.cfg.Timing
	row := b.openRow
	openNs := now - b.openedAt
	b.openRow = -1
	if counterUpdate {
		b.earliestACT = now + tm.TRPCU
		d.stats.PrechargesCU++
		d.log.record(LogEntry{At: now, Cmd: CmdPRECU, Bank: bank, Row: row})
	} else {
		b.earliestACT = now + tm.TRP
		d.stats.Precharges++
		d.log.record(LogEntry{At: now, Cmd: CmdPRE, Bank: bank, Row: row})
	}
	if d.trc != nil {
		d.trc.Precharge(now, bank, row, counterUpdate, openNs)
	}
	if d.precharge(now, bank, row, openNs, counterUpdate) {
		d.markAlert(now)
	}
	for i := 0; i < len(d.riders); {
		if r := d.riders[i]; r.Diverged() || r.precharge(now, bank, row, openNs, counterUpdate) {
			d.dropRider(i)
			continue
		}
		i++
	}
	return row
}

// AllPrecharged reports whether every bank is closed (required before
// REF and RFM).
func (d *Device) AllPrecharged() bool {
	for i := range d.banks {
		if d.banks[i].openRow >= 0 {
			return false
		}
	}
	return true
}

// EarliestRefresh returns the earliest time a REF or RFM may issue once
// all banks are precharged: every bank's precharge (tRP) must have
// completed and any in-progress REF/RFM must have finished.
func (d *Device) EarliestRefresh() int64 {
	t := d.blockedUntil
	for i := range d.banks {
		if d.banks[i].earliestACT > t {
			t = d.banks[i].earliestACT
		}
	}
	return t
}

// Refresh performs one periodic REF at time now: all banks refresh the
// next refresh group and are unavailable for tRFC. Guards run their
// drain-on-REF work. All banks must be precharged.
func (d *Device) Refresh(now int64) {
	if !d.AllPrecharged() {
		panic("dram: REF with open rows")
	}
	if now < d.EarliestRefresh() {
		panic("dram: REF before precharges completed")
	}
	tm := &d.cfg.Timing
	d.blockedUntil = now + tm.TRFC
	for i := range d.banks {
		if d.banks[i].earliestACT < d.blockedUntil {
			d.banks[i].earliestACT = d.blockedUntil
		}
	}
	d.log.record(LogEntry{At: now, Cmd: CmdREF, Bank: -1, Row: -1})
	rowLo := d.refreshGroup * d.rowsPerGroup
	rowHi := rowLo + d.rowsPerGroup
	d.refreshGroup = (d.refreshGroup + 1) % d.refreshGroups
	d.stats.Refreshes++
	if d.trc != nil {
		d.trc.Refresh(now, tm.TRFC)
	}
	for bank := 0; bank < d.cfg.Banks; bank++ {
		if d.cfg.Observer != nil {
			d.cfg.Observer.ObserveRefresh(now, bank, rowLo, rowHi)
		}
		if d.refresh(now, bank, &d.stats, d.cfg.Observer) {
			d.markAlert(now)
		}
	}
	for i := 0; i < len(d.riders); {
		// A rider that asks for an alert at one bank is dropped, so the
		// rest of its banks need no REF work.
		r := d.riders[i]
		drop := r.Diverged()
		for bank := 0; bank < d.cfg.Banks && !drop; bank++ {
			drop = r.refresh(now, bank, &r.stats, nil)
		}
		if drop {
			d.dropRider(i)
			continue
		}
		i++
	}
}

// AlertRequested reports whether the device is asserting ALERT. The
// JEDEC requirement of at least one activation between ALERTs is
// enforced: a pending request stays masked until an ACT arrives.
func (d *Device) AlertRequested() bool {
	return d.alertPending && d.actsSinceAlert > 0
}

// ServeABO performs the RFM issued in response to ALERT at time now: all
// banks are unavailable for tRFM while every bank guard on every chip
// runs its alert action (draining SRQs or mitigating its tracked row).
// All banks must be precharged.
func (d *Device) ServeABO(now int64) {
	if !d.AllPrecharged() {
		panic("dram: RFM with open rows")
	}
	if now < d.EarliestRefresh() {
		panic("dram: RFM before precharges completed")
	}
	level := int64(d.cfg.RFMLevel)
	d.blockedUntil = now + level*d.cfg.Timing.TRFM
	for i := range d.banks {
		if d.banks[i].earliestACT < d.blockedUntil {
			d.banks[i].earliestACT = d.blockedUntil
		}
	}
	d.log.record(LogEntry{At: now, Cmd: CmdRFM, Bank: -1, Row: -1})
	d.stats.RFMs += level
	d.stats.Alerts++
	d.alertPending = false
	d.actsSinceAlert = 0
	if d.trc != nil {
		d.trc.ABO(now, level*d.cfg.Timing.TRFM)
	}
	// A rider's own run would not have served this RFM.
	for _, r := range d.riders {
		r.diverge()
	}
	d.riders = nil
	for rfm := 0; rfm < d.cfg.RFMLevel; rfm++ {
		for bank := 0; bank < d.cfg.Banks; bank++ {
			if d.quiet[bank] {
				continue
			}
			for c, g := range d.bankGuards(bank) {
				mits := g.ABOAction(now + int64(rfm)*d.cfg.Timing.TRFM)
				recordMitigations(&d.stats, d.cfg.Observer, now, bank, c, mits)
				if g.AlertRequested() {
					d.markAlert(now)
				}
			}
			d.noteQuiet(bank)
		}
	}
}

// recordMitigations counts guard mitigations into st and forwards them
// to obs (when set). Only chip 0's mitigations count in Mitigations and
// reach the observer, so the same physical victim refresh is not
// counted once per replicated chip; all chips contribute to
// GuardMitigations.
func recordMitigations(st *Stats, obs Observer, now int64, bank, chip int, mits []Mitigation) {
	st.GuardMitigations += int64(len(mits))
	if chip != 0 {
		return
	}
	for _, m := range mits {
		st.Mitigations++
		if obs != nil {
			obs.ObserveMitigation(now, bank, m.Row)
		}
	}
}
