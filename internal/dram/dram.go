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
	// Activate notifies an ACT to row at time now.
	Activate(now int64, row int)
	// PrechargeClose notifies that the open row closed after openNs of
	// row-open time. counterUpdate reports whether the precharge
	// performed the PRAC counter read-modify-write (always true under
	// PRAC timings, probabilistic under MoPAC-C, never under MoPAC-D).
	PrechargeClose(now int64, row int, openNs int64, counterUpdate bool)
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
}

// nopGuard is the baseline DRAM with no Rowhammer mitigation.
type nopGuard struct{}

func (nopGuard) Activate(int64, int)                    {}
func (nopGuard) PrechargeClose(int64, int, int64, bool) {}
func (nopGuard) Refresh(int64) []Mitigation             { return nil }
func (nopGuard) ABOAction(int64) []Mitigation           { return nil }
func (nopGuard) AlertRequested() bool                   { return false }

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

// Device is one DDR5 subchannel.
type Device struct {
	cfg    Config
	banks  []bankState
	guards [][]BankGuard // [chip][bank]

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
		return nil, err
	}
	d := &Device{
		cfg:           cfg,
		banks:         make([]bankState, cfg.Banks),
		guards:        make([][]BankGuard, cfg.Chips),
		refreshGroups: RefreshGroups,
		rowsPerGroup:  cfg.Rows / RefreshGroups,
		trc:           cfg.Trace,
	}
	if d.rowsPerGroup == 0 {
		d.rowsPerGroup = 1
		d.refreshGroups = cfg.Rows
	}
	for c := 0; c < cfg.Chips; c++ {
		d.guards[c] = make([]BankGuard, cfg.Banks)
		for b := 0; b < cfg.Banks; b++ {
			if cfg.NewGuard != nil {
				d.guards[c][b] = cfg.NewGuard(c, b)
			} else {
				d.guards[c][b] = NopGuard()
			}
		}
	}
	for b := range d.banks {
		d.banks[b].openRow = -1
	}
	if cfg.LogDepth > 0 {
		d.log.entries = make([]LogEntry, 0, cfg.LogDepth)
	}
	return d, nil
}

// Banks returns the number of banks in the subchannel.
func (d *Device) Banks() int { return d.cfg.Banks }

// Rows returns the number of rows per bank.
func (d *Device) Rows() int { return d.cfg.Rows }

// Chips returns the number of replicated mitigation chips.
func (d *Device) Chips() int { return d.cfg.Chips }

// Timing returns the device's timing parameters.
func (d *Device) Timing() timing.Params { return d.cfg.Timing }

// Stats returns a copy of the device event counters.
func (d *Device) Stats() Stats { return d.stats }

// MRMoPACPMenu is the mode register holding the MoPAC-C p-menu code
// (§5.2: the controller and the DRAM chip must share the update
// probability so the chip can set the matching ATH*; JEDEC already uses
// mode registers this way, e.g. for the RFM count under ABO).
const MRMoPACPMenu = 45

// WriteModeRegister stores a mode-register value (an MRW command).
func (d *Device) WriteModeRegister(idx int, v uint8) {
	if d.modeRegs == nil {
		d.modeRegs = make(map[int]uint8)
	}
	d.modeRegs[idx] = v
}

// ModeRegister reads back a mode-register value (0 when never written).
func (d *Device) ModeRegister(idx int) uint8 { return d.modeRegs[idx] }

// Guard returns the guard instance for (chip, bank), for tests and stats.
func (d *Device) Guard(chip, bank int) BankGuard { return d.guards[chip][bank] }

// OpenRow returns the open row in bank, or -1 when precharged.
func (d *Device) OpenRow(bank int) int { return d.banks[bank].openRow }

// RowOpenSince returns the time of the opening ACT for bank; only
// meaningful while a row is open.
func (d *Device) RowOpenSince(bank int) int64 { return d.banks[bank].openedAt }

// BlockedUntil returns the end of any in-progress REF or RFM.
func (d *Device) BlockedUntil() int64 { return d.blockedUntil }

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
	t := max64(b.earliestACT, d.blockedUntil)
	if b.openRow >= 0 {
		pre := max64(b.earliestPRE, d.blockedUntil)
		t = max64(t, pre+d.cfg.Timing.TRP)
	}
	if faw := d.faw[d.fawIdx]; faw > 0 || d.stats.Activates >= 4 {
		t = max64(t, faw+d.cfg.Timing.TFAW)
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
	tm := d.cfg.Timing
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
	for c := range d.guards {
		g := d.guards[c][bank]
		g.Activate(now, row)
		if g.AlertRequested() {
			d.markAlert(now)
		}
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
	return max64(b.earliestRD, d.blockedUntil)
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
	tm := d.cfg.Timing
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
	return max64(t, d.blockedUntil)
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
	tm := d.cfg.Timing
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
	for c := range d.guards {
		g := d.guards[c][bank]
		g.PrechargeClose(now, row, openNs, counterUpdate)
		if g.AlertRequested() {
			d.markAlert(now)
		}
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
	tm := d.cfg.Timing
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
		for c := range d.guards {
			g := d.guards[c][bank]
			mits := g.Refresh(now)
			d.recordMitigations(now, bank, c, mits)
			if g.AlertRequested() {
				d.markAlert(now)
			}
		}
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
	for rfm := 0; rfm < d.cfg.RFMLevel; rfm++ {
		for bank := 0; bank < d.cfg.Banks; bank++ {
			for c := range d.guards {
				g := d.guards[c][bank]
				mits := g.ABOAction(now + int64(rfm)*d.cfg.Timing.TRFM)
				d.recordMitigations(now, bank, c, mits)
				if g.AlertRequested() {
					d.markAlert(now)
				}
			}
		}
	}
}

// recordMitigations forwards guard mitigations to the observer. Only
// chip 0's mitigations are reported to the observer to avoid counting
// the same physical victim refresh once per replicated chip; all chips
// contribute to GuardMitigations.
func (d *Device) recordMitigations(now int64, bank, chip int, mits []Mitigation) {
	d.stats.GuardMitigations += int64(len(mits))
	if chip != 0 {
		return
	}
	for _, m := range mits {
		d.stats.Mitigations++
		if d.cfg.Observer != nil {
			d.cfg.Observer.ObserveMitigation(now, bank, m.Row)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
