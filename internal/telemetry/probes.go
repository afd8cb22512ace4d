package telemetry

import "fmt"

// The probe views below pre-resolve track ids for one component so the
// per-event path is a method call on a concrete pointer plus one ring
// write. Components hold the view pointer and guard every probe with a
// nil-check; a nil view is the disabled state.

// DeviceTracks instruments one DRAM subchannel device: a command track
// per bank plus a device-wide track for REF/RFM/ALERT.
type DeviceTracks struct {
	t    *Tracer
	dev  int32
	bank []int32
}

// Device registers the tracks for a subchannel named name with the
// given bank count ("sub0" plus "sub0/bank00".."sub0/bankNN").
func (t *Tracer) Device(name string, banks int) *DeviceTracks {
	d := &DeviceTracks{t: t, dev: t.NewTrack(name)}
	d.bank = make([]int32, banks)
	for b := 0; b < banks; b++ {
		d.bank[b] = t.NewTrack(fmt.Sprintf("%s/bank%02d", name, b))
	}
	return d
}

// Act records an ACT opening row in bank.
func (d *DeviceTracks) Act(now int64, bank, row int) {
	d.t.Emit(d.bank[bank], KindACT, now, 0, int32(row), 0)
}

// Read records a column read of the open row.
func (d *DeviceTracks) Read(now int64, bank, row int) {
	d.t.Emit(d.bank[bank], KindRD, now, 0, int32(row), 0)
}

// Write records a column write to the open row.
func (d *DeviceTracks) Write(now int64, bank, row int) {
	d.t.Emit(d.bank[bank], KindWR, now, 0, int32(row), 0)
}

// Precharge records the row closure (PRE or PREcu) plus the
// retroactive ACT..PRE row-open span.
func (d *DeviceTracks) Precharge(now int64, bank, row int, counterUpdate bool, openNs int64) {
	k := KindPRE
	if counterUpdate {
		k = KindPRECU
	}
	d.t.Emit(d.bank[bank], k, now, 0, int32(row), 0)
	d.t.Emit(d.bank[bank], KindRowOpen, now-openNs, openNs, int32(row), 0)
}

// Refresh records a periodic REF occupying the device for dur.
func (d *DeviceTracks) Refresh(now, dur int64) {
	d.t.Emit(d.dev, KindREF, now, dur, 0, 0)
}

// ABO records the RFM window serving an ALERT.
func (d *DeviceTracks) ABO(now, dur int64) {
	d.t.Emit(d.dev, KindRFM, now, dur, 0, 0)
}

// Alert records the device newly asserting ALERT.
func (d *DeviceTracks) Alert(now int64) {
	d.t.Emit(d.dev, KindALERT, now, 0, 0, 0)
}

// MCTracks instruments one memory controller.
type MCTracks struct {
	t   *Tracer
	ctl int32
}

// MC registers a controller track.
func (t *Tracer) MC(name string) *MCTracks {
	return &MCTracks{t: t, ctl: t.NewTrack(name)}
}

// QueueDepth samples the pending-request count after an arrival or a
// completion.
func (m *MCTracks) QueueDepth(now int64, depth int) {
	m.t.Emit(m.ctl, KindQueueDepth, now, 0, 0, int32(depth))
}

// SchedHit records an FR-FCFS row-hit issue decision.
func (m *MCTracks) SchedHit(now int64, bank, row int) {
	m.t.Emit(m.ctl, KindSchedHit, now, 0, int32(bank), int32(row))
}

// SchedMiss records a row-miss activation decision.
func (m *MCTracks) SchedMiss(now int64, bank, row int) {
	m.t.Emit(m.ctl, KindSchedMiss, now, 0, int32(bank), int32(row))
}

// SchedConflict records a conflict precharge decision.
func (m *MCTracks) SchedConflict(now int64, bank, row int) {
	m.t.Emit(m.ctl, KindSchedConflict, now, 0, int32(bank), int32(row))
}

// ABOStall records the ALERT-deadline..RFM-end stall span.
func (m *MCTracks) ABOStall(start, dur int64) {
	m.t.Emit(m.ctl, KindABOStall, start, dur, 0, 0)
}

// REFStall records a refresh execution span.
func (m *MCTracks) REFStall(start, dur int64) {
	m.t.Emit(m.ctl, KindREFStall, start, dur, 0, 0)
}

// Request records one serviced request as its arrive..data-complete
// span; the duration feeds the read-latency histogram sink.
func (m *MCTracks) Request(arrive, dur int64, bank, row int) {
	m.t.Emit(m.ctl, KindReqServed, arrive, dur, int32(bank), int32(row))
}

// GuardTracks instruments the mitigation engines of one subchannel
// (chip 0 only, mirroring the device's observer convention, so
// replicated chips do not multiply events).
type GuardTracks struct {
	t   *Tracer
	mit int32
}

// Mitigation registers a mitigation track.
func (t *Tracer) Mitigation(name string) *GuardTracks {
	return &GuardTracks{t: t, mit: t.NewTrack(name)}
}

// Mitigated records a guard victim-refreshing aggressor row in bank.
func (g *GuardTracks) Mitigated(now int64, bank, row int) {
	g.t.Emit(g.mit, KindMitigation, now, 0, int32(bank), int32(row))
}

// Drain records a MoPAC-D SRQ drain of n entries in bank.
func (g *GuardTracks) Drain(now int64, bank, n int) {
	g.t.Emit(g.mit, KindDrain, now, 0, int32(bank), int32(n))
}

// SRQDepth samples a bank's SRQ occupancy after it changed.
func (g *GuardTracks) SRQDepth(now int64, bank, depth int) {
	g.t.Emit(g.mit, KindSRQDepth, now, 0, int32(bank), int32(depth))
}

// CoreTracks instruments one core.
type CoreTracks struct {
	t    *Tracer
	core int32
}

// Core registers a core track.
func (t *Tracer) Core(name string) *CoreTracks {
	return &CoreTracks{t: t, core: t.NewTrack(name)}
}

// Issue records a memory access leaving the core (write=stores).
func (c *CoreTracks) Issue(now int64, write bool) {
	var w int32
	if write {
		w = 1
	}
	c.t.Emit(c.core, KindIssue, now, 0, 0, w)
}

// Served records one read miss's issue..data-return span.
func (c *CoreTracks) Served(issuedAt, dur int64) {
	c.t.Emit(c.core, KindMissServed, issuedAt, dur, 0, 0)
}
