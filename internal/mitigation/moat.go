// Package mitigation implements the in-DRAM Rowhammer mitigation engines
// that plug into the dram.Device guard interface:
//
//   - MOAT: the single-entry per-bank tracker for PRAC+ABO (§2.6), which
//     also serves as the DRAM side of MoPAC-C with probabilistic
//     increments (§5).
//   - MoPACD: the fully in-DRAM MoPAC with the Selected Row Queue, MINT
//     window sampling, tardiness tracking, drain-on-REF, ABO draining,
//     the Non-Uniform Probability optimisation (§8), and the RowPress
//     extension (Appendix A).
//
// Each guard instance serves one bank of one chip and owns that bank's
// PRAC counters, so replicated chips make independent probabilistic
// choices (Appendix B).
package mitigation

import (
	"fmt"

	"mopac/internal/dram"
	"mopac/internal/security"
	"mopac/internal/telemetry"
)

// MOATConfig parameterises a MOAT tracker.
type MOATConfig struct {
	// AlertAt is the counter value at which ALERT is raised. For PRAC
	// this is the MOAT ATH; for MoPAC-C it is ATH* + 1/p (the counter
	// must exceed ATH*, i.e. the (C+1)-th update triggers).
	AlertAt int
	// ETH is the eligibility threshold: a tracked row below ETH is not
	// mitigated when an ABO (triggered by another bank) arrives.
	ETH int
	// Increment is the counter weight of one update: 1 for PRAC, 1/p
	// for MoPAC-C.
	Increment int
	// BlastRadius is the number of victim rows refreshed on each side of
	// a mitigated aggressor.
	BlastRadius int
	// Rows is the number of rows in the bank (victim refresh clamps to
	// the bank edges).
	Rows int
	// Trace receives mitigation telemetry for this bank; nil disables
	// tracing. TraceBank labels the emitted records.
	Trace     *telemetry.GuardTracks
	TraceBank int
}

// MOATFromParams builds the MOAT configuration for a derived security
// parameter set: the PRAC baseline uses ATH directly, MoPAC-C uses the
// trigger-on-exceed threshold (C+1)/p.
func MOATFromParams(p security.Params, rows int) MOATConfig {
	alertAt := p.ATH
	if p.Variant == security.VariantMoPACC {
		alertAt = p.AttackATHStar()
	}
	return MOATConfig{
		AlertAt:     alertAt,
		ETH:         p.ATH / 2,
		Increment:   p.UpdateWeight(),
		BlastRadius: security.BlastRadius,
		Rows:        rows,
	}
}

// MOATStats counts tracker events for one bank.
type MOATStats struct {
	CounterUpdates  int64
	Mitigations     int64
	AlertsRaised    int64
	SkippedBelowETH int64
}

// MOAT is the single-entry per-bank tracker of the MOAT design: it
// follows the row with the highest PRAC counter seen since the last
// mitigation and raises ALERT when that counter reaches the alert
// threshold.
type MOAT struct {
	cfg        MOATConfig
	counters   pracCounters
	trackedRow int
	trackedCnt int
	alert      bool
	stats      MOATStats
}

var _ dram.BankGuard = (*MOAT)(nil)

// NewMOAT returns a MOAT tracker for one bank.
func NewMOAT(cfg MOATConfig) *MOAT {
	if cfg.AlertAt <= 0 {
		panic(fmt.Sprintf("mitigation: MOAT AlertAt = %d", cfg.AlertAt))
	}
	if cfg.Increment <= 0 {
		cfg.Increment = 1
	}
	if cfg.BlastRadius <= 0 {
		cfg.BlastRadius = security.BlastRadius
	}
	return &MOAT{cfg: cfg, trackedRow: -1}
}

// Counter returns the PRAC counter of row as this chip sees it.
func (m *MOAT) Counter(row int) int { return m.counters.get(row) }

// Tracked returns the currently tracked row and its counter value
// (row -1 when nothing is tracked).
func (m *MOAT) Tracked() (row, count int) { return m.trackedRow, m.trackedCnt }

// Stats returns a copy of the tracker statistics.
func (m *MOAT) Stats() MOATStats { return m.stats }

// Activate implements dram.BankGuard. PRAC counters update at precharge,
// so activation is a no-op for MOAT.
func (m *MOAT) Activate(int64, int) bool { return m.alert }

// PrechargeClose implements dram.BankGuard: a counter-update precharge
// performs the read-modify-write and refreshes the tracked-max entry.
func (m *MOAT) PrechargeClose(_ int64, row int, _ int64, counterUpdate bool) bool {
	if counterUpdate {
		m.stats.CounterUpdates++
		m.bump(row, m.cfg.Increment)
	}
	return m.alert
}

func (m *MOAT) bump(row, by int) {
	c := m.counters.add(row, by)
	if c > m.trackedCnt {
		m.trackedRow, m.trackedCnt = row, c
	}
	if m.trackedCnt >= m.cfg.AlertAt && !m.alert {
		m.alert = true
		m.stats.AlertsRaised++
	}
}

// Refresh implements dram.BankGuard. MOAT performs no work under
// periodic refresh; mitigation happens exclusively under ABO.
func (m *MOAT) Refresh(int64) []dram.Mitigation { return nil }

// ABOAction implements dram.BankGuard: mitigate the tracked row if it is
// eligible; the tracked entry then moves to the hottest victim.
func (m *MOAT) ABOAction(now int64) []dram.Mitigation {
	m.alert = false
	if m.trackedRow < 0 {
		return nil
	}
	if m.trackedCnt < m.cfg.ETH {
		m.stats.SkippedBelowETH++
		return nil
	}
	row := m.trackedRow
	m.stats.Mitigations++
	m.trackedRow, m.trackedCnt = m.counters.refreshVictims(row, m.cfg.BlastRadius, m.cfg.Rows)
	if m.cfg.Trace != nil {
		m.cfg.Trace.Mitigated(now, m.cfg.TraceBank, row)
	}
	return []dram.Mitigation{{Row: row}}
}

// AlertRequested implements dram.BankGuard.
func (m *MOAT) AlertRequested() bool { return m.alert }

// Quiet implements dram.BankGuard: with no tracked row, ABOAction
// only clears an alert that cannot be raised and Refresh does nothing.
func (m *MOAT) Quiet() bool { return m.trackedRow < 0 }
