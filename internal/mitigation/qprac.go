package mitigation

import (
	"fmt"

	"mopac/internal/dram"
	"mopac/internal/security"
)

// QPRAC (Woo et al., HPCA'25) is the other secure PRAC implementation
// the paper cites in §9.1: instead of MOAT's single tracked entry, each
// bank keeps a small priority queue of the hottest rows and services
// the queue head *proactively* during periodic REF, so the ABO backstop
// almost never fires. We include it as an alternative PRAC backend; the
// comparison experiment shows it trades MOAT's ABO stalls for
// REF-shadow mitigations under attack.

// QPRACConfig parameterises one bank's QPRAC engine.
type QPRACConfig struct {
	// QueueSize is the per-bank priority-queue depth.
	QueueSize int
	// AlertAt is the ABO backstop threshold (the MOAT ATH).
	AlertAt int
	// ProactiveAt is the minimum counter value for a proactive REF-time
	// mitigation (avoids wasting REF budget on cold rows).
	ProactiveAt int
	// Increment is the counter weight of one update (1 for PRAC).
	Increment int
	// MitigatePerREFs services the queue head every that many REFs.
	MitigatePerREFs int
	// BlastRadius and Rows control victim refresh.
	BlastRadius int
	Rows        int
}

// QPRACFromParams builds a QPRAC configuration from derived PRAC
// parameters: backstop at ATH, proactive service above ETH.
func QPRACFromParams(p security.Params, rows int) QPRACConfig {
	return QPRACConfig{
		QueueSize:       8,
		AlertAt:         p.ATH,
		ProactiveAt:     p.ATH / 4,
		Increment:       p.UpdateWeight(),
		MitigatePerREFs: 1,
		BlastRadius:     security.BlastRadius,
		Rows:            rows,
	}
}

// qpracEntry is one priority-queue slot.
type qpracEntry struct {
	row   int
	count int
}

// QPRACStats counts engine events.
type QPRACStats struct {
	CounterUpdates       int64
	ProactiveMitigations int64
	ABOMitigations       int64
	AlertsRaised         int64
}

// QPRAC is the priority-queue PRAC backend for one bank.
type QPRAC struct {
	cfg      QPRACConfig
	counters pracCounters
	queue    []qpracEntry // kept sorted descending by count; small
	refs     int
	alert    bool
	stats    QPRACStats
}

var _ dram.BankGuard = (*QPRAC)(nil)

// NewQPRAC returns a QPRAC engine for one bank.
func NewQPRAC(cfg QPRACConfig) *QPRAC {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 8
	}
	if cfg.AlertAt <= 0 {
		panic(fmt.Sprintf("mitigation: QPRAC AlertAt = %d", cfg.AlertAt))
	}
	if cfg.Increment <= 0 {
		cfg.Increment = 1
	}
	if cfg.MitigatePerREFs <= 0 {
		cfg.MitigatePerREFs = 1
	}
	if cfg.BlastRadius <= 0 {
		cfg.BlastRadius = security.BlastRadius
	}
	return &QPRAC{cfg: cfg}
}

// Stats returns a copy of the engine statistics.
func (q *QPRAC) Stats() QPRACStats { return q.stats }

// Counter returns the PRAC counter of row.
func (q *QPRAC) Counter(row int) int { return q.counters.get(row) }

// QueueLen returns the priority-queue occupancy.
func (q *QPRAC) QueueLen() int { return len(q.queue) }

// Activate implements dram.BankGuard.
func (q *QPRAC) Activate(int64, int) bool { return q.alert }

// PrechargeClose implements dram.BankGuard.
func (q *QPRAC) PrechargeClose(_ int64, row int, _ int64, counterUpdate bool) bool {
	if !counterUpdate {
		return q.alert
	}
	q.stats.CounterUpdates++
	c := q.counters.add(row, q.cfg.Increment)
	q.place(row, c)
	if c >= q.cfg.AlertAt && !q.alert {
		q.alert = true
		q.stats.AlertsRaised++
	}
	return q.alert
}

// place inserts or re-ranks row in the bounded priority queue.
func (q *QPRAC) place(row, count int) {
	for i := range q.queue {
		if q.queue[i].row == row {
			q.queue[i].count = count
			q.bubble(i)
			return
		}
	}
	if len(q.queue) < q.cfg.QueueSize {
		q.queue = append(q.queue, qpracEntry{row, count})
		q.bubble(len(q.queue) - 1)
		return
	}
	// Replace the coldest entry if this row is hotter.
	last := len(q.queue) - 1
	if count > q.queue[last].count {
		q.queue[last] = qpracEntry{row, count}
		q.bubble(last)
	}
}

// bubble restores descending order after queue[i] grew.
func (q *QPRAC) bubble(i int) {
	for i > 0 && q.queue[i].count > q.queue[i-1].count {
		q.queue[i], q.queue[i-1] = q.queue[i-1], q.queue[i]
		i--
	}
}

// popHot removes and returns the hottest queued row at or above min,
// or -1.
func (q *QPRAC) popHot(min int) int {
	if len(q.queue) == 0 || q.queue[0].count < min {
		return -1
	}
	row := q.queue[0].row
	q.queue = q.queue[1:]
	return row
}

// mitigate performs the victim refresh bookkeeping.
func (q *QPRAC) mitigate(row int) []dram.Mitigation {
	q.counters.refreshVictims(row, q.cfg.BlastRadius, q.cfg.Rows)
	// Recompute the alert level from the remaining queue.
	q.alert = len(q.queue) > 0 && q.queue[0].count >= q.cfg.AlertAt
	return []dram.Mitigation{{Row: row}}
}

// Refresh implements dram.BankGuard: proactive service of the queue
// head in the REF shadow.
func (q *QPRAC) Refresh(int64) []dram.Mitigation {
	q.refs++
	if q.refs%q.cfg.MitigatePerREFs != 0 {
		return nil
	}
	row := q.popHot(q.cfg.ProactiveAt)
	if row < 0 {
		return nil
	}
	q.stats.ProactiveMitigations++
	return q.mitigate(row)
}

// ABOAction implements dram.BankGuard: the backstop mitigation.
func (q *QPRAC) ABOAction(int64) []dram.Mitigation {
	wasAlert := q.alert
	q.alert = false
	row := q.popHot(1)
	if row < 0 {
		return nil
	}
	if wasAlert {
		q.stats.ABOMitigations++
	}
	return q.mitigate(row)
}

// AlertRequested implements dram.BankGuard.
func (q *QPRAC) AlertRequested() bool { return q.alert }

// Quiet implements dram.BankGuard: the guard counts REFs, so it is
// never quiet.
func (q *QPRAC) Quiet() bool { return false }
