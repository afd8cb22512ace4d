package mitigation

import (
	"mopac/internal/dram"
	"mopac/internal/security"
)

// TRRConfig parameterises the legacy Target-Row-Refresh baseline (§2.4):
// a small Misra-Gries style tracker whose top entry is victim-refreshed
// in the shadow of periodic REF. TRR is included as the broken baseline
// the paper contrasts against — patterns with more aggressors than
// tracker entries (TRRespass, Blacksmith) bypass it, which the attack
// example and the oracle tests demonstrate.
type TRRConfig struct {
	// Entries is the tracker size (commercial TRR uses 1-32).
	Entries int
	// MitigatePerREFs mitigates the top entry once every this many REFs
	// (vendors typically mitigate every 4-8 REFs, §9.2).
	MitigatePerREFs int
	// BlastRadius and Rows control victim refresh.
	BlastRadius int
	Rows        int
}

// trrEntry is one tracker slot.
type trrEntry struct {
	row   int
	count int
}

// TRR is the legacy in-DRAM tracker. It never uses ABO.
type TRR struct {
	cfg     TRRConfig
	entries []trrEntry
	refs    int
	stats   TRRStats
}

// TRRStats counts tracker events.
type TRRStats struct {
	Mitigations int64
	Evictions   int64
}

var _ dram.BankGuard = (*TRR)(nil)

// NewTRR returns a TRR tracker for one bank.
func NewTRR(cfg TRRConfig) *TRR {
	if cfg.Entries <= 0 {
		cfg.Entries = 16
	}
	if cfg.MitigatePerREFs <= 0 {
		cfg.MitigatePerREFs = 4
	}
	if cfg.BlastRadius <= 0 {
		cfg.BlastRadius = security.BlastRadius
	}
	return &TRR{cfg: cfg}
}

// Stats returns a copy of the tracker statistics.
func (t *TRR) Stats() TRRStats { return t.stats }

// Activate implements dram.BankGuard with Misra-Gries counting: present
// rows increment, free slots insert, and a full table decrements every
// entry (losing track of interleaved aggressors — the design flaw the
// many-sided attacks exploit).
func (t *TRR) Activate(_ int64, row int) bool {
	for i := range t.entries {
		if t.entries[i].row == row {
			t.entries[i].count++
			return false
		}
	}
	if len(t.entries) < t.cfg.Entries {
		t.entries = append(t.entries, trrEntry{row: row, count: 1})
		return false
	}
	keep := t.entries[:0]
	for _, e := range t.entries {
		e.count--
		if e.count > 0 {
			keep = append(keep, e)
		} else {
			t.stats.Evictions++
		}
	}
	t.entries = keep
	return false
}

// PrechargeClose implements dram.BankGuard.
func (t *TRR) PrechargeClose(int64, int, int64, bool) bool { return false }

// Refresh implements dram.BankGuard: every MitigatePerREFs refreshes the
// hottest tracked row is victim-refreshed and dropped.
func (t *TRR) Refresh(int64) []dram.Mitigation {
	t.refs++
	if t.refs%t.cfg.MitigatePerREFs != 0 || len(t.entries) == 0 {
		return nil
	}
	best := 0
	for i := range t.entries {
		if t.entries[i].count > t.entries[best].count {
			best = i
		}
	}
	row := t.entries[best].row
	t.entries = append(t.entries[:best], t.entries[best+1:]...)
	t.stats.Mitigations++
	return []dram.Mitigation{{Row: row}}
}

// ABOAction implements dram.BankGuard; TRR predates ABO.
func (t *TRR) ABOAction(int64) []dram.Mitigation { return nil }

// AlertRequested implements dram.BankGuard; TRR never alerts.
func (t *TRR) AlertRequested() bool { return false }

// Quiet implements dram.BankGuard: the guard counts REFs, so it is
// never quiet.
func (t *TRR) Quiet() bool { return false }
