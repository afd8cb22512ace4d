package mitigation

import (
	"math/rand/v2"

	"mopac/internal/dram"
	"mopac/internal/security"
)

// This file implements the low-cost in-DRAM trackers the paper compares
// against in §9.2 — MINT and PrIDE — as runnable guards, so Table 13's
// analytic comparison can also be observed empirically: under the same
// hammering pattern the maximum unmitigated activation count ranks
// MoPAC-D << MINT < PrIDE for the same per-REF mitigation budget.
//
// Both trackers mitigate aggressor rows (victim refresh) in the shadow
// of periodic REF, consuming the 240 ns blast-radius-2 budget per
// mitigation; neither uses ABO.

// MINTConfig parameterises the MINT tracker (Qureshi et al., MICRO'24).
type MINTConfig struct {
	// Window is the selection window in activations (the MINT paper
	// uses the activations per tREFI, ~84 at DDR5-6000 timings).
	Window int
	// MitigatePerREFs performs the selected mitigation every that many
	// REFs (1 = the full 240 ns budget each REF; 2 and 4 model the
	// reduced budgets of Table 13).
	MitigatePerREFs int
	// BlastRadius and Rows control victim refresh.
	BlastRadius int
	Rows        int
	// Seed seeds the per-bank selection stream.
	Seed uint64
}

// MINT selects exactly one activation per window, uniformly at random,
// and victim-refreshes the held selection at the next eligible REF.
type MINT struct {
	cfg MINTConfig
	// pcg is embedded by value (rand.Rand is a stateless wrapper), saving
	// the selection stream a separate allocation.
	pcg   rand.PCG
	rng   *rand.Rand
	pos   int
	sel   int
	held  int // row awaiting mitigation (-1: none)
	cand  int
	refs  int
	stats TRRStats
}

var _ dram.BankGuard = (*MINT)(nil)

// NewMINT returns a MINT tracker for one bank.
func NewMINT(cfg MINTConfig) *MINT {
	if cfg.Window <= 0 {
		cfg.Window = 84
	}
	if cfg.MitigatePerREFs <= 0 {
		cfg.MitigatePerREFs = 1
	}
	if cfg.BlastRadius <= 0 {
		cfg.BlastRadius = security.BlastRadius
	}
	m := &MINT{
		cfg:  cfg,
		held: -1,
		cand: -1,
	}
	m.pcg.Seed(cfg.Seed, 0x6d696e74)
	m.rng = rand.New(&m.pcg)
	m.sel = m.rng.IntN(cfg.Window)
	return m
}

// Stats returns mitigation counters.
func (m *MINT) Stats() TRRStats { return m.stats }

// Activate implements dram.BankGuard.
func (m *MINT) Activate(_ int64, row int) {
	if m.pos == m.sel {
		m.cand = row
	}
	m.pos++
	if m.pos >= m.cfg.Window {
		if m.cand >= 0 {
			m.held = m.cand
		}
		m.pos = 0
		m.sel = m.rng.IntN(m.cfg.Window)
		m.cand = -1
	}
}

// PrechargeClose implements dram.BankGuard.
func (m *MINT) PrechargeClose(int64, int, int64, bool) {}

// Refresh implements dram.BankGuard: every MitigatePerREFs refreshes,
// the held selection is victim-refreshed.
func (m *MINT) Refresh(int64) []dram.Mitigation {
	m.refs++
	if m.refs%m.cfg.MitigatePerREFs != 0 || m.held < 0 {
		return nil
	}
	row := m.held
	m.held = -1
	m.stats.Mitigations++
	return []dram.Mitigation{{Row: row}}
}

// ABOAction implements dram.BankGuard; MINT predates ABO.
func (m *MINT) ABOAction(int64) []dram.Mitigation { return nil }

// AlertRequested implements dram.BankGuard.
func (m *MINT) AlertRequested() bool { return false }

// PrIDEConfig parameterises the PrIDE tracker (Jaleel et al., ISCA'24).
type PrIDEConfig struct {
	// InvP is the per-activation insertion probability denominator
	// (PrIDE inserts each ACT into its FIFO with probability 1/InvP).
	InvP int
	// QueueSize is the FIFO depth (PrIDE uses small queues; 2 entries).
	QueueSize int
	// MitigatePerREFs pops and mitigates the FIFO head every that many
	// REFs.
	MitigatePerREFs int
	// BlastRadius and Rows control victim refresh.
	BlastRadius int
	Rows        int
	// Seed seeds the per-bank sampling stream.
	Seed uint64
}

// PrIDE inserts activations into a small FIFO with fixed probability
// and victim-refreshes the head at REF. Unlike MINT it has no
// exactly-one-per-window guarantee, so its selection gaps have a
// geometric tail — the reason Table 13 ranks it behind MINT.
type PrIDE struct {
	cfg PrIDEConfig
	// pcg embedded by value, like MINT's.
	pcg   rand.PCG
	rng   *rand.Rand
	fifo  []int
	refs  int
	stats TRRStats
}

var _ dram.BankGuard = (*PrIDE)(nil)

// NewPrIDE returns a PrIDE tracker for one bank.
func NewPrIDE(cfg PrIDEConfig) *PrIDE {
	if cfg.InvP <= 0 {
		cfg.InvP = 84
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 2
	}
	if cfg.MitigatePerREFs <= 0 {
		cfg.MitigatePerREFs = 1
	}
	if cfg.BlastRadius <= 0 {
		cfg.BlastRadius = security.BlastRadius
	}
	p := &PrIDE{cfg: cfg}
	p.pcg.Seed(cfg.Seed, 0x70726964)
	p.rng = rand.New(&p.pcg)
	return p
}

// Stats returns mitigation counters.
func (p *PrIDE) Stats() TRRStats { return p.stats }

// Activate implements dram.BankGuard.
func (p *PrIDE) Activate(_ int64, row int) {
	if p.rng.IntN(p.cfg.InvP) != 0 {
		return
	}
	if len(p.fifo) >= p.cfg.QueueSize {
		p.stats.Evictions++ // insertion dropped: queue full
		return
	}
	p.fifo = append(p.fifo, row)
}

// PrechargeClose implements dram.BankGuard.
func (p *PrIDE) PrechargeClose(int64, int, int64, bool) {}

// Refresh implements dram.BankGuard.
func (p *PrIDE) Refresh(int64) []dram.Mitigation {
	p.refs++
	if p.refs%p.cfg.MitigatePerREFs != 0 || len(p.fifo) == 0 {
		return nil
	}
	row := p.fifo[0]
	p.fifo = p.fifo[1:]
	p.stats.Mitigations++
	return []dram.Mitigation{{Row: row}}
}

// ABOAction implements dram.BankGuard; PrIDE predates ABO.
func (p *PrIDE) ABOAction(int64) []dram.Mitigation { return nil }

// AlertRequested implements dram.BankGuard.
func (p *PrIDE) AlertRequested() bool { return false }
