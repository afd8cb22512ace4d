package mitigation

import (
	"fmt"
	"math/rand/v2"

	"mopac/internal/dram"
	"mopac/internal/security"
	"mopac/internal/telemetry"
)

// Sampler selects the probabilistic selection mechanism for MoPAC-D.
type Sampler int

// The sampling mechanisms.
const (
	// SamplerMINT selects exactly one activation per 1/p-long window,
	// uniformly at random, and inserts it at the end of the window
	// (footnote 6: the insertion delay prevents an attacker from
	// knowing a guaranteed un-sampled run after an SRQ-full ABO).
	SamplerMINT Sampler = iota
	// SamplerPARA selects each activation independently with
	// probability p. Included as the footnote-6 ablation: its
	// geometric selection gaps are unbounded, which is why the paper
	// rejects it for MoPAC-D.
	SamplerPARA
)

// MoPACDConfig parameterises one bank's MoPAC-D engine.
type MoPACDConfig struct {
	// InvP is 1/p, the MINT window length: exactly one activation per
	// window is selected for a counter update.
	InvP int
	// Sampler selects the selection mechanism (default MINT).
	Sampler Sampler
	// SRQSize is the Selected Row Queue depth (16 in the paper).
	SRQSize int
	// TTH is the tardiness threshold: an SRQ entry whose ACtr reaches
	// TTH forces an ABO drain.
	TTH int
	// DrainOnREF is the number of SRQ entries whose counter update is
	// performed under each periodic REF.
	DrainOnREF int
	// AlertAt is the PRAC counter value at which the MOAT-style tracked
	// row requests mitigation: ATH* + 1/p (trigger on exceeding ATH*).
	AlertAt int
	// ETH is the eligibility threshold for ABO-time mitigation.
	ETH int
	// NUP enables the Non-Uniform Probability optimisation: rows whose
	// PRAC counter is zero are sampled with p/2 instead of p.
	NUP bool
	// RowPress enables Appendix A: on row close, an in-SRQ row's SCtr
	// grows by ceil(tON/180 ns) instead of nothing.
	RowPress bool
	// BlastRadius and Rows control victim refresh, as in MOATConfig.
	BlastRadius int
	Rows        int
	// Seed seeds this bank's private PCG stream.
	Seed uint64
	// Trace receives SRQ/drain/mitigation telemetry for this bank; nil
	// disables tracing. TraceBank labels the emitted records.
	Trace     *telemetry.GuardTracks
	TraceBank int
}

// MoPACDFromParams builds the per-bank configuration from a derived
// security parameter set (Table 8, or DeriveNUP/DeriveRowPress).
func MoPACDFromParams(p security.Params, rows int, nup bool, seed uint64) MoPACDConfig {
	return MoPACDConfig{
		InvP:        p.UpdateWeight(),
		SRQSize:     p.SRQSize,
		TTH:         p.TTH,
		DrainOnREF:  p.DrainOnREF,
		AlertAt:     p.AttackATHStar(),
		ETH:         p.ATH / 2,
		NUP:         nup,
		BlastRadius: security.BlastRadius,
		Rows:        rows,
		Seed:        seed,
	}
}

// srqEntry is one Selected Row Queue slot: 3 bytes in hardware (row
// address plus the two small counters).
type srqEntry struct {
	row  int
	actr int // activations since insertion (tardiness)
	sctr int // coalesced selections, each worth 1/p activations
}

// MoPACDStats counts engine events for one bank.
type MoPACDStats struct {
	Activations     int64
	Insertions      int64 // new SRQ entries
	Coalesced       int64 // selections absorbed into an existing entry
	DroppedFull     int64 // selections lost because the SRQ stayed full
	CounterUpdates  int64 // PRAC read-modify-writes performed
	DrainsOnREF     int64
	DrainsOnABO     int64
	Mitigations     int64
	TardinessAlerts int64
	SRQFullAlerts   int64
	MitigAlerts     int64
}

// MoPACD is the per-bank in-DRAM MoPAC engine (§6): it probabilistically
// selects activations with a MINT window, buffers the selected rows in
// the SRQ, performs the deferred PRAC counter updates under ABO or REF,
// and raises ALERT for SRQ-full, tardiness, or mitigation conditions.
type MoPACD struct {
	cfg MoPACDConfig
	// pcg is embedded by value and wrapped by rng: a device builds one
	// engine per bank per chip, so the two heap objects rand.New +
	// rand.NewPCG would cost here are a measurable share of system
	// construction.
	pcg rand.PCG
	rng *rand.Rand

	counters map[int]int
	srq      []srqEntry

	winPos  int // position within the current MINT window
	winSel  int // selected position in the window
	winCand int // row captured at the selected position (-1: none)

	trackedRow int
	trackedCnt int

	alertSRQ   bool
	alertTardy bool
	alertMitig bool

	stats MoPACDStats
}

var _ dram.BankGuard = (*MoPACD)(nil)

// NewMoPACD returns a MoPAC-D engine for one bank of one chip.
func NewMoPACD(cfg MoPACDConfig) *MoPACD {
	if cfg.InvP < 1 {
		panic(fmt.Sprintf("mitigation: MoPAC-D InvP = %d", cfg.InvP))
	}
	if cfg.SRQSize <= 0 {
		cfg.SRQSize = security.SRQEntries
	}
	if cfg.TTH <= 0 {
		cfg.TTH = security.TardinessThreshold
	}
	if cfg.AlertAt <= 0 {
		panic("mitigation: MoPAC-D AlertAt must be positive")
	}
	if cfg.BlastRadius <= 0 {
		cfg.BlastRadius = security.BlastRadius
	}
	// counters and srq start nil and materialise on first use: an
	// attack or skewed workload touches a handful of the device's banks,
	// and the untouched ones should cost nothing to build.
	m := &MoPACD{
		cfg:        cfg,
		winCand:    -1,
		trackedRow: -1,
	}
	m.pcg.Seed(cfg.Seed, 0xd0_5e1ec7ed)
	m.rng = rand.New(&m.pcg)
	m.winSel = m.rng.IntN(cfg.InvP)
	return m
}

// Counter returns the PRAC counter of row as this chip sees it.
func (m *MoPACD) Counter(row int) int { return m.counters[row] }

// SRQLen returns the current Selected Row Queue occupancy.
func (m *MoPACD) SRQLen() int { return len(m.srq) }

// Stats returns a copy of the engine statistics.
func (m *MoPACD) Stats() MoPACDStats { return m.stats }

// Tracked returns the MOAT-style tracked row and counter.
func (m *MoPACD) Tracked() (row, count int) { return m.trackedRow, m.trackedCnt }

func (m *MoPACD) findSRQ(row int) int {
	for i := range m.srq {
		if m.srq[i].row == row {
			return i
		}
	}
	return -1
}

// Activate implements dram.BankGuard: tardiness accounting plus the MINT
// window sampler. The selected entry is inserted only at the end of the
// window (footnote 6: inserting earlier would let an attacker predict a
// guaranteed un-sampled run after an SRQ-full ABO).
func (m *MoPACD) Activate(now int64, row int) {
	m.stats.Activations++
	if i := m.findSRQ(row); i >= 0 {
		m.srq[i].actr++
		if m.srq[i].actr >= m.cfg.TTH && !m.alertTardy {
			m.alertTardy = true
			m.stats.TardinessAlerts++
		}
	}
	if m.cfg.Sampler == SamplerPARA {
		// Footnote-6 ablation: independent Bernoulli(p) selection with
		// immediate insertion.
		if m.rng.IntN(m.cfg.InvP) == 0 {
			if !m.cfg.NUP || m.counters[row] != 0 || m.rng.IntN(2) == 0 {
				m.insert(now, row)
			}
		}
		return
	}
	if m.winPos == m.winSel {
		m.winCand = row
		if m.cfg.NUP && m.counters[row] == 0 && m.rng.IntN(2) == 0 {
			// NUP: a zero-count row survives selection with probability
			// 1/2, for an effective sampling rate of p/2.
			m.winCand = -1
		}
	}
	m.winPos++
	if m.winPos >= m.cfg.InvP {
		if m.winCand >= 0 {
			m.insert(now, m.winCand)
		}
		m.winPos = 0
		m.winSel = m.rng.IntN(m.cfg.InvP)
		m.winCand = -1
	}
}

func (m *MoPACD) insert(now int64, row int) {
	if i := m.findSRQ(row); i >= 0 {
		m.srq[i].sctr++
		m.stats.Coalesced++
		return
	}
	if len(m.srq) >= m.cfg.SRQSize {
		// The SRQ is still full because the ABO has not been served yet
		// (the controller is inside the 180 ns grace window). The
		// selection is lost; the tardiness counter of the hammered rows
		// keeps the design secure.
		m.stats.DroppedFull++
		return
	}
	m.srq = append(m.srq, srqEntry{row: row, sctr: 1})
	m.stats.Insertions++
	if m.cfg.Trace != nil {
		m.cfg.Trace.SRQDepth(now, m.cfg.TraceBank, len(m.srq))
	}
	if len(m.srq) >= m.cfg.SRQSize && !m.alertSRQ {
		m.alertSRQ = true
		m.stats.SRQFullAlerts++
	}
}

// PrechargeClose implements dram.BankGuard. MoPAC-D never uses
// counter-update precharges; with RowPress protection enabled the
// row-open time inflates the SCtr of in-SRQ rows by ceil(tON/180 ns).
func (m *MoPACD) PrechargeClose(_ int64, row int, openNs int64, _ bool) {
	if !m.cfg.RowPress {
		return
	}
	if i := m.findSRQ(row); i >= 0 && openNs > 0 {
		units := int((openNs + security.RowPressMaxOpenNs - 1) / security.RowPressMaxOpenNs)
		m.srq[i].sctr += units
	}
}

// drain performs counter updates for up to n SRQ entries, highest ACtr
// first (§6.1), and returns how many were drained.
func (m *MoPACD) drain(now int64, n int) int {
	if n <= 0 || len(m.srq) == 0 {
		return 0
	}
	// Stable insertion sort, descending actr. The SRQ is capped at a
	// few hundred entries and this runs on every refresh, so avoiding
	// sort.SliceStable's reflect-based swapper keeps the refresh path
	// allocation-free.
	for i := 1; i < len(m.srq); i++ {
		e := m.srq[i]
		j := i
		for j > 0 && m.srq[j-1].actr < e.actr {
			m.srq[j] = m.srq[j-1]
			j--
		}
		m.srq[j] = e
	}
	if n > len(m.srq) {
		n = len(m.srq)
	}
	for i := 0; i < n; i++ {
		e := m.srq[i]
		// Each selection stands for 1/p activations, plus one for the
		// activation performed to write the counter (§6.4).
		m.bump(e.row, 1+e.sctr*m.cfg.InvP)
		m.stats.CounterUpdates++
	}
	m.srq = append(m.srq[:0], m.srq[n:]...)
	m.recomputeAlerts()
	if m.cfg.Trace != nil {
		m.cfg.Trace.Drain(now, m.cfg.TraceBank, n)
		m.cfg.Trace.SRQDepth(now, m.cfg.TraceBank, len(m.srq))
	}
	return n
}

func (m *MoPACD) bump(row, by int) {
	if m.counters == nil {
		m.counters = make(map[int]int)
	}
	c := m.counters[row] + by
	m.counters[row] = c
	if c > m.trackedCnt {
		m.trackedRow, m.trackedCnt = row, c
	}
	if m.trackedCnt >= m.cfg.AlertAt && !m.alertMitig {
		m.alertMitig = true
		m.stats.MitigAlerts++
	}
}

func (m *MoPACD) recomputeAlerts() {
	m.alertSRQ = len(m.srq) >= m.cfg.SRQSize
	m.alertTardy = false
	for i := range m.srq {
		if m.srq[i].actr >= m.cfg.TTH {
			m.alertTardy = true
			break
		}
	}
	m.alertMitig = m.trackedCnt >= m.cfg.AlertAt
}

// Refresh implements dram.BankGuard: the drain-on-REF optimisation
// (§6.2) performs a small number of counter updates in the refresh
// shadow.
func (m *MoPACD) Refresh(now int64) []dram.Mitigation {
	drained := m.drain(now, m.cfg.DrainOnREF)
	m.stats.DrainsOnREF += int64(drained)
	return nil
}

// ABOAction implements dram.BankGuard with the §6.1 priority order:
// a full SRQ is drained first; otherwise a tracked row beyond the alert
// threshold is mitigated; otherwise a non-empty SRQ is drained;
// otherwise the tracked row is mitigated if eligible.
func (m *MoPACD) ABOAction(now int64) []dram.Mitigation {
	var mits []dram.Mitigation
	switch {
	case len(m.srq) >= m.cfg.SRQSize:
		m.stats.DrainsOnABO += int64(m.drain(now, security.ABODrainRows))
	case m.trackedCnt >= m.cfg.AlertAt:
		mits = m.mitigateTracked(now)
	case len(m.srq) > 0:
		m.stats.DrainsOnABO += int64(m.drain(now, security.ABODrainRows))
	case m.trackedCnt >= m.cfg.ETH:
		mits = m.mitigateTracked(now)
	}
	m.recomputeAlerts()
	return mits
}

func (m *MoPACD) mitigateTracked(now int64) []dram.Mitigation {
	if m.trackedRow < 0 {
		return nil
	}
	row := m.trackedRow
	m.trackedRow, m.trackedCnt = -1, 0
	m.stats.Mitigations++
	if m.cfg.Trace != nil {
		m.cfg.Trace.Mitigated(now, m.cfg.TraceBank, row)
	}
	delete(m.counters, row)
	if m.counters == nil {
		m.counters = make(map[int]int)
	}
	for d := 1; d <= m.cfg.BlastRadius; d++ {
		for _, v := range [2]int{row - d, row + d} {
			if v < 0 || (m.cfg.Rows > 0 && v >= m.cfg.Rows) {
				continue
			}
			m.counters[v]++
			if m.counters[v] > m.trackedCnt {
				m.trackedRow, m.trackedCnt = v, m.counters[v]
			}
		}
	}
	return []dram.Mitigation{{Row: row}}
}

// AlertRequested implements dram.BankGuard.
func (m *MoPACD) AlertRequested() bool {
	return m.alertSRQ || m.alertTardy || m.alertMitig
}

// AlertReasons reports the individual alert conditions, for tests and
// attack diagnostics.
func (m *MoPACD) AlertReasons() (srqFull, tardiness, mitigation bool) {
	return m.alertSRQ, m.alertTardy, m.alertMitig
}
