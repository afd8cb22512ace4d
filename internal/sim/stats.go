package sim

import (
	"mopac/internal/addrmap"
	"mopac/internal/timing"
)

// WorkloadStats reproduces the Table 4 characterisation from the raw
// activation stream: activations per refresh interval per bank (APRI)
// and the hot-row populations ACT-64+ / ACT-200+ (average number of
// rows per bank activated that often within a 32 ms refresh window).
//
// Runs shorter than 32 ms extrapolate: a row counts as ACT-64+ when its
// observed activation rate, scaled to a full tREFW, reaches 64.
type WorkloadStats struct {
	geo    addrmap.Geometry
	tREFW  int64
	tREFI  int64
	acts   int64
	perRow rowCounter // (global bank, row) -> activations
	banks  int
}

// reset empties w, zero or used before, for a run on geo with timing
// tp. It keeps the row table's storage: Snapshot only counts the
// table's entries, so its capacity never reaches a result.
func (w *WorkloadStats) reset(geo addrmap.Geometry, tp timing.Params) {
	*w = WorkloadStats{
		geo:    geo,
		tREFW:  tp.TREFW,
		tREFI:  tp.TREFI,
		perRow: w.perRow,
		banks:  geo.Subchannels * geo.Banks,
	}
	w.perRow.reset()
}

// ObserveActivate counts one ACT to row of global bank.
func (w *WorkloadStats) ObserveActivate(_ int64, bank, row int) {
	w.acts++
	w.perRow.incr(uint64(bank)<<32 | uint64(uint32(row)))
}

// rowCounter is an open-addressing hash table from a packed
// (bank<<32 | row) key to an activation count. It replaces a Go map on
// the per-activation hot path: one flat []entry, no per-insert
// allocation, linear probing with power-of-two capacity. Key 0 is a
// valid (bank 0, row 0) key, so occupancy is tracked with an explicit
// used flag packed into the count sign — counts are strictly positive,
// so count == 0 marks an empty slot.
type rowCounter struct {
	keys   []uint64
	counts []int64
	used   int
}

// Row-table capacities: a new table's, and the largest a reset keeps.
// A long run's table is dropped rather than cleared for every short run
// after it.
const (
	minRowTable  = 1 << 10
	maxKeptTable = 1 << 16
)

// reset empties t, keeping its storage unless it has none or more than
// maxKeptTable slots.
func (t *rowCounter) reset() {
	if len(t.keys) == 0 || len(t.keys) > maxKeptTable {
		t.init(minRowTable)
		return
	}
	clear(t.counts) // a zero count marks a free slot
	t.used = 0
}

func (t *rowCounter) init(capacity int) {
	t.keys = make([]uint64, capacity)
	t.counts = make([]int64, capacity)
	t.used = 0
}

func (t *rowCounter) incr(key uint64) {
	if t.used*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	// Fibonacci hashing spreads the low-entropy packed keys.
	i := (key * 0x9e3779b97f4a7c15) >> 32 & mask
	for {
		if t.counts[i] == 0 {
			t.keys[i] = key
			t.counts[i] = 1
			t.used++
			return
		}
		if t.keys[i] == key {
			t.counts[i]++
			return
		}
		i = (i + 1) & mask
	}
}

func (t *rowCounter) grow() {
	old := *t
	t.init(len(old.keys) * 2)
	for i, c := range old.counts {
		if c == 0 {
			continue
		}
		mask := uint64(len(t.keys) - 1)
		j := (old.keys[i] * 0x9e3779b97f4a7c15) >> 32 & mask
		for t.counts[j] != 0 {
			j = (j + 1) & mask
		}
		t.keys[j] = old.keys[i]
		t.counts[j] = c
		t.used++
	}
}

// Snapshot computes the characterisation over [0, elapsed).
func (w *WorkloadStats) Snapshot(elapsed int64) WorkloadStatsResult {
	r := WorkloadStatsResult{Activations: w.acts}
	if elapsed <= 0 {
		return r
	}
	// APRI: mean activations per bank per tREFI.
	intervals := float64(elapsed) / float64(w.tREFI)
	r.APRI = float64(w.acts) / float64(w.banks) / intervals

	// Hot rows: scale the per-window thresholds to the observed span,
	// with a small evidence floor. Runs much shorter than tREFW cannot
	// fully resolve the 64-per-32ms tier (a 64-rate row is expected to
	// show about one activation in a 0.5 ms window), so on short runs
	// the columns measure the resolvable hot population: genuinely hot
	// workloads report large values and uniform ones report small, with
	// some Poisson inflation for dense uniform traffic (documented in
	// EXPERIMENTS.md).
	scale := float64(elapsed) / float64(w.tREFW)
	th64 := 64 * scale
	th200 := 200 * scale
	if th64 < 2 {
		th64 = 2
	}
	if th200 < 4 {
		th200 = 4
	}
	for _, c := range w.perRow.counts {
		if c == 0 {
			continue
		}
		if float64(c) >= th64 {
			r.ACT64Rows++
		}
		if float64(c) >= th200 {
			r.ACT200Rows++
		}
	}
	r.ACT64PerBank = float64(r.ACT64Rows) / float64(w.banks)
	r.ACT200PerBank = float64(r.ACT200Rows) / float64(w.banks)
	return r
}

// WorkloadStatsResult is a computed characterisation snapshot.
type WorkloadStatsResult struct {
	Activations   int64
	APRI          float64
	ACT64Rows     int
	ACT200Rows    int
	ACT64PerBank  float64
	ACT200PerBank float64
}

// ResultSummary is a flat, JSON-friendly digest of a run, used by the
// CLI tools' machine-readable output.
type ResultSummary struct {
	Design       string  `json:"design"`
	Workload     string  `json:"workload"`
	TRH          int     `json:"trh"`
	Seed         uint64  `json:"seed"`
	TimeNs       int64   `json:"time_ns"`
	SumIPC       float64 `json:"sum_ipc"`
	RBHR         float64 `json:"rbhr"`
	APRI         float64 `json:"apri"`
	Reads        int64   `json:"reads"`
	Writes       int64   `json:"writes"`
	Activates    int64   `json:"activates"`
	Alerts       int64   `json:"alerts"`
	Mitigations  int64   `json:"mitigations"`
	AvgLatencyNs float64 `json:"avg_latency_ns"`
	P50LatencyNs int64   `json:"p50_latency_ns"`
	P99LatencyNs int64   `json:"p99_latency_ns"`
	CUPer100ACT  float64 `json:"counter_updates_per_100_acts"`
	SRQInsPer100 float64 `json:"srq_insertions_per_100_acts"`
	Secure       *bool   `json:"secure,omitempty"`
	MaxUnmitig   int     `json:"max_unmitigated,omitempty"`
}
