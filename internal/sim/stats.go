package sim

import (
	"mopac/internal/addrmap"
	"mopac/internal/rowtab"
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
	perRow rowtab.Table[uint64, int64] // bank<<32 | row -> activations
	banks  int
}

// maxKeptTable is the largest row table a reset keeps: a long run's
// table is dropped rather than cleared for every short run after it.
const maxKeptTable = 1 << 16

// reset empties w, zero or used before, for a run on geo with timing
// tp. It keeps the row table's storage up to maxKeptTable slots:
// Snapshot only counts the table's entries, so its capacity never
// reaches a result.
func (w *WorkloadStats) reset(geo addrmap.Geometry, tp timing.Params) {
	*w = WorkloadStats{
		geo:    geo,
		tREFW:  tp.TREFW,
		tREFI:  tp.TREFI,
		perRow: w.perRow,
		banks:  geo.Subchannels * geo.Banks,
	}
	w.perRow.Reset(maxKeptTable)
}

// ObserveActivate counts one ACT to row of global bank.
func (w *WorkloadStats) ObserveActivate(_ int64, bank, row int) {
	w.acts++
	*w.perRow.Put(uint64(bank)<<32 | uint64(uint32(row)))++
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
	w.perRow.All(func(_ uint64, c *int64) {
		if float64(*c) >= th64 {
			r.ACT64Rows++
		}
		if float64(*c) >= th200 {
			r.ACT200Rows++
		}
	})
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
