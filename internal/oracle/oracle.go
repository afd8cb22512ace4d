// Package oracle implements the ground-truth security monitor for the
// paper's threat model (§2.1): an attack succeeds when any row receives
// more than the Rowhammer threshold of activations without an
// intervening mitigation or refresh.
//
// The oracle observes the raw activation, mitigation, and refresh stream
// from the DRAM device — independent of what any guard believes — and
// records every row whose unmitigated activation count reaches the
// threshold.
//
// Reset rule: a row's count resets when (a) the row is mitigated (its
// victims are refreshed on its behalf), or (b) the row's periodic
// refresh group is swept. Rule (b) approximates "the row's victims were
// refreshed": refresh groups are 8 consecutive rows, so a row and its
// blast-radius-2 victims fall in the same or an adjacent group, and
// adjacent groups refresh 3.9 µs apart — negligible against the 32 ms
// window. The approximation is conservative for interior rows and off by
// at most one tREFI at group boundaries.
//
// Layout: per-row state lives in a flat open-addressed table (the same
// Fibonacci-hashed scheme sim uses for per-row workload stats) instead
// of Go maps — one probe and no allocation on the per-activation hot
// path. A slot holds the packed (bank, row) key, the current unmitigated
// count, and the lifetime peak; the peak doubles as the occupancy flag
// (it is strictly positive once the row has ever been activated and is
// never reset), so mitigations and refreshes clear counts in place
// without tombstones.
//
// Sharding: every accessor that can observe cross-row state — the
// violation list, the peak ranking, the max-excursion row — reports in
// the canonical (time, bank, row) / (peak desc, bank, row) order rather
// than observation order. That makes Merge deterministic: oracles that
// observed disjoint (bank, row) streams (one shard per subchannel)
// combine into a single oracle whose output is byte-identical to one
// oracle having watched the interleaved stream.
package oracle

import (
	"fmt"
	"slices"
)

// Violation records one security failure: a row that accumulated the
// threshold number of activations with no intervening reset.
type Violation struct {
	Time  int64
	Bank  int
	Row   int
	Count int
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("t=%dns bank=%d row=%d count=%d", v.Time, v.Bank, v.Row, v.Count)
}

// RowPeak is one row's highest unmitigated activation excursion — the
// per-row slippage surface the attack-search driver scores against.
type RowPeak struct {
	Bank int `json:"bank"`
	Row  int `json:"row"`
	Peak int `json:"peak"`
}

// packKey packs a (bank, row) pair into the table key. Row fits 32 bits
// (device geometry), bank carries the subchannel offset in the global
// namespace.
func packKey(bank, row int) uint64 {
	return uint64(uint32(bank))<<32 | uint64(uint32(row))
}

func unpackKey(k uint64) (bank, row int) {
	return int(int32(k >> 32)), int(int32(k))
}

// Oracle is a dram.Observer that enforces the attack-success criterion.
type Oracle struct {
	trh int

	// Open-addressed row table: parallel slices, power-of-two capacity,
	// linear probing. peaks[i] > 0 marks an occupied slot (peaks are
	// never reset), so counts[i] can drop back to zero in place when the
	// row is mitigated or refreshed.
	keys   []uint64
	counts []int32
	peaks  []int32
	used   int

	violations []Violation

	activations int64
	mitigations int64
}

// New returns an oracle for the given Rowhammer threshold.
func New(trh int) *Oracle {
	if trh <= 0 {
		panic("oracle: threshold must be positive")
	}
	o := &Oracle{trh: trh}
	o.initTable(1 << 10)
	return o
}

func (o *Oracle) initTable(capacity int) {
	o.keys = make([]uint64, capacity)
	o.counts = make([]int32, capacity)
	o.peaks = make([]int32, capacity)
	o.used = 0
}

// slot returns the table index holding key, or the empty slot where it
// belongs. Fibonacci hashing spreads the low-entropy packed keys.
func (o *Oracle) slot(key uint64) int {
	mask := uint64(len(o.keys) - 1)
	i := (key * 0x9e3779b97f4a7c15) >> 32 & mask
	for o.peaks[i] != 0 && o.keys[i] != key {
		i = (i + 1) & mask
	}
	return int(i)
}

func (o *Oracle) grow() {
	keys, counts, peaks := o.keys, o.counts, o.peaks
	o.initTable(len(keys) * 2)
	for i, p := range peaks {
		if p == 0 {
			continue
		}
		j := o.slot(keys[i])
		o.keys[j], o.counts[j], o.peaks[j] = keys[i], counts[i], p
		o.used++
	}
}

// ObserveActivate implements dram.Observer.
func (o *Oracle) ObserveActivate(now int64, bank, row int) {
	o.activations++
	if o.used*4 >= len(o.keys)*3 {
		o.grow()
	}
	i := o.slot(packKey(bank, row))
	if o.peaks[i] == 0 {
		o.keys[i] = packKey(bank, row)
		o.used++
	}
	c := o.counts[i] + 1
	o.counts[i] = c
	if c > o.peaks[i] {
		o.peaks[i] = c
	}
	if int(c) == o.trh {
		// Record once per excursion: the count keeps growing but one
		// violation entry per crossing is enough to fail the run.
		o.violations = append(o.violations, Violation{Time: now, Bank: bank, Row: row, Count: int(c)})
	}
}

// ObserveMitigation implements dram.Observer: a victim refresh on behalf
// of row resets its unmitigated count.
func (o *Oracle) ObserveMitigation(_ int64, bank, row int) {
	o.mitigations++
	if i := o.slot(packKey(bank, row)); o.peaks[i] != 0 {
		o.counts[i] = 0
	}
}

// ObserveRefresh implements dram.Observer: the periodic sweep resets
// every row in the refreshed group.
func (o *Oracle) ObserveRefresh(_ int64, bank, rowLo, rowHi int) {
	if rowHi-rowLo < 64 {
		for r := rowLo; r < rowHi; r++ {
			if i := o.slot(packKey(bank, r)); o.peaks[i] != 0 {
				o.counts[i] = 0
			}
		}
		return
	}
	// Wide sweeps (tests with tiny row counts): scan the table.
	for i, p := range o.peaks {
		if p == 0 || o.counts[i] == 0 {
			continue
		}
		if b, r := unpackKey(o.keys[i]); b == bank && r >= rowLo && r < rowHi {
			o.counts[i] = 0
		}
	}
}

// liveRows returns the number of rows with a nonzero unmitigated count
// (test/debug accessor).
func (o *Oracle) liveRows() int {
	n := 0
	for i, p := range o.peaks {
		if p != 0 && o.counts[i] != 0 {
			n++
		}
	}
	return n
}

// Violations returns every recorded threshold crossing in canonical
// (time, bank, row) order. The full-key tie-break — not just time —
// is what makes merged shard output independent of observation
// interleaving: two rows crossing at the same instant on different
// shards sort identically however they were recorded.
func (o *Oracle) Violations() []Violation {
	out := make([]Violation, len(o.violations))
	copy(out, o.violations)
	sortViolations(out)
	return out
}

func sortViolations(v []Violation) {
	slices.SortFunc(v, func(a, b Violation) int {
		switch {
		case a.Time != b.Time:
			return int(a.Time - b.Time)
		case a.Bank != b.Bank:
			return a.Bank - b.Bank
		default:
			return a.Row - b.Row
		}
	})
}

// Secure reports whether no row ever crossed the threshold.
func (o *Oracle) Secure() bool { return len(o.violations) == 0 }

// MaxUnmitigated returns the highest activation count any row reached
// between resets, and where. Ties resolve to the lowest (bank, row) —
// the same canonical rule TopPeaks uses — so the answer does not depend
// on which row reached the maximum first.
func (o *Oracle) MaxUnmitigated() (count, bank, row int) {
	var best uint64
	var bestPeak int32
	for i, p := range o.peaks {
		if p == 0 {
			continue
		}
		if p > bestPeak || (p == bestPeak && o.keys[i] < best) {
			bestPeak, best = p, o.keys[i]
		}
	}
	if bestPeak == 0 {
		return 0, 0, 0
	}
	bank, row = unpackKey(best)
	return int(bestPeak), bank, row
}

// TopPeaks returns the n rows with the highest unmitigated excursions
// in descending peak order (ties broken by bank, then row, so the
// ranking is deterministic regardless of table layout).
func (o *Oracle) TopPeaks(n int) []RowPeak {
	out := make([]RowPeak, 0, o.used)
	for i, p := range o.peaks {
		if p == 0 {
			continue
		}
		bank, row := unpackKey(o.keys[i])
		out = append(out, RowPeak{Bank: bank, Row: row, Peak: int(p)})
	}
	slices.SortFunc(out, func(a, b RowPeak) int {
		switch {
		case a.Peak != b.Peak:
			return b.Peak - a.Peak
		case a.Bank != b.Bank:
			return a.Bank - b.Bank
		default:
			return a.Row - b.Row
		}
	})
	if n >= 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Activations returns the total observed activation count.
func (o *Oracle) Activations() int64 { return o.activations }

// Mitigations returns the total observed victim-refresh count.
func (o *Oracle) Mitigations() int64 { return o.mitigations }

// Threshold returns the configured Rowhammer threshold.
func (o *Oracle) Threshold() int { return o.trh }

// Merge combines oracles that observed disjoint (bank, row) streams —
// one shard per subchannel — into a single oracle whose
// accessors report exactly what one oracle observing the union stream
// would. All shards must share a threshold. Counters sum, tables union
// (a key held by several shards keeps the summed count and the maximum
// peak, though disjoint shards never hit that case), and the violation
// list concatenates; every accessor already reports in canonical order,
// so the merged output is deterministic regardless of shard order or
// observation interleaving. The shards are left untouched and the
// result shares no state with them.
func Merge(shards ...*Oracle) *Oracle {
	if len(shards) == 0 {
		panic("oracle: Merge needs at least one shard")
	}
	if len(shards) == 1 {
		return shards[0]
	}
	m := New(shards[0].trh)
	for _, s := range shards {
		if s.trh != m.trh {
			panic("oracle: Merge across different thresholds")
		}
		m.activations += s.activations
		m.mitigations += s.mitigations
		m.violations = append(m.violations, s.violations...)
		for i, p := range s.peaks {
			if p == 0 {
				continue
			}
			if m.used*4 >= len(m.keys)*3 {
				m.grow()
			}
			j := m.slot(s.keys[i])
			if m.peaks[j] == 0 {
				m.keys[j] = s.keys[i]
				m.used++
			}
			m.counts[j] += s.counts[i]
			if p > m.peaks[j] {
				m.peaks[j] = p
			}
		}
	}
	return m
}
