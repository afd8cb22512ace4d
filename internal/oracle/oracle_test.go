package oracle

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountsAndViolation(t *testing.T) {
	o := New(5)
	for i := 0; i < 4; i++ {
		o.ObserveActivate(int64(i), 0, 7)
	}
	if !o.Secure() {
		t.Fatal("no violation yet")
	}
	o.ObserveActivate(4, 0, 7)
	if o.Secure() {
		t.Fatal("violation expected at threshold")
	}
	v := o.Violations()
	if len(v) != 1 || v[0].Row != 7 || v[0].Count != 5 || v[0].Time != 4 {
		t.Fatalf("violations = %v", v)
	}
	if !strings.Contains(v[0].String(), "row=7") {
		t.Fatalf("violation string: %s", v[0])
	}
}

func TestMitigationResets(t *testing.T) {
	o := New(5)
	for i := 0; i < 4; i++ {
		o.ObserveActivate(int64(i), 0, 7)
	}
	o.ObserveMitigation(4, 0, 7)
	for i := 0; i < 4; i++ {
		o.ObserveActivate(int64(10+i), 0, 7)
	}
	if !o.Secure() {
		t.Fatal("mitigation must reset the count")
	}
	if o.Mitigations() != 1 {
		t.Fatalf("mitigations = %d", o.Mitigations())
	}
}

func TestRefreshSweepResets(t *testing.T) {
	o := New(5)
	for i := 0; i < 4; i++ {
		o.ObserveActivate(int64(i), 1, 10)
	}
	o.ObserveRefresh(5, 1, 8, 16) // group containing row 10
	o.ObserveActivate(6, 1, 10)
	if c, _, _ := o.MaxUnmitigated(); c != 4 {
		t.Fatalf("max unmitigated = %d, want 4 (pre-sweep peak)", c)
	}
	if !o.Secure() {
		t.Fatal("sweep must reset the count")
	}
	// A sweep of another bank or another group must not reset.
	for i := 0; i < 3; i++ {
		o.ObserveActivate(int64(10+i), 1, 10)
	}
	o.ObserveRefresh(20, 0, 8, 16)  // wrong bank
	o.ObserveRefresh(21, 1, 16, 24) // wrong group
	o.ObserveActivate(22, 1, 10)
	if o.Secure() {
		t.Fatal("count must survive unrelated sweeps (1+3+1 = 5)")
	}
}

func TestWideSweepPath(t *testing.T) {
	o := New(100)
	for r := 0; r < 50; r++ {
		o.ObserveActivate(0, 2, r)
	}
	o.ObserveRefresh(1, 2, 0, 1024) // wide sweep uses the table-scan path
	if n := o.liveRows(); n != 0 {
		t.Fatalf("%d counts survived a full sweep", n)
	}
	// Peaks survive the sweep even though the live counts are gone.
	if c, b, r := o.MaxUnmitigated(); c != 1 || b != 2 || r != 0 {
		t.Fatalf("MaxUnmitigated = (%d, %d, %d), want (1, 2, 0)", c, b, r)
	}
}

func TestPerBankIsolation(t *testing.T) {
	o := New(3)
	o.ObserveActivate(0, 0, 5)
	o.ObserveActivate(1, 1, 5)
	o.ObserveActivate(2, 0, 5)
	o.ObserveActivate(3, 1, 5)
	if !o.Secure() {
		t.Fatal("same row in different banks must count separately")
	}
	if o.Activations() != 4 {
		t.Fatalf("activations = %d", o.Activations())
	}
}

func TestViolationsSortedByTime(t *testing.T) {
	o := New(2)
	o.ObserveActivate(10, 0, 1)
	o.ObserveActivate(11, 0, 1) // violation at t=11
	o.ObserveActivate(5, 1, 2)
	o.ObserveActivate(6, 1, 2) // violation at t=6 (logged later)
	v := o.Violations()
	if len(v) != 2 || v[0].Time != 6 || v[1].Time != 11 {
		t.Fatalf("violations not time-ordered: %v", v)
	}
}

func TestNewPanicsOnBadThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

// Property: the oracle flags a violation iff some row accumulates trh
// activations with no reset in between, per a reference recomputation.
func TestQuickMatchesReference(t *testing.T) {
	type ev struct {
		Row      uint8
		Mitigate bool
	}
	f := func(trh8 uint8, evs []ev) bool {
		trh := int(trh8%20) + 2
		o := New(trh)
		ref := map[int]int{}
		refViolated := false
		for i, e := range evs {
			r := int(e.Row % 8)
			if e.Mitigate {
				o.ObserveMitigation(int64(i), 0, r)
				delete(ref, r)
				continue
			}
			o.ObserveActivate(int64(i), 0, r)
			ref[r]++
			if ref[r] >= trh {
				refViolated = true
			}
		}
		return o.Secure() == !refViolated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refOracle is a straight map-based reimplementation of the oracle's
// semantics, used as the ground truth for the dense-table property
// tests below. It intentionally mirrors the documented behaviour, not
// the implementation: counts reset on mitigation/refresh, peaks never
// reset, one violation per threshold crossing.
type refOracle struct {
	trh         int
	counts      map[[2]int]int
	peaks       map[[2]int]int
	violations  []Violation
	activations int64
	mitigations int64
}

func newRefOracle(trh int) *refOracle {
	return &refOracle{trh: trh, counts: map[[2]int]int{}, peaks: map[[2]int]int{}}
}

func (o *refOracle) activate(now int64, bank, row int) {
	o.activations++
	k := [2]int{bank, row}
	o.counts[k]++
	if o.counts[k] > o.peaks[k] {
		o.peaks[k] = o.counts[k]
	}
	if o.counts[k] == o.trh {
		o.violations = append(o.violations, Violation{Time: now, Bank: bank, Row: row, Count: o.trh})
	}
}

func (o *refOracle) mitigate(bank, row int) {
	o.mitigations++
	delete(o.counts, [2]int{bank, row})
}

func (o *refOracle) refresh(bank, rowLo, rowHi int) {
	for k := range o.counts {
		if k[0] == bank && k[1] >= rowLo && k[1] < rowHi {
			delete(o.counts, k)
		}
	}
}

func (o *refOracle) topPeaks(n int) []RowPeak {
	out := make([]RowPeak, 0, len(o.peaks))
	for k, p := range o.peaks {
		out = append(out, RowPeak{Bank: k[0], Row: k[1], Peak: p})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Peak != b.Peak {
			return a.Peak > b.Peak
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	if n >= 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

func (o *refOracle) sortedViolations() []Violation {
	out := make([]Violation, len(o.violations))
	copy(out, o.violations)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	return out
}

// TestQuickDenseMatchesMapReference drives the dense open-addressed
// table and the map reference through the same random
// activate/mitigate/refresh stream and requires identical counts
// (via MaxUnmitigated and liveRows), peaks (full TopPeaks ranking),
// violation lists in canonical order, and counters.
func TestQuickDenseMatchesMapReference(t *testing.T) {
	type ev struct {
		Bank, Row uint8
		Kind      uint8 // 0-5: activate; 6: mitigate; 7: refresh sweep
	}
	f := func(trh8 uint8, evs []ev) bool {
		trh := int(trh8%6) + 2
		o := New(trh)
		ref := newRefOracle(trh)
		for i, e := range evs {
			bank, row := int(e.Bank%4), int(e.Row%16)
			switch e.Kind % 8 {
			case 6:
				o.ObserveMitigation(int64(i), bank, row)
				ref.mitigate(bank, row)
			case 7:
				lo := (row / 8) * 8
				o.ObserveRefresh(int64(i), bank, lo, lo+8)
				ref.refresh(bank, lo, lo+8)
			default:
				o.ObserveActivate(int64(i), bank, row)
				ref.activate(int64(i), bank, row)
			}
		}
		if o.Activations() != ref.activations || o.Mitigations() != ref.mitigations {
			return false
		}
		if !reflect.DeepEqual(o.Violations(), ref.sortedViolations()) {
			return false
		}
		if !reflect.DeepEqual(o.TopPeaks(-1), ref.topPeaks(-1)) {
			return false
		}
		if o.liveRows() != len(ref.counts) {
			return false
		}
		wantMax, wantBank, wantRow := 0, 0, 0
		for _, p := range ref.topPeaks(1) {
			wantMax, wantBank, wantRow = p.Peak, p.Bank, p.Row
		}
		c, b, r := o.MaxUnmitigated()
		return c == wantMax && b == wantBank && r == wantRow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeMatchesInterleaved shards a random event stream by bank
// parity across two oracles and requires Merge to reproduce exactly
// what a single oracle observing the interleaved stream reports.
func TestQuickMergeMatchesInterleaved(t *testing.T) {
	type ev struct {
		Bank, Row uint8
		Kind      uint8
	}
	f := func(trh8 uint8, evs []ev) bool {
		trh := int(trh8%6) + 2
		whole := New(trh)
		shards := []*Oracle{New(trh), New(trh)}
		for i, e := range evs {
			bank, row := int(e.Bank%4), int(e.Row%16)
			s := shards[bank%2]
			switch e.Kind % 8 {
			case 6:
				whole.ObserveMitigation(int64(i), bank, row)
				s.ObserveMitigation(int64(i), bank, row)
			case 7:
				lo := (row / 8) * 8
				whole.ObserveRefresh(int64(i), bank, lo, lo+8)
				s.ObserveRefresh(int64(i), bank, lo, lo+8)
			default:
				whole.ObserveActivate(int64(i), bank, row)
				s.ObserveActivate(int64(i), bank, row)
			}
		}
		m := Merge(shards[0], shards[1])
		if m.Activations() != whole.Activations() || m.Mitigations() != whole.Mitigations() {
			return false
		}
		if m.Secure() != whole.Secure() {
			return false
		}
		if !reflect.DeepEqual(m.Violations(), whole.Violations()) {
			return false
		}
		if !reflect.DeepEqual(m.TopPeaks(-1), whole.TopPeaks(-1)) {
			return false
		}
		mc, mb, mr := m.MaxUnmitigated()
		wc, wb, wr := whole.MaxUnmitigated()
		return mc == wc && mb == wb && mr == wr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSingleShardPassesThrough: the one-shard fast path must hand
// back the shard itself (the serial configuration pays no merge cost).
func TestMergeSingleShardPassesThrough(t *testing.T) {
	o := New(5)
	o.ObserveActivate(1, 0, 3)
	if m := Merge(o); m != o {
		t.Fatal("single-shard merge must return the shard")
	}
}

// TestGrowPreservesState forces several table growths and checks
// nothing is lost or duplicated across rehashes.
func TestGrowPreservesState(t *testing.T) {
	o := New(1 << 20) // never violates
	const rows = 5000 // > initial capacity, forces multiple growths
	for r := 0; r < rows; r++ {
		for k := 0; k <= r%3; k++ {
			o.ObserveActivate(int64(r), 3, r)
		}
	}
	peaks := o.TopPeaks(-1)
	if len(peaks) != rows {
		t.Fatalf("%d peaks after growth, want %d", len(peaks), rows)
	}
	for _, p := range peaks {
		if want := p.Row%3 + 1; p.Peak != want {
			t.Fatalf("row %d peak %d, want %d", p.Row, p.Peak, want)
		}
	}
}

// TestMergeZeroShardsPanics pins the zero-shard contract: there is no
// threshold to build the merged oracle from, so Merge must refuse
// loudly instead of fabricating one.
func TestMergeZeroShardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge() with zero shards must panic")
		}
	}()
	Merge()
}

// TestMergeSingleShardIsIdentity complements the pass-through check:
// beyond returning the same pointer, the single-shard path must leave
// the shard's contents untouched.
func TestMergeSingleShardIsIdentity(t *testing.T) {
	o := New(3)
	for i := 0; i < 3; i++ {
		o.ObserveActivate(int64(i), 1, 9)
	}
	before := mustDigest(t, o)
	m := Merge(o)
	if m != o {
		t.Fatal("single-shard merge must return the shard")
	}
	if after := mustDigest(t, o); before != after {
		t.Fatalf("single-shard merge mutated the shard:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestMergeEmptyShard covers the per-subchannel shape where one
// subchannel never observed an activation (its dense table was never
// touched): merging the empty shard must neither perturb the populated
// one's outputs nor invent peaks, in either argument order.
func TestMergeEmptyShard(t *testing.T) {
	build := func() *Oracle {
		o := New(5)
		for i := 0; i < 6; i++ {
			o.ObserveActivate(int64(i), 2, 11)
		}
		o.ObserveMitigation(6, 2, 11)
		return o
	}
	solo := build()
	want := mustDigest(t, solo)
	for name, shards := range map[string][]*Oracle{
		"empty-last":  {build(), New(5)},
		"empty-first": {New(5), build()},
		"empty-both":  {New(5), build(), New(5)},
	} {
		m := Merge(shards...)
		if got := mustDigest(t, m); got != want {
			t.Errorf("%s: merged digest diverged\nwant: %s\ngot:  %s", name, want, got)
		}
	}
}

// TestMergeAllEmptyShards: a run that never activated anything must
// merge to a secure, zero-count oracle rather than tripping over the
// untouched dense tables.
func TestMergeAllEmptyShards(t *testing.T) {
	m := Merge(New(7), New(7), New(7))
	if !m.Secure() || m.Activations() != 0 || m.Mitigations() != 0 {
		t.Fatalf("empty merge: secure=%v acts=%d mits=%d", m.Secure(), m.Activations(), m.Mitigations())
	}
	if peaks := m.TopPeaks(-1); len(peaks) != 0 {
		t.Fatalf("empty merge produced %d peaks", len(peaks))
	}
	if c, b, r := m.MaxUnmitigated(); c != 0 {
		t.Fatalf("empty merge MaxUnmitigated = %d (bank %d row %d)", c, b, r)
	}
}

// mustDigest flattens an oracle's externally observable outputs for
// comparison.
func mustDigest(t *testing.T, o *Oracle) string {
	t.Helper()
	c, b, r := o.MaxUnmitigated()
	return fmt.Sprintf("secure=%v v=%v peaks=%v max=%d/%d/%d acts=%d mits=%d",
		o.Secure(), o.Violations(), o.TopPeaks(-1), c, b, r,
		o.Activations(), o.Mitigations())
}
