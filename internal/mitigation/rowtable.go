package mitigation

import "math/bits"

// rowTable holds one bank's per-row PRAC counters: an open-addressing
// row → count table with linear probing over a power-of-two array of
// slots, in place of a Go map on the per-ACT path. A slot's key is
// row+1, so the zero slot is empty and the table needs no
// initialisation; the arrays are allocated on the first add, so banks
// an attack never touches cost nothing. reset stores 0 and keeps the
// slot: a reset row reads 0 exactly as a deleted map key does, and
// growth drops zero-count slots. Nothing ranges over the table, so its
// order never shows.
type rowTable struct {
	slots []rowSlot
	used  int  // claimed slots
	shift uint // 64 - log2(len(slots))
}

// rowSlot packs a row and its count into 8 bytes: rows and PRAC
// counts both fit 31 bits.
type rowSlot struct {
	key   int32 // row+1; 0 marks an empty slot
	count int32
}

// rowTableMinSlots is the first allocation: enough for the handful of
// rows an attack hammers before the table must grow.
const rowTableMinSlots = 16

// find returns the slot of row, or the empty slot where it would go.
func (t *rowTable) find(row int) *rowSlot {
	mask := len(t.slots) - 1
	// Fibonacci hashing: the top bits of the product spread the
	// small, clustered row numbers over the whole array.
	i := int((uint64(row) * 0x9e3779b97f4a7c15) >> t.shift)
	key := int32(row + 1)
	for {
		s := &t.slots[i]
		if s.key == key || s.key == 0 {
			return s
		}
		i = (i + 1) & mask
	}
}

// get returns row's count, 0 when absent or reset.
func (t *rowTable) get(row int) int {
	if t.slots == nil {
		return 0
	}
	return int(t.find(row).count)
}

// add adds by to row's count and returns the new count.
func (t *rowTable) add(row, by int) int {
	if (t.used+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	s := t.find(row)
	if s.key == 0 {
		s.key = int32(row + 1)
		t.used++
	}
	s.count += int32(by)
	return int(s.count)
}

// reset sets row's count to 0.
func (t *rowTable) reset(row int) {
	if t.slots != nil {
		t.find(row).count = 0
	}
}

// grow rehashes the non-zero counts into an array sized for them at
// most half full: twice the slots when none were reset.
func (t *rowTable) grow() {
	old := t.slots
	live := 0
	for _, s := range old {
		if s.count != 0 {
			live++
		}
	}
	n := rowTableMinSlots
	for n < 2*(live+1) {
		n *= 2
	}
	t.slots = make([]rowSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.used = 0
	for _, s := range old {
		if s.count != 0 {
			*t.find(int(s.key) - 1) = s
			t.used++
		}
	}
}
