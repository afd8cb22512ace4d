// Package rowtab holds the per-row table the simulator keeps a row's
// activation count in: the guards' PRAC counters, the oracle's
// unmitigated counts and peaks, and the Table 4 hot-row statistics.
//
// Table is an open-addressing map with linear probing over a
// power-of-two array of slots, in place of a Go map on the per-ACT
// path: one flat array, no per-insert allocation. A slot stores key+1,
// so the zero slot is empty and the array needs no initialisation. The
// array is allocated on the first Put, so a table nothing writes to
// costs nothing.
//
// A value equal to V's zero value reads as absent: storing zero
// through a pointer deletes the entry without a tombstone (the slot
// stays claimed until the next growth drops it). Callers whose values
// never return to zero keep every entry they put.
package rowtab

import "math/bits"

// Table maps keys to values. The zero Table is empty and ready to use.
// Keys must be below the maximum of K, which marks no slot.
type Table[K ~uint32 | ~uint64, V comparable] struct {
	slots []slot[K, V]
	used  int  // claimed slots, zero-valued ones included
	shift uint // 64 - log2(len(slots))
}

// slot packs a key and its value: a Table[uint32, int32] slot is 8
// bytes.
type slot[K ~uint32 | ~uint64, V comparable] struct {
	key K // key+1; 0 marks an empty slot
	val V
}

// minSlots is the first allocation: enough for the handful of rows an
// attack hammers before the table must grow.
const minSlots = 16

// find returns the slot of k, or the empty slot where it would go.
// The array must be allocated.
func (t *Table[K, V]) find(k K) *slot[K, V] {
	mask := len(t.slots) - 1
	// Fibonacci hashing: the top bits of the product spread the
	// small, clustered row numbers over the whole array.
	i := int((uint64(k) * 0x9e3779b97f4a7c15) >> t.shift)
	key := k + 1
	for {
		s := &t.slots[i]
		if s.key == key || s.key == 0 {
			return s
		}
		i = (i + 1) & mask
	}
}

// Get returns a pointer to k's value, or nil when k is absent or its
// value is zero. The pointer is valid until the next Put or Reset.
func (t *Table[K, V]) Get(k K) *V {
	if t.slots == nil {
		return nil
	}
	var zero V
	if s := t.find(k); s.val != zero {
		return &s.val
	}
	return nil
}

// Put returns a pointer to k's value, inserting a zero value when k is
// absent. The pointer is valid until the next Put or Reset.
func (t *Table[K, V]) Put(k K) *V {
	if (t.used+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	s := t.find(k)
	if s.key == 0 {
		s.key = k + 1
		t.used++
	}
	return &s.val
}

// All calls fn for every entry with a non-zero value, in slot order.
// fn may change the value it is handed but must not Put into t.
func (t *Table[K, V]) All(fn func(k K, v *V)) {
	var zero V
	for i := range t.slots {
		if s := &t.slots[i]; s.val != zero {
			fn(s.key-1, &s.val)
		}
	}
}

// Reset empties t. It keeps the slot array when that holds at most
// keep slots and drops it otherwise, so one long run's table is not
// cleared again for every short run after it.
func (t *Table[K, V]) Reset(keep int) {
	if len(t.slots) > keep {
		*t = Table[K, V]{}
		return
	}
	clear(t.slots)
	t.used = 0
}

// grow rehashes the non-zero entries into an array sized for them at
// most half full: twice the slots when no value returned to zero.
func (t *Table[K, V]) grow() {
	old := t.slots
	var zero V
	live := 0
	for _, s := range old {
		if s.val != zero {
			live++
		}
	}
	n := minSlots
	for n < 2*(live+1) {
		n *= 2
	}
	t.slots = make([]slot[K, V], n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.used = 0
	for _, s := range old {
		if s.val != zero {
			*t.find(s.key - 1) = s
			t.used++
		}
	}
}
