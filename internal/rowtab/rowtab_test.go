package rowtab

import (
	"math/rand/v2"
	"testing"
)

// pair is a two-field value: it is zero only when both fields are.
type pair struct{ a, b int32 }

func toInt32(v int64) int32 { return int32(v) }
func toInt64(v int64) int64 { return v }
func toPair(v int64) pair   { return pair{int32(v), int32(v >> 32)} }

// Op kinds, drawn from one byte: mostly stores, some of them of the
// zero value, some reads and a rare Reset.
const (
	opStore = iota // *Put(k) = v
	opPut          // Put(k) without a write: inserts a zero value
	opGet
	opReset
)

type op struct {
	kind uint8
	key  uint64
	val  int64
}

// run applies ops to a Table and to a map model that holds no zero
// values, and fails at the first disagreement: a Get must be nil
// exactly when the model lacks the key, a Put must see the model's
// value, and All must visit exactly the model's entries, once each.
// keep is the Reset bound of opReset.
func run[K ~uint32 | ~uint64, V comparable](t testing.TB, ops []op, keep int, val func(int64) V) {
	t.Helper()
	var tab Table[K, V]
	model := map[K]V{}
	var zero V
	for i, o := range ops {
		k := K(o.key)
		switch o.kind {
		case opStore:
			v := val(o.val)
			*tab.Put(k) = v
			if v == zero {
				delete(model, k)
			} else {
				model[k] = v
			}
		case opPut:
			if got := *tab.Put(k); got != model[k] {
				t.Fatalf("op %d: Put(%d) holds %v, want %v", i, k, got, model[k])
			}
		case opGet:
			want, ok := model[k]
			got := tab.Get(k)
			if (got != nil) != ok || (ok && *got != want) {
				t.Fatalf("op %d: Get(%d) present %v, want present %v with %v", i, k, got != nil, ok, want)
			}
		case opReset:
			before := len(tab.slots)
			tab.Reset(keep)
			if before > keep && tab.slots != nil {
				t.Fatalf("op %d: Reset(%d) kept %d slots", i, keep, before)
			}
			if before <= keep && len(tab.slots) != before {
				t.Fatalf("op %d: Reset(%d) changed %d slots to %d", i, keep, before, len(tab.slots))
			}
			clear(model)
		}
	}
	seen := map[K]V{}
	tab.All(func(k K, v *V) {
		if _, dup := seen[k]; dup {
			t.Fatalf("All visited %d twice", k)
		}
		seen[k] = *v
	})
	if len(seen) != len(model) {
		t.Fatalf("All visited %d entries, model holds %d", len(seen), len(model))
	}
	for k, v := range model {
		if seen[k] != v {
			t.Fatalf("All: key %d = %v, want %v", k, seen[k], v)
		}
	}
}

// randomOps draws n ops over span clustered keys plus sparse keys up
// to far, with values that are zero one time in four.
func randomOps(rng *rand.Rand, n int, span, far uint64) []op {
	ops := make([]op, n)
	for i := range ops {
		o := &ops[i]
		switch k := rng.IntN(100); {
		case k < 55:
			o.kind = opStore
		case k < 65:
			o.kind = opPut
		case k < 99:
			o.kind = opGet
		default:
			o.kind = opReset
		}
		o.key = rng.Uint64N(span)
		if rng.IntN(8) == 0 {
			o.key = rng.Uint64N(far)
		}
		if rng.IntN(4) != 0 {
			o.val = rng.Int64()
		}
	}
	return ops
}

// TestTableMatchesMap drives tables of both key widths and of scalar
// and two-field values through random stores (a quarter of them of the
// zero value, which deletes), zero-value inserts, reads and Resets,
// over key ranges wide enough to force several growths. The Resets'
// random bounds fall on both sides of the table's size.
func TestTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x7ab1e))
		span := uint64(1) << (4 + seed) // 32 .. 4096 distinct keys
		keep := 1 << (4 + rng.IntN(10))
		run[uint32](t, randomOps(rng, 20_000, span, 1<<31), keep, toInt32)
		run[uint64](t, randomOps(rng, 20_000, span, 1<<40), keep, toInt64)
		run[uint64](t, randomOps(rng, 20_000, span, 1<<40), keep, toPair)
		run[uint32](t, randomOps(rng, 20_000, span, 1<<31), keep, toPair)
	}
}

// FuzzTable decodes the input as ops, three bytes each (kind, key,
// value), and runs them against the map model on a 32-bit-key table
// of counters and a 64-bit-key table of two-field values.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 0, 2, 1, 0})
	f.Add([]byte{0, 3, 9, 1, 4, 0, 3, 0, 0, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]op, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			o := op{kind: data[i] % 4, key: uint64(data[i+1]), val: int64(data[i+2] % 8)}
			if data[i]&0x80 != 0 {
				o.key <<= 24 // far keys, spread over the hash's range
			}
			if data[i]&0x40 != 0 {
				o.val <<= 32 // a pair's second field only
			}
			ops = append(ops, o)
		}
		run[uint32](t, ops, 64, toInt32)
		run[uint64](t, ops, 64, toPair)
	})
}

// BenchmarkTable is the guards' per-bank pattern: counter adds over a
// few dozen hot rows, each row's counter reset at 32 the way a
// mitigation resets it. Steady state allocates nothing.
func BenchmarkTable(b *testing.B) {
	var tab Table[uint32, int32]
	rng := rand.New(rand.NewPCG(1, 2))
	rows := make([]uint32, 1024)
	for i := range rows {
		rows[i] = uint32(rng.IntN(64) * 131)
	}
	bump := func(r uint32) {
		if v := tab.Put(r); *v+1 < 32 {
			*v++
		} else {
			*v = 0
		}
	}
	for _, r := range rows { // reach the steady-state size
		bump(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bump(rows[i&1023])
	}
}
