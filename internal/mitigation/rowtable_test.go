package mitigation

import (
	"math/rand/v2"
	"testing"
)

// TestRowTableMatchesMap drives the table and a map model with the same
// random add, reset and get calls over a row range wide enough to
// force several growths, and over rows far apart: every get and every
// add's return must agree, and reset rows must read 0 as deleted keys.
func TestRowTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x7ab1e))
		var tab rowTable
		model := map[int]int{}
		span := 1 << (4 + seed) // 32 .. 4096 distinct rows
		row := func() int {
			if rng.IntN(8) == 0 {
				return rng.IntN(1 << 30) // sparse far rows
			}
			return rng.IntN(span)
		}
		if got := tab.get(5); got != 0 {
			t.Fatalf("empty table get = %d", got)
		}
		for op := 0; op < 20_000; op++ {
			r := row()
			switch k := rng.IntN(10); {
			case k < 5:
				by := 1 + rng.IntN(64)
				model[r] += by
				if got := tab.add(r, by); got != model[r] {
					t.Fatalf("seed %d op %d: add(%d, %d) = %d, want %d", seed, op, r, by, got, model[r])
				}
			case k < 7:
				delete(model, r)
				tab.reset(r)
			default:
				if got := tab.get(r); got != model[r] {
					t.Fatalf("seed %d op %d: get(%d) = %d, want %d", seed, op, r, got, model[r])
				}
			}
		}
		for r, c := range model {
			if got := tab.get(r); got != c {
				t.Fatalf("seed %d: final get(%d) = %d, want %d", seed, r, got, c)
			}
		}
		if len(tab.slots) < len(model) {
			t.Fatalf("seed %d: %d slots hold %d rows", seed, len(tab.slots), len(model))
		}
	}
}
