package mitigation

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"mopac/internal/dram"
	"mopac/internal/security"
)

// streamRows is the bank size of the guard stream tests: small enough
// to read every row's counter back.
const streamRows = 1024

// streamGuard is one guard the stream tests drive, with its closing
// precharge kind and its counter read-back.
type streamGuard struct {
	name    string
	g       dram.BankGuard
	cu      bool
	counter func(row int) int
}

// streamGuards builds MoPAC-D (as NewFactory builds chip 0, bank 0),
// MOAT and QPRAC at TRH 500.
func streamGuards(t *testing.T) []streamGuard {
	t.Helper()
	prac := security.DeriveWithP(security.VariantPRAC, 500, 1)
	newMoPACD, err := NewFactory(Options{Params: security.DeriveMoPACD(500), Rows: streamRows, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d := newMoPACD(0, 0).(*MoPACD)
	m := NewMOAT(MOATFromParams(prac, streamRows))
	q := NewQPRAC(QPRACFromParams(prac, streamRows))
	return []streamGuard{
		{"mopacd", d, false, d.Counter},
		{"moat", m, true, m.Counter},
		{"qprac", q, true, q.Counter},
	}
}

// hammerStream drives g with 20,000 ACTs, three in four to four hot
// rows (two at the bank edges) and the rest to random rows, each closed
// by a precharge, with an ABO action whenever the guard requests one
// and a REF every 1,024 ACTs. check sees every bool Activate and
// PrechargeClose return. It returns the ABOs served.
func hammerStream(sg streamGuard, check func(call string, i int, got bool)) int {
	g := sg.g
	rng := rand.New(rand.NewPCG(3, 4))
	hot := []int{0, 100, 102, streamRows - 1}
	abos := 0
	for i := 0; i < 20_000; i++ {
		row := hot[i%len(hot)]
		if rng.IntN(4) == 0 {
			row = rng.IntN(streamRows)
		}
		now := int64(i) * 50
		check("Activate", i, g.Activate(now, row))
		check("PrechargeClose", i, g.PrechargeClose(now+32, row, 32, sg.cu))
		if g.AlertRequested() {
			abos++
			g.ABOAction(now + 40)
		}
		if i%1024 == 1023 {
			g.Refresh(now + 45)
		}
	}
	return abos
}

// TestGuardAlertReturns checks the BankGuard contract the device's one
// call per chip relies on: every bool Activate and PrechargeClose
// return equals AlertRequested right after the call.
func TestGuardAlertReturns(t *testing.T) {
	for _, sg := range streamGuards(t) {
		raised := 0
		abos := hammerStream(sg, func(call string, i int, got bool) {
			if want := sg.g.AlertRequested(); got != want {
				t.Fatalf("%s: ACT %d: %s returned %v, AlertRequested %v", sg.name, i, call, got, want)
			}
			if got {
				raised++
			}
		})
		if abos == 0 || raised == 0 {
			t.Fatalf("%s: stream raised no alert (%d ABOs); it must exercise both answers", sg.name, abos)
		}
	}
}

// TestGuardCounterParity pins every row's counter after the hammer
// stream, as a digest taken when the guards kept their counters in Go
// maps: the row table must read back exactly what the map did, reset
// rows included.
func TestGuardCounterParity(t *testing.T) {
	want := map[string]struct {
		abos, nonzero int
		digest        uint64
	}{
		"mopacd": {367, 463, 0x5a7c166f801001a0},
		"moat":   {30, 1013, 0x68cc063b0beb2b93},
		"qprac":  {14, 1013, 0x4fce4bfdf3453f3e},
	}
	for _, sg := range streamGuards(t) {
		abos := hammerStream(sg, func(string, int, bool) {})
		h := fnv.New64a()
		nonzero := 0
		for r := 0; r < streamRows; r++ {
			if c := sg.counter(r); c != 0 {
				nonzero++
				fmt.Fprintf(h, "%d:%d,", r, c)
			}
		}
		w := want[sg.name]
		if abos != w.abos || nonzero != w.nonzero || h.Sum64() != w.digest {
			t.Fatalf("%s: %d ABOs, %d non-zero counters, digest %016x; want %d, %d, %016x",
				sg.name, abos, nonzero, h.Sum64(), w.abos, w.nonzero, w.digest)
		}
	}
}
