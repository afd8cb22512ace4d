package mc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"mopac/internal/dram"
	"mopac/internal/timing"
)

// goldenDigest drives one controller with a seeded, bursty request
// stream — few rows per bank, so hits, conflicts and deep queues all
// occur, and the run spans several refresh intervals — and digests
// every completion in the order the controller reports it (completion
// order: the data bus serialises transfers) together with the final
// controller and device counters. banks sets the device's bank count.
func goldenDigest(t *testing.T, banks int, cfg Config) string {
	t.Helper()
	const requests = 6000
	r := newRig(t, cfg, dram.Config{Banks: banks})
	h := sha256.New()
	var rec [8]byte
	rng := rand.New(rand.NewPCG(cfg.Seed, 17))
	enqueue := func(ctx any, _ int64) { r.c.Enqueue(ctx.(*Request)) }
	at := int64(0)
	for i := 0; i < requests; i++ {
		id := uint64(i)
		at += int64(rng.IntN(8))
		req := &Request{
			Bank:  rng.IntN(banks),
			Row:   rng.IntN(4) * 97,
			Col:   rng.IntN(128),
			Write: rng.IntN(4) == 0,
			Done: func(_ any, doneAt int64) {
				binary.LittleEndian.PutUint64(rec[:], uint64(doneAt)<<16|id)
				h.Write(rec[:])
			},
		}
		r.eng.AtFunc(at, enqueue, req, 0)
	}
	r.run(at + 200_000)
	if p := r.c.Pending(); p != 0 {
		t.Fatalf("%d requests never served", p)
	}
	fmt.Fprintf(h, "%+v %+v", r.c.Stats(), r.dev.Stats())
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSchedules pins the controller's full schedule under every
// page policy, MoPAC-C selection, the RowPress cap
// and refresh postponement. The 64-bank case spans the full width of
// the scheduler's bank masks. A scheduler change meant to keep the
// schedule (queue layout, scan order, skip sets) must keep every digest.
func TestGoldenSchedules(t *testing.T) {
	golden := []struct {
		name  string
		banks int
		cfg   Config
		want  string
	}{
		{"open-page", 16, Config{Timing: timing.DDR5(), Seed: 1}, "bba72cfc1c01ebe7548d5e42be51b71c30943247a5d15611d0ce2ce4d9dec2c6"},
		{"close-page", 16, Config{Timing: timing.DDR5(), Policy: ClosePage, Seed: 3}, "dbcad5829e89ec89afbf36902370580d51226ff0cb0cce1abb88ea4e59643522"},
		{"timeout-page", 16, Config{Timing: timing.DDR5(), Policy: TimeoutPage, TimeoutNs: 60, Seed: 4}, "1ddc824c19867c02bfb7183486d9c01dc7fd1d7a7919951603a6af46aa60be55"},
		{"mopac-c", 16, Config{Timing: timing.MoPACC(), CUProbInv: 8, Seed: 5}, "df74789fab2ade357e30c745b1f40885d1763906d166d57466822753bd74d392"},
		{"rowpress-cap", 16, Config{Timing: timing.DDR5(), RowPressCapNs: 180, Seed: 6}, "cce80c25e4e08e5af0214f3364b894cc3737a2dae1a9289a424b602af17689e4"},
		{"postponed-refs", 16, Config{Timing: timing.PRAC(), CUAlways: true, MaxPostponedREFs: 4, Seed: 7}, "04ae5dd3f057a3e85c27c7b8aa696e1211ee32dc675224e4d6504a2bf713db92"},
		{"open-page-64-banks", 64, Config{Timing: timing.DDR5(), Seed: 8}, "7a26784e425910e428f8ae26212d91b7ff69d6a14837749597af23ef77b7c978"},
	}
	for _, g := range golden {
		if got := goldenDigest(t, g.banks, g.cfg); got != g.want {
			t.Errorf("%s: schedule digest %s, want %s", g.name, got, g.want)
		}
	}
}
