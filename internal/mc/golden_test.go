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
// controller and device counters.
func goldenDigest(t *testing.T, cfg Config) string {
	t.Helper()
	const banks, requests = 16, 6000
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
// page policy, the hit-streak cap, MoPAC-C selection, the RowPress cap
// and refresh postponement. A scheduler change meant to keep the
// schedule (queue layout, scan order, skip sets) must keep every digest.
func TestGoldenSchedules(t *testing.T) {
	golden := []struct {
		name string
		cfg  Config
		want string
	}{
		{"open-page", Config{Timing: timing.DDR5(), Seed: 1}, "bba72cfc1c01ebe7548d5e42be51b71c30943247a5d15611d0ce2ce4d9dec2c6"},
		{"max-hit-streak", Config{Timing: timing.DDR5(), MaxHitStreak: 4, Seed: 2}, "15b04df647e7933a4a3dbfb7354390cdc8ba5204f7fc4a189beda5c7a93eda95"},
		{"close-page", Config{Timing: timing.DDR5(), Policy: ClosePage, Seed: 3}, "dbcad5829e89ec89afbf36902370580d51226ff0cb0cce1abb88ea4e59643522"},
		{"timeout-page", Config{Timing: timing.DDR5(), Policy: TimeoutPage, TimeoutNs: 60, Seed: 4}, "1ddc824c19867c02bfb7183486d9c01dc7fd1d7a7919951603a6af46aa60be55"},
		{"mopac-c", Config{Timing: timing.MoPACC(), CUProbInv: 8, Seed: 5}, "df74789fab2ade357e30c745b1f40885d1763906d166d57466822753bd74d392"},
		{"rowpress-cap", Config{Timing: timing.DDR5(), RowPressCapNs: 180, MaxHitStreak: 8, Seed: 6}, "4a541c8e3904f65d6dfb1e830541119ece6df21cdbc1ec48cd4fa7cf742590bb"},
		{"postponed-refs", Config{Timing: timing.PRAC(), CUAlways: true, MaxPostponedREFs: 4, Seed: 7}, "04ae5dd3f057a3e85c27c7b8aa696e1211ee32dc675224e4d6504a2bf713db92"},
	}
	for _, g := range golden {
		if got := goldenDigest(t, g.cfg); got != g.want {
			t.Errorf("%s: schedule digest %s, want %s", g.name, got, g.want)
		}
	}
}
