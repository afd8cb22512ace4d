package mc

import (
	"math/bits"
	"math/rand/v2"
	"testing"

	"mopac/internal/dram"
	"mopac/internal/timing"
)

// These tests pin the nextAt skip-cache invariants the scheduler-fusion
// fast path depends on: a stale-early entry only costs an extra scan,
// but a stale-late entry (a bank believed asleep past the moment it has
// work) would silently delay or starve requests. Each test drives the
// cache into one of its edges and checks both the cached value and the
// externally visible service behaviour.

// TestNextAtEnqueueResetsCache: a drained bank parks its cache at never
// (no command without new work); Enqueue must reset the entry to 0
// (unknown) so the next pass rescans the bank instead of skipping it
// forever.
func TestNextAtEnqueueResetsCache(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5()}, dram.Config{})
	done := r.read(0, 5, 0)
	r.run(200)
	if *done != 31 {
		t.Fatalf("first read done at %d, want 31", *done)
	}
	// Open-page policy: the row stays open, the queue is empty, and the
	// bank has no command of its own — the cache must say never.
	if got := r.c.nextAt[0]; got != never {
		t.Fatalf("drained bank nextAt = %d, want never", got)
	}
	d2 := r.read(0, 5, 1)
	if got := r.c.nextAt[0]; got != 0 {
		t.Fatalf("nextAt after Enqueue = %d, want 0 (unknown)", got)
	}
	r.run(400)
	// Row hit on the still-open row: served promptly, not starved.
	if *d2 < 0 {
		t.Fatal("request on a never-cached bank never served")
	}
	if s := r.c.Stats(); s.RowHits != 1 {
		t.Fatalf("stats: %+v (want the second read to hit the open row)", s)
	}
}

// TestNextAtRefreshWindowInteraction: a request arriving while the
// controller drains for periodic REF is serviced after the refresh,
// even though the demand-mode bank scan never ran between the enqueue
// and the stall (the cache entry stays 0/stale through the drain).
func TestNextAtRefreshWindowInteraction(t *testing.T) {
	tp := timing.DDR5()
	r := newRig(t, Config{Timing: tp}, dram.Config{})
	// Idle until the REF deadline so the controller enters the refresh
	// stall with empty queues.
	r.run(tp.TREFI)
	if !r.c.refStall && r.c.refDue <= tp.TREFI {
		t.Fatalf("controller not refreshing at tREFI: refDue=%d", r.c.refDue)
	}
	// Arrive mid-refresh: demand issue must hold until the REF ends.
	done := r.read(1, 7, 0)
	if got := r.c.nextAt[1]; got != 0 {
		t.Fatalf("nextAt after mid-REF Enqueue = %d, want 0", got)
	}
	r.run(tp.TREFI + 10*tp.TRFC)
	if *done < 0 {
		t.Fatal("request enqueued during REF never served")
	}
	if *done < tp.TREFI+tp.TRFC {
		t.Fatalf("read done at %d, inside the refresh window ending %d",
			*done, tp.TREFI+tp.TRFC)
	}
	if s := r.c.Stats(); s.RefreshNs < tp.TRFC {
		t.Fatalf("no refresh accounted: %+v", s)
	}
}

// TestNextAtDrainedBankRowOpen: with close-page policy a drained bank
// still owes itself a precharge, so its cache must hold that future
// close instant — not never — and the close must actually happen.
func TestNextAtDrainedBankRowOpen(t *testing.T) {
	r := newRig(t, Config{Timing: timing.DDR5(), Policy: ClosePage}, dram.Config{})
	done := r.read(0, 5, 0)
	// Pile a second row onto the same bank so the close-page fast path
	// (precharge fused with the last column access) cannot fire early;
	// the bank ends the burst with row 9 open and an empty queue.
	d2 := r.read(0, 9, 0)
	r.run(32)
	if *done < 0 {
		t.Fatal("first read not served yet")
	}
	if *d2 >= 0 {
		t.Fatal("conflicting read served implausibly early")
	}
	r.run(500)
	if *d2 < 0 {
		t.Fatal("second read never served")
	}
	if open := r.dev.OpenRow(0); open >= 0 {
		t.Fatalf("close-page left row %d open on a drained bank", open)
	}
	// After the final precharge the bank really has nothing left.
	if got := r.c.nextAt[0]; got != never {
		t.Fatalf("drained close-page bank nextAt = %d, want never", got)
	}
}

// TestIdleSetMatchesNeverCache drives a bursty multi-bank stream under
// every page policy and checks after each event that the idle set
// holds only banks whose cache says never, and that each of them has
// an empty queue: a bank wrongly left idle would never be scanned
// again and its requests would starve.
func TestIdleSetMatchesNeverCache(t *testing.T) {
	for _, cfg := range []Config{
		{Timing: timing.DDR5(), Seed: 1},
		{Timing: timing.DDR5(), Policy: ClosePage, Seed: 2},
		{Timing: timing.DDR5(), Policy: TimeoutPage, TimeoutNs: 60, Seed: 3},
		{Timing: timing.DDR5(), RowPressCapNs: 180, Seed: 4},
	} {
		r := newRig(t, cfg, dram.Config{Banks: 16})
		rng := rand.New(rand.NewPCG(cfg.Seed, 9))
		enqueue := func(ctx any, _ int64) { r.c.Enqueue(ctx.(*Request)) }
		at := int64(0)
		for i := 0; i < 3000; i++ {
			at += int64(rng.IntN(12))
			req := &Request{Bank: rng.IntN(16), Row: rng.IntN(3) * 11, Col: rng.IntN(128)}
			r.eng.AtFunc(at, enqueue, req, 0)
		}
		sawIdle := false
		for r.eng.Now() < at+50_000 && r.eng.Step() {
			for m := r.c.idle; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				if r.c.nextAt[b] != never || r.c.QueueLen(b) != 0 {
					t.Fatalf("policy %v at %d: idle bank %d has nextAt %d and %d queued",
						cfg.Policy, r.eng.Now(), b, r.c.nextAt[b], r.c.QueueLen(b))
				}
				sawIdle = true
			}
		}
		if p := r.c.Pending(); p != 0 {
			t.Fatalf("policy %v: %d requests never served", cfg.Policy, p)
		}
		if !sawIdle && cfg.Policy == OpenPage {
			t.Fatalf("open-page stream never parked a bank in the idle set")
		}
	}
}

// TestIdleBankMidREFEnqueue: an open-page bank parked in the idle set
// with its row open is closed by the refresh drain without being
// scanned; a request that arrives during the refresh must take the
// bank out of the set and be served once the refresh ends.
func TestIdleBankMidREFEnqueue(t *testing.T) {
	tp := timing.DDR5()
	r := newRig(t, Config{Timing: tp}, dram.Config{})
	first := r.read(1, 7, 0)
	r.run(200)
	if *first < 0 {
		t.Fatal("first read not served")
	}
	if r.c.idle&(1<<1) == 0 || r.dev.OpenRow(1) != 7 {
		t.Fatalf("bank 1 not parked idle with row 7 open (idle %b, open %d)", r.c.idle, r.dev.OpenRow(1))
	}
	r.run(tp.TREFI)
	if !r.c.refStall {
		t.Fatalf("controller not refreshing at tREFI")
	}
	done := r.read(1, 7, 1)
	if r.c.idle&(1<<1) != 0 {
		t.Fatal("Enqueue left bank 1 in the idle set")
	}
	r.run(tp.TREFI + 10*tp.TRFC)
	if *done < tp.TREFI+tp.TRFC {
		t.Fatalf("mid-REF read done at %d, want served after the refresh ending %d", *done, tp.TREFI+tp.TRFC)
	}
}
