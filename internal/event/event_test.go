package event

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	e := NewEngine()
	var got []int64
	for _, at := range []int64{30, 10, 20} {
		at := at
		e.AtFunc(at, func(any, int64) { got = append(got, at) }, nil, 0)
	}
	for e.Step() {
	}
	want := []int64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtFunc(5, func(any, int64) { got = append(got, i) }, nil, 0)
	}
	for e.Step() {
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var fired int64 = -1
	e.AtFunc(100, func(any, int64) {
		e.AfterFunc(50, func(any, int64) { fired = e.Now() }, nil, 0)
	}, nil, 0)
	for e.Step() {
	}
	if fired != 150 {
		t.Fatalf("nested AfterFunc fired at %d, want 150", fired)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	tok := e.AtFunc(10, func(any, int64) { ran = true }, nil, 0)
	tok.Cancel()
	tok.Cancel() // double-cancel must be harmless
	for e.Step() {
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.AtFunc(10, func(any, int64) {}, nil, 0)
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.AtFunc(5, func(any, int64) {}, nil, 0)
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []int64
	for _, at := range []int64{10, 20, 30, 40} {
		at := at
		e.AtFunc(at, func(any, int64) { got = append(got, at) }, nil, 0)
	}
	if n := e.RunUntil(25); n != 2 {
		t.Fatalf("RunUntil(25) executed %d events, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %d, want 25 (clock advances to deadline)", e.Now())
	}
	if n := e.RunUntil(40); n != 2 {
		t.Fatalf("RunUntil(40) executed %d events, want 2 (inclusive)", n)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("idle RunUntil: Now = %d, want 1000", e.Now())
	}
}

func TestRunWhile(t *testing.T) {
	e := NewEngine()
	count := 0
	var reschedule Func
	reschedule = func(any, int64) {
		count++
		e.AfterFunc(1, reschedule, nil, 0)
	}
	e.AfterFunc(1, reschedule, nil, 0)
	e.RunWhile(func() bool { return count < 100 })
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order, including interleaved scheduling from handlers.
func TestQuickTimeMonotonic(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		e := NewEngine()
		rng := rand.New(rand.NewPCG(seed, 42))
		var fired []int64
		for _, r := range raw {
			at := int64(r)
			e.AtFunc(at, func(any, int64) {
				fired = append(fired, e.Now())
				if rng.IntN(4) == 0 {
					e.AfterFunc(int64(rng.IntN(100)), func(any, int64) {
						fired = append(fired, e.Now())
					}, nil, 0)
				}
			}, nil, 0)
		}
		for e.Step() {
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelHeavyPendingAndCompaction drives the cancel path hard:
// Pending must exclude cancelled events immediately, the lazy sweep must
// shrink the heap once dead entries dominate, and the survivors must
// still fire in order.
func TestCancelHeavyPendingAndCompaction(t *testing.T) {
	e := NewEngine()
	const n = 1000
	toks := make([]Token, 0, n)
	var fired []int64
	for i := 0; i < n; i++ {
		at := int64(i + 1)
		toks = append(toks, e.AtFunc(at, func(any, int64) { fired = append(fired, at) }, nil, 0))
	}
	if got := e.Pending(); got != n {
		t.Fatalf("Pending = %d, want %d", got, n)
	}
	// Cancel all but every 10th event.
	live := 0
	for i, tok := range toks {
		if i%10 == 0 {
			live++
			continue
		}
		tok.Cancel()
	}
	if got := e.Pending(); got != live {
		t.Fatalf("Pending after cancels = %d, want %d", got, live)
	}
	// 900 dead of 1000 entries crosses the sweep threshold: compaction
	// must have run, leaving at most the live events plus a sub-threshold
	// tail of dead ones across the wheel, the far list and the heap.
	if q := queued(e); q > live+compactMinDead || e.dead > compactMinDead {
		t.Fatalf("queued = %d dead = %d after mass cancel; compaction never ran (live = %d)",
			q, e.dead, live)
	}
	// Double-cancel is a no-op.
	toks[1].Cancel()
	if got := e.Pending(); got != live {
		t.Fatalf("Pending after double cancel = %d, want %d", got, live)
	}
	for e.Step() {
	}
	if len(fired) != live {
		t.Fatalf("fired %d events, want %d", len(fired), live)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i-1] >= fired[i] {
			t.Fatalf("fired out of order: %v", fired)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// queued counts the entries an engine holds, live or cancelled, in the
// wheel buckets, the far list and the overflow heap.
func queued(e *Engine) int {
	n := len(e.heap) + len(e.far)
	for b := range e.wheel {
		n += len(e.wheel[b].ents) - e.wheel[b].head
	}
	return n
}

// TestStaleTokenCannotCancelReusedSlot exercises the generation check:
// once an event's pool slot is reused, a stale token for the old event
// must not cancel the new one.
func TestStaleTokenCannotCancelReusedSlot(t *testing.T) {
	e := NewEngine()
	stale := e.AtFunc(1, func(any, int64) {}, nil, 0)
	for e.Step() {
	}
	// The slot is now on the free list; the next schedule reuses it.
	ran := false
	fresh := e.AtFunc(2, func(any, int64) { ran = true }, nil, 0)
	if fresh.idx != stale.idx {
		t.Fatalf("slot not reused: stale idx %d, fresh idx %d", stale.idx, fresh.idx)
	}
	stale.Cancel() // must be a no-op: the generation moved on
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after stale cancel, want 1", got)
	}
	for e.Step() {
	}
	if !ran {
		t.Fatal("stale token cancelled the reused slot's event")
	}

	// Same story when the slot is recycled through Cancel rather than
	// firing.
	tok := e.AtFunc(10, func(any, int64) { t.Fatal("cancelled event fired") }, nil, 0)
	tok.Cancel()
	tok.Cancel() // second cancel is a no-op, not a double-release
	for e.Step() {
	}
}

// TestZeroTokenCancel checks the zero Token is safe to cancel.
func TestZeroTokenCancel(t *testing.T) {
	var tok Token
	tok.Cancel()
}

// BenchmarkEngineScheduleAndFireFunc schedules and fires one event at
// a time: zero allocations per event.
func BenchmarkEngineScheduleAndFireFunc(b *testing.B) {
	e := NewEngine()
	nop := func(any, int64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterFunc(int64(i%97), nop, nil, 0)
		e.Step()
	}
}

// BenchmarkEngineCancelHeavy measures the wake-coalescing pattern every
// controller and core uses: schedule a wake, cancel it, schedule an
// earlier one, fire.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	e := NewEngine()
	nop := func(any, int64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok := e.AfterFunc(100, nop, nil, 0)
		tok.Cancel()
		e.AfterFunc(1, nop, nil, 0)
		e.Step()
	}
}

// BenchmarkEngineSimMix keeps 32 events in flight, the queue depth a
// simulation runs at, with a fixed seeded delay mix shaped like the
// simulator's: 93 % land 1–63 ns ahead in the wheel, 3 % 64 ns or more
// ahead in the overflow heap, 2 % fire at the current instant and 2 %
// are 15 ns frontend hops. Each op fires one event, whose handler
// schedules its replacement. The one-event-in-flight benchmarks above
// never queue more than a bucket's worth of work.
func BenchmarkEngineSimMix(b *testing.B) {
	const inFlight = 32
	rng := rand.New(rand.NewPCG(1, 2))
	mix := make([]int64, 1024)
	for i := range mix {
		switch k := rng.IntN(100); {
		case k < 93:
			mix[i] = 1 + rng.Int64N(wheelSize-1)
		case k < 96:
			mix[i] = wheelSize + rng.Int64N(4000)
		case k < 98:
			mix[i] = 0
		default:
			mix[i] = 15 // a frontend hop
		}
	}
	e := NewEngine()
	next := 0
	var fire Func
	fire = func(any, int64) {
		d := mix[next%len(mix)]
		next++
		e.AfterFunc(d, fire, nil, 0)
	}
	for i := 0; i < inFlight; i++ {
		e.AfterFunc(int64(i), fire, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestFarRearmStaysOffHeap drives the controller-tick pattern: a tick
// armed at a far deadline that every near event cancels and re-arms at
// the same instant. The heap must never be touched while the wheel
// front stays before the deadline, compaction must keep the far list
// bounded, and the tick must still fire at its deadline.
func TestFarRearmStaysOffHeap(t *testing.T) {
	e := NewEngine()
	const deadline = 100_000
	var fired []int64
	tickFn := func(any, int64) { fired = append(fired, e.Now()) }
	tick := e.AtFunc(deadline, tickFn, nil, 0)
	var near Func
	near = func(any, int64) {
		tick.Cancel()
		tick = e.AtFunc(deadline, tickFn, nil, 0)
		if e.Now() < deadline-100 {
			e.AfterFunc(10, near, nil, 0)
		}
	}
	e.AfterFunc(10, near, nil, 0)
	maxFar := 0
	for e.Now() < deadline-100 {
		e.Step()
		maxFar = max(maxFar, len(e.far))
	}
	if cap(e.heap) != 0 {
		t.Fatalf("heap touched (cap %d) while the wheel front stayed before the far deadline", cap(e.heap))
	}
	if maxFar > compactMinDead+2 {
		t.Fatalf("far list reached %d entries; compaction should bound it by %d", maxFar, compactMinDead+2)
	}
	for e.Step() {
	}
	if len(fired) != 1 || fired[0] != deadline {
		t.Fatalf("tick fired at %v, want once at %d", fired, deadline)
	}
}

// BenchmarkEngineFarRearm measures the controller-tick pattern: each op
// fires one near event that cancels the tick armed at the next refresh
// deadline and re-arms it there; the tick itself fires every 3900 ns
// and arms the next deadline.
func BenchmarkEngineFarRearm(b *testing.B) {
	const tREFI = 3900
	e := NewEngine()
	deadline := int64(tREFI)
	var tick Token
	var tickFn, near Func
	tickFn = func(any, int64) {
		deadline += tREFI
		tick = e.AtFunc(deadline, tickFn, nil, 0)
	}
	near = func(any, int64) {
		tick.Cancel()
		tick = e.AtFunc(deadline, tickFn, nil, 0)
		e.AfterFunc(10, near, nil, 0)
	}
	tick = e.AtFunc(deadline, tickFn, nil, 0)
	e.AfterFunc(10, near, nil, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
