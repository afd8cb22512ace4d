// Package event implements the discrete-event core of the memory-system
// simulator: a pooled calendar-wheel scheduler with int64 nanosecond
// timestamps and deterministic FIFO ordering for events scheduled at the
// same instant.
//
// Components schedule handlers with AtFunc (at an absolute instant) or
// AfterFunc (a delay from now); the Engine runs them in time order and
// exposes the current simulation time. All Engine state is
// single-goroutine: the simulator is deterministic by construction and
// parallelism is achieved by running independent simulations
// concurrently.
//
// The engine is built for throughput: events live in a flat []item pool
// reused through a free list (no per-event heap allocation, no interface
// boxing), and its one handler form, Func, lets callers schedule a
// static function plus a receiver and an int64 payload without
// allocating a closure. The priority queue is a calendar wheel of one
// bucket per nanosecond over the next wheelSize ns — where nearly every
// event the memory system schedules lands. A farther event waits in an
// unsorted far list until the wheel front reaches the list's earliest
// instant, and only then enters an index-based 4-ary overflow heap, so
// far events cancelled before they are due (controller ticks armed at
// a refresh deadline) never touch the heap. Cancelled events are
// dropped lazily on pop and compacted wholesale when they outnumber
// live ones, so cancel-heavy workloads (controller wake coalescing,
// core wake-ups) do not bloat the queue.
package event

import "math/bits"

// Func is the handler an event runs when it fires: a static function
// pointer plus a receiver (or other context) and an int64 payload. The
// engine's clock already shows the event's timestamp when it runs.
// Scheduling a Func allocates nothing when ctx is an existing pointer,
// unlike a closure which heap-allocates its capture block.
type Func func(ctx any, arg int64)

// item is one pooled event slot. Slots are reused through the free list;
// gen increments on every release so stale Tokens cannot touch a reused
// slot. The ordering keys live in the queue entries, not here, so
// compares never chase an index into the pool.
type item struct {
	arg int64
	fn  Func
	ctx any
	gen uint32
}

// idxBits is the key space reserved for the pool-slot index: up to ~1M
// concurrently pending events per engine, leaving 44 bits of sequence
// numbers (~1.8e13 scheduled events) before the engine refuses to run.
const idxBits = 20

const idxMask = 1<<idxBits - 1

// entry is one priority-queue element, in a wheel bucket, the far list
// or the overflow heap: the (at, key) sort key inline plus the pool
// slot it refers to. key holds seq<<idxBits | idx; seq is unique, so
// comparing keys orders by scheduling order.
type entry struct {
	at  int64
	key uint64
}

func (e entry) idx() int32 { return int32(e.key & idxMask) }

// before orders entries by (at, seq): same-instant events fire in the
// order they were scheduled.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// Token identifies a scheduled event so it can be cancelled. The zero
// Token is valid and cancels nothing.
type Token struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op, as is cancelling through a stale
// token whose slot has been reused for a newer event.
func (t Token) Cancel() {
	if t.e != nil {
		t.e.cancelToken(t.idx, t.gen)
	}
}

func (e *Engine) cancelToken(idx int32, gen uint32) {
	it := &e.items[idx]
	if it.gen != gen || it.fn == nil {
		return
	}
	it.fn, it.ctx = nil, nil
	e.live--
	e.dead++
	// Lazy compaction: when cancelled events dominate the queued entries
	// (wheel and overflow alike), sweep them out in one pass so
	// cancel-heavy runs stay O(live) rather than O(scheduled).
	if e.dead > compactMinDead && e.dead > e.live {
		e.compact()
	}
}

// compactMinDead is the dead-event count below which compaction is never
// worth the sweep.
const compactMinDead = 64

// arity is the overflow heap's fan-out. A 4-ary heap halves the tree
// depth of a binary heap: pops do more compares per level but touch
// fewer cache lines.
const arity = 4

// wheelSize is the calendar wheel's span in nanoseconds, one bucket per
// nanosecond. 64 makes the occupancy set one machine word and covers
// the DRAM command gaps, frontend hops and core stalls that make up
// nearly all of the schedule; only refresh deadlines and long core
// waits go to the far list.
const (
	wheelSize = 64
	wheelMask = wheelSize - 1
)

// bucket holds the wheel entries of one instant in scheduling order;
// ents[head:] are still queued.
type bucket struct {
	ents []entry
	head int
}

// Engine is a discrete-event scheduler. The zero value is not usable;
// call NewEngine, or Reset.
type Engine struct {
	items []item  // slot pool; queue entries reference it by index
	free  []int32 // released slots available for reuse
	now   int64
	seq   uint64
	fire  uint64
	live  int // scheduled, not cancelled, not fired
	dead  int // cancelled but still occupying a queue entry

	// wheel holds every entry due in [now, now+wheelSize), in bucket
	// at & wheelMask. Entries are only filed there when due less than
	// wheelSize ns ahead, and the clock never passes a queued entry's
	// instant (everything due earlier fires or is pruned first), so a
	// bucket never mixes two instants. occupied has bit b set while
	// bucket b is non-empty; rotating it by the clock puts the next due
	// bucket at the lowest set bit.
	wheel    [wheelSize]bucket
	occupied uint64

	// far holds the entries due wheelSize ns or more ahead when
	// scheduled, unsorted; farMin bounds their instants from below
	// while far is non-empty. They stay here while the wheel front is
	// due strictly before farMin, so cancelling one costs nothing until
	// compaction sweeps it out.
	far    []entry
	farMin int64

	// heap is the overflow: far entries moved out of the list once the
	// wheel front reaches farMin (or the wheel empties), as a 4-ary
	// min-heap under the same relation. The clock may carry such an
	// entry into the wheel's span; pops compare the wheel front with
	// the heap root, so it still fires in order.
	heap []entry
}

// NewEngine returns an engine with its clock at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.Reset()
	return e
}

// Reset returns e, zero or used, to the state NewEngine gives: clock at
// zero, nothing pending. A used engine keeps its storage (slot pool,
// wheel buckets, far list and heap), so a run on a reset engine
// allocates only where it outgrows the last one. Pool indices never
// order events (sequence numbers decide first), so a reset engine runs
// any schedule exactly as a new one does. Tokens issued before Reset
// must not be used after it.
func (e *Engine) Reset() {
	clear(e.items) // drop the handler contexts of events never fired
	*e = Engine{items: e.items[:0], free: e.free[:0], wheel: e.wheel, far: e.far[:0], heap: e.heap[:0]}
	if e.wheel[0].ents == nil {
		// Carve every bucket's initial capacity out of one backing
		// array, so construction costs one allocation instead of
		// several per bucket; a bucket that outgrows its carve moves
		// out on append.
		const depth = 8
		ents := make([]entry, wheelSize*depth)
		for b := range e.wheel {
			e.wheel[b].ents = ents[b*depth : b*depth : (b+1)*depth]
		}
	}
	for b := range e.wheel {
		e.wheel[b] = bucket{ents: e.wheel[b].ents[:0]}
	}
}

// Now returns the current simulation time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fire }

// Pending returns the number of events still scheduled to fire.
// Cancelled events are excluded even while they await compaction.
func (e *Engine) Pending() int { return e.live }

// alloc pops a free slot or grows the pool.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	if len(e.items) > idxMask {
		panic("event: too many pending events")
	}
	e.items = append(e.items, item{})
	return int32(len(e.items) - 1)
}

// release returns a slot to the free list. The generation bump
// invalidates every outstanding Token for the slot.
func (e *Engine) release(idx int32) {
	it := &e.items[idx]
	it.fn, it.ctx = nil, nil
	it.gen++
	e.free = append(e.free, idx)
}

// AtFunc schedules fn(ctx, arg) to run at absolute time t. Scheduling
// in the past (t < Now) panics: it would silently reorder causality.
func (e *Engine) AtFunc(t int64, fn Func, ctx any, arg int64) Token {
	if t < e.now {
		panic("event: scheduling in the past")
	}
	if fn == nil {
		panic("event: nil handler")
	}
	return e.schedule(t, fn, ctx, arg)
}

// AfterFunc schedules fn(ctx, arg) d nanoseconds from now.
func (e *Engine) AfterFunc(d int64, fn Func, ctx any, arg int64) Token {
	return e.AtFunc(e.now+d, fn, ctx, arg)
}

func (e *Engine) schedule(t int64, fn Func, ctx any, arg int64) Token {
	if e.seq > 1<<(64-idxBits)-1 {
		panic("event: sequence space exhausted")
	}
	idx := e.alloc()
	it := &e.items[idx]
	it.fn, it.ctx, it.arg = fn, ctx, arg
	ent := entry{at: t, key: e.seq<<idxBits | uint64(idx)}
	e.seq++
	e.live++
	if t-e.now < wheelSize {
		b := t & wheelMask
		// A bucket holds one instant and sequence numbers only grow,
		// so a new entry sorts last.
		e.wheel[b].ents = append(e.wheel[b].ents, ent)
		e.occupied |= 1 << uint(b)
	} else {
		if len(e.far) == 0 || t < e.farMin {
			e.farMin = t
		}
		e.far = append(e.far, ent)
	}
	return Token{e, idx, it.gen}
}

// fromHeap and fromNone are the peekLive sources besides a wheel
// bucket index.
const (
	fromHeap = wheelSize
	fromNone = -1
)

// peekLive prunes cancelled entries off the wheel and heap fronts and
// returns the next live entry in (at, key) order plus where it
// sits: a wheel bucket index, fromHeap, or fromNone when the engine is
// drained. The far list joins the heap first unless the wheel front is
// due strictly before farMin.
func (e *Engine) peekLive() (entry, int) {
	b := fromNone
	for e.occupied != 0 {
		ahead := bits.TrailingZeros64(bits.RotateLeft64(e.occupied, -int(e.now&wheelMask)))
		b = int((e.now + int64(ahead)) & wheelMask)
		q := &e.wheel[b]
		if e.items[q.ents[q.head].idx()].fn != nil {
			break
		}
		e.release(q.ents[q.head].idx())
		e.dead--
		e.popBucket(b)
		b = fromNone
	}
	if len(e.far) > 0 && (b == fromNone || e.wheel[b].ents[e.wheel[b].head].at >= e.farMin) {
		e.flushFar()
	}
	if b != fromNone {
		// The heap root bounds every heap entry, cancelled or not: when
		// it is due after the wheel front, the wheel front fires first
		// and the heap need not be touched.
		if front := e.wheel[b].ents[e.wheel[b].head]; len(e.heap) == 0 || front.at < e.heap[0].at {
			return front, b
		}
	}
	for len(e.heap) > 0 {
		ent := e.heap[0]
		if e.items[ent.idx()].fn != nil {
			break
		}
		e.popRoot()
		e.release(ent.idx())
		e.dead--
	}
	if b != fromNone {
		q := &e.wheel[b]
		if len(e.heap) == 0 || q.ents[q.head].before(e.heap[0]) {
			return q.ents[q.head], b
		}
	}
	if len(e.heap) > 0 {
		return e.heap[0], fromHeap
	}
	return entry{}, fromNone
}

// flushFar moves the far list's live entries into the heap and
// releases the cancelled ones.
func (e *Engine) flushFar() {
	live := e.keepLive(e.far[:0], e.far)
	e.dead -= len(e.far) - len(live)
	for _, ent := range live {
		e.heap = append(e.heap, ent)
		e.siftUp(len(e.heap) - 1)
	}
	e.far = e.far[:0]
}

// popBucket removes the front entry of wheel bucket b, recycling the
// bucket's storage once it empties.
func (e *Engine) popBucket(b int) {
	q := &e.wheel[b]
	q.head++
	if q.head == len(q.ents) {
		q.ents = q.ents[:0]
		q.head = 0
		e.occupied &^= 1 << uint(b)
	}
}

// popFrom removes the entry peekLive reported from its structure.
func (e *Engine) popFrom(src int) {
	if src == fromHeap {
		e.popRoot()
		return
	}
	e.popBucket(src)
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !ent.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ent := h[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		m := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[m]) {
				m = c
			}
		}
		if !h[m].before(ent) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ent
}

// popRoot removes the minimum heap entry.
func (e *Engine) popRoot() {
	h := e.heap
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

// compact sweeps cancelled entries out of the wheel buckets, the far
// list and the overflow heap in one pass, tightens farMin, and
// re-establishes the heap property bottom-up.
func (e *Engine) compact() {
	for m := e.occupied; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		q := &e.wheel[b]
		q.ents, q.head = e.keepLive(q.ents[:0], q.ents[q.head:]), 0
		if len(q.ents) == 0 {
			e.occupied &^= 1 << uint(b)
		}
	}
	e.far = e.keepLive(e.far[:0], e.far)
	for i, ent := range e.far {
		if i == 0 || ent.at < e.farMin {
			e.farMin = ent.at
		}
	}
	e.heap = e.keepLive(e.heap[:0], e.heap)
	e.dead = 0
	if n := len(e.heap); n > 1 {
		for i := (n - 2) / arity; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// keepLive appends the live entries of src to dst and releases the
// slots of the cancelled ones. dst may share src's storage from its
// start, since it never grows past the entry being read.
func (e *Engine) keepLive(dst, src []entry) []entry {
	for _, ent := range src {
		if e.items[ent.idx()].fn != nil {
			dst = append(dst, ent)
		} else {
			e.release(ent.idx())
		}
	}
	return dst
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	ent, src := e.peekLive()
	if src == fromNone {
		return false
	}
	e.popFrom(src)
	it := &e.items[ent.idx()]
	fn, ctx, arg := it.fn, it.ctx, it.arg
	e.release(ent.idx())
	e.live--
	e.now = ent.at
	e.fire++
	fn(ctx, arg)
	return true
}

// RunUntil executes events until the clock would pass deadline or the
// queue drains. Events exactly at the deadline still run. It returns the
// number of events executed.
func (e *Engine) RunUntil(deadline int64) int {
	n := 0
	for {
		// Peek without popping so an over-deadline event stays queued.
		ent, src := e.peekLive()
		if src == fromNone || ent.at > deadline {
			break
		}
		e.popFrom(src)
		it := &e.items[ent.idx()]
		fn, ctx, arg := it.fn, it.ctx, it.arg
		e.release(ent.idx())
		e.live--
		e.now = ent.at
		e.fire++
		fn(ctx, arg)
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// RunWhile executes events as long as cond returns true and events remain.
// cond is evaluated before each event.
func (e *Engine) RunWhile(cond func() bool) int {
	n := 0
	for cond() && e.Step() {
		n++
	}
	return n
}
