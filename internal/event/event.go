// Package event implements the discrete-event core of the memory-system
// simulator: a pooled calendar-wheel scheduler with int64 nanosecond
// timestamps and deterministic FIFO ordering for events scheduled at the
// same instant.
//
// Components schedule callbacks; the Engine runs them in time order and
// exposes the current simulation time. All Engine state is
// single-goroutine: the simulator is deterministic by construction and
// parallelism across runs is achieved by running independent
// simulations concurrently. For parallelism inside one run, the
// sharded Domains engine (domains.go) advances several domain-local
// schedulers in conservative lookahead epochs while preserving the
// same determinism guarantee.
//
// The engine is built for throughput: events live in a flat []item pool
// reused through a free list (no per-event heap allocation, no interface
// boxing), and the pre-bound Func form lets hot callers schedule a
// static function plus a receiver and an int64 payload without
// allocating a closure. The priority queue is a calendar wheel of one
// bucket per nanosecond over the next wheelSize ns — where nearly every
// event the memory system schedules lands — backed by an index-based
// 4-ary overflow heap for the rare farther event. Cancelled events are
// dropped lazily on pop and compacted wholesale when they outnumber
// live ones, so cancel-heavy workloads (controller wake coalescing,
// core wake-ups) do not bloat the queue.
package event

import "math/bits"

// Handler is a callback invoked when its event fires. The engine's clock
// already shows the event's timestamp when the handler runs.
type Handler func()

// Func is the pre-bound handler form used on hot paths: a static
// function pointer plus a receiver (or other context) and an int64
// payload. Scheduling a Func allocates nothing when ctx is an existing
// pointer, unlike a closure which heap-allocates its capture block.
type Func func(ctx any, arg int64)

// callHandler adapts the closure Handler form onto Func. Func values and
// Handler values are pointer-shaped, so the any conversion is free.
func callHandler(ctx any, _ int64) { ctx.(Handler)() }

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
// concurrently pending events per engine, leaving 37 bits of sequence
// numbers (~1.4e11 scheduled events) below the cross/src fields before
// the engine refuses to run.
const idxBits = 20

const idxMask = 1<<idxBits - 1

// crossBit marks an entry scheduled through Send — a modelled
// cross-domain hop. It sits above the source-domain and sequence
// fields so that at equal (at, birth) every locally scheduled event
// precedes every hop, which is exactly the order the sharded engine
// realises: a domain schedules all of an instant's local events during
// the epoch, and barrier injection appends the hops afterwards.
const crossBit = uint64(1) << 63

// srcBits is the key space for a hop's source-domain index, directly
// below the cross bit: hops landing at the same (at, birth) order by
// sender domain, then per-sender send order — the same
// goroutine-independent merge rule Domains.inject applies, which is
// what lets the two engines elaborate one schedule.
const (
	srcBits  = 6
	srcShift = 63 - srcBits
	// MaxDomains bounds the source indices Send accepts (and therefore
	// how many domains a simulation may shard onto).
	MaxDomains = 1 << srcBits
)

// entry is one priority-queue element, in a wheel bucket or the
// overflow heap: the (at, birth, key) sort key inline plus the pool
// slot it refers to. key holds cross | src<<srcShift | seq<<idxBits |
// idx; seq is unique, so comparing keys orders by (cross, src, seq).
type entry struct {
	at    int64
	birth int64 // engine time when the event was scheduled
	key   uint64
}

func (e entry) idx() int32 { return int32(e.key & idxMask) }

// before orders entries by (at, birth, cross, src, seq): same-time
// events fire in birth order, then local-before-hop, then hops by
// sender domain, then scheduling (FIFO) order. Birth never disagrees
// with seq on a serial engine (the clock is monotone, so
// later-scheduled events are never younger), so for purely local
// schedules this is the classic (at, seq) FIFO; the birth, cross and
// src terms exist to pin the one order a sharded engine can also
// reproduce (see domains.go).
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.birth != b.birth {
		return a.birth < b.birth
	}
	return a.key < b.key
}

// Sched is the scheduling surface shared by the serial Engine and the
// per-domain engines of the sharded Domains engine. Components hold a
// Sched instead of a concrete engine, so the same controller or core
// code runs unchanged on either; the interface call costs a few
// nanoseconds against event-handler bodies that run hundreds.
type Sched interface {
	Now() int64
	At(t int64, fn Handler) Token
	After(d int64, fn Handler) Token
	AtFunc(t int64, fn Func, ctx any, arg int64) Token
	AfterFunc(d int64, fn Func, ctx any, arg int64) Token
}

// canceler is the token-owner side of Token: both engine flavours
// implement it so one Token type serves both.
type canceler interface {
	cancelToken(idx int32, gen uint32)
}

// Token identifies a scheduled event so it can be cancelled. The zero
// Token is valid and cancels nothing.
type Token struct {
	c   canceler
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op, as is cancelling through a stale
// token whose slot has been reused for a newer event.
func (t Token) Cancel() {
	if t.c != nil {
		t.c.cancelToken(t.idx, t.gen)
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
// waits overflow to the heap.
const (
	wheelSize = 64
	wheelMask = wheelSize - 1
)

// bucket holds the wheel entries of one instant, sorted by the engine's
// (at, birth, key) relation; ents[head:] are still queued.
type bucket struct {
	ents []entry
	head int
}

// Engine is a discrete-event scheduler. The zero value is not usable;
// call NewEngine.
type Engine struct {
	items []item  // slot pool; wheel and heap entries reference it by index
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

	// heap is the overflow: entries due wheelSize ns or more ahead when
	// scheduled, as a 4-ary min-heap under the same relation. The clock
	// may carry such an entry into the wheel's span; pops compare the
	// wheel front with the heap root, so it still fires in order.
	heap []entry
}

// NewEngine returns an engine with its clock at time zero.
func NewEngine() *Engine {
	// Carve every bucket's initial capacity out of one backing array,
	// so construction costs one allocation instead of several per
	// bucket; a bucket that outgrows its carve moves out on append.
	const depth = 8
	e := &Engine{}
	ents := make([]entry, wheelSize*depth)
	for b := range e.wheel {
		e.wheel[b].ents = ents[b*depth : b*depth : (b+1)*depth]
	}
	return e
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

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it would silently reorder causality.
func (e *Engine) At(t int64, fn Handler) Token { return e.AtFunc(t, callHandler, fn, 0) }

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d int64, fn Handler) Token { return e.At(e.now+d, fn) }

// AtFunc schedules the pre-bound handler fn(ctx, arg) at absolute time
// t. It is the zero-allocation form of At.
func (e *Engine) AtFunc(t int64, fn Func, ctx any, arg int64) Token {
	if t < e.now {
		panic("event: scheduling in the past")
	}
	if fn == nil {
		panic("event: nil handler")
	}
	return e.schedule(t, 0, fn, ctx, arg)
}

// Send schedules fn(ctx, arg) d nanoseconds from now as a modelled
// cross-domain hop from the logical domain src: at equal (at, birth)
// it fires after every locally scheduled event, and hops from
// different senders resolve by src, then per-sender send order —
// exactly the order barrier injection produces on the sharded Domains
// engine. The simulation layer uses it for the frontend hops
// (core→controller arrival, controller→core completion) so the serial
// engine elaborates the exact schedule the sharded one must reproduce;
// src is the index the sender's component would occupy in the sharded
// partition (subchannel index, or subchannel count for the core
// complex).
func (e *Engine) Send(src int, d int64, fn Func, ctx any, arg int64) Token {
	if d < 0 {
		panic("event: negative hop delay")
	}
	if src < 0 || src >= MaxDomains {
		panic("event: source domain out of range")
	}
	if fn == nil {
		panic("event: nil handler")
	}
	return e.schedule(e.now+d, crossBit|uint64(src)<<srcShift, fn, ctx, arg)
}

func (e *Engine) schedule(t int64, cross uint64, fn Func, ctx any, arg int64) Token {
	if e.seq > 1<<(srcShift-idxBits)-1 {
		panic("event: sequence space exhausted")
	}
	idx := e.alloc()
	it := &e.items[idx]
	it.fn, it.ctx, it.arg = fn, ctx, arg
	ent := entry{at: t, birth: e.now, key: cross | e.seq<<idxBits | uint64(idx)}
	e.seq++
	e.live++
	if t-e.now < wheelSize {
		b := t & wheelMask
		q := &e.wheel[b]
		q.ents = append(q.ents, ent)
		// Births and sequence numbers only grow, so a new entry sorts
		// last unless it must precede same-birth hops: walk it back
		// past those.
		i := len(q.ents) - 1
		for ; i > q.head && ent.before(q.ents[i-1]); i-- {
			q.ents[i] = q.ents[i-1]
		}
		q.ents[i] = ent
		e.occupied |= 1 << uint(b)
	} else {
		e.heap = append(e.heap, ent)
		e.siftUp(len(e.heap) - 1)
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
// returns the next live entry in (at, birth, key) order plus where it
// sits: a wheel bucket index, fromHeap, or fromNone when the engine is
// drained.
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

// NextAt returns the timestamp of the next live event without running
// it, pruning cancelled entries from the queue fronts on the way. The
// second return is false when no live events remain.
func (e *Engine) NextAt() (int64, bool) {
	ent, src := e.peekLive()
	if src == fromNone {
		return 0, false
	}
	return ent.at, true
}

// AfterFunc schedules fn(ctx, arg) d nanoseconds from now.
func (e *Engine) AfterFunc(d int64, fn Func, ctx any, arg int64) Token {
	return e.AtFunc(e.now+d, fn, ctx, arg)
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

// compact sweeps cancelled entries out of the wheel buckets and the
// overflow heap in one pass and re-establishes the heap property
// bottom-up.
func (e *Engine) compact() {
	for m := e.occupied; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		q := &e.wheel[b]
		q.ents, q.head = e.keepLive(q.ents[:0], q.ents[q.head:]), 0
		if len(q.ents) == 0 {
			e.occupied &^= 1 << uint(b)
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
