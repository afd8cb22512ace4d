package event

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the sharded counterpart of the serial Engine: a
// conservative parallel discrete-event scheduler (classic
// null-message-free PDES). The system is partitioned into N domains —
// in the simulator, one per subchannel plus one for the core complex —
// each owning a pooled heap and executed by its own goroutine.
// Domains only interact through Send, which requires a delay of at
// least the lookahead window; that guarantee lets every domain execute
// all local events inside the epoch [T, T+lookahead) without observing
// the others, because nothing a peer does during the epoch can produce
// an event for this domain earlier than T+lookahead.
//
// Determinism is by construction, not by luck:
//
//   - Each domain's heap orders events by (at, birth, seq): timestamp,
//     then the simulation time at which the event was scheduled, then
//     a per-domain sequence number. Local scheduling assigns seq in
//     call order, so intra-domain ordering is the familiar FIFO of the
//     serial engine.
//   - Cross-domain messages buffer in per-(src,dst) outboxes during an
//     epoch and are injected at the barrier by the coordinator alone,
//     merged across sources by (birth, source-domain index, send
//     order). The injection order assigns the seq tiebreak, so two
//     deliveries landing at the same (at, birth) resolve by source
//     index — a fixed rule independent of goroutine interleaving.
//
// Worker goroutines synchronise with the coordinator purely through
// channels (one epoch-start channel per domain, one shared completion
// channel), so every heap mutation is ordered by happens-before edges
// and the engine is clean under the race detector. There are no locks
// on the event hot path.

// Checkpointable is the per-component speculation hook: a component
// whose state can be snapshotted at a barrier and rewound if the
// speculation that followed is discarded. Components register with
// their domain via DomainEngine.Attach; both methods run on the
// domain's worker goroutine (Checkpoint) or on the coordinator with
// all workers parked (Restore), so implementations need no locking.
//
// Checkpoint is called at most once per speculative stretch, just
// before the first optimistic event executes. Restore is called only
// if a Checkpoint was taken and the stretch is rolled back; a
// committed stretch simply never sees Restore, and the next
// Checkpoint overwrites the old snapshot.
type Checkpointable interface {
	Checkpoint()
	Restore()
}

// Committer is optionally implemented by Checkpointable components
// that defer destructive operations (pool recycling, observer
// side-effects) while a stretch is in flight. Commit is called on the
// coordinator, with the domain's worker parked, when the stretch that
// took the last Checkpoint commits — the moment deferred work becomes
// safe to finalize. Every Checkpoint is eventually paired with exactly
// one Commit or Restore.
type Committer interface {
	Commit()
}

// SpecStats counts per-domain speculative stretches across a run.
// Speculated = Committed + RolledBack; the rollback rate is
// RolledBack/Speculated.
type SpecStats struct {
	Speculated uint64
	Committed  uint64
	RolledBack uint64
}

// message is one buffered cross-domain event: scheduled during an
// epoch, injected into the destination heap at the next barrier.
type message struct {
	at    int64
	birth int64
	arg   int64
	fn    Func
	ctx   any
}

// dentry is a domain-heap element. Like the serial engine's entry, the
// sort key carries the scheduling instant (birth) so barrier-injected
// deliveries order against locally armed events by when they were
// scheduled, matching the serial engine's global-sequence order
// whenever the scheduling instants differ.
type dentry struct {
	at    int64
	birth int64
	key   uint64 // seq<<idxBits | pool index
}

func (e dentry) idx() int32 { return int32(e.key & idxMask) }

func (a dentry) before(b dentry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.birth != b.birth {
		return a.birth < b.birth
	}
	return a.key < b.key
}

// DomainEngine is one shard of a Domains engine. It implements Sched,
// so components wire to it exactly as they would to a serial Engine.
// All methods except Send's buffered hand-off touch only domain-local
// state; they must be called from the domain's own event handlers (or
// during wiring, before the first epoch).
type DomainEngine struct {
	ds *Domains
	id int32

	items []item
	heap  []dentry
	free  []int32
	now   int64
	seq   uint64
	fire  uint64
	live  int
	dead  int

	// out buffers this epoch's cross-domain sends per destination; the
	// coordinator drains and injects them at the barrier.
	out [][]message

	// comps are the components snapshotted with the engine when a
	// speculative stretch begins (see Attach).
	comps []Checkpointable

	// Speculation state. spec is true between the lazy checkpoint and
	// the end of the stretch; specOut buffers cross-domain sends made
	// while speculating (merged into out on commit, dropped on
	// rollback); specMax is the clock of the last optimistic event.
	spec    bool
	specAny bool
	specMax int64
	specOut [][]message
	ck      domainCk

	// Published snapshot of the domain's conservative state, written by
	// the worker after each epoch (before speculating) and read by the
	// coordinator after the epoch ack — the happens-before edge is the
	// done-channel send. While speculation is armed the coordinator
	// must not touch the live heap, so these fields are its only view.
	pubNext   int64
	pubNextOK bool
	pubFired  uint64
	pubLive   int
}

// domainCk is the engine-side checkpoint: packed heap entries, the
// item slab, the free list and the scalar clocks. Everything is a
// value slice, so a checkpoint is a handful of slab memcpys into
// buffers reused across stretches.
type domainCk struct {
	items []item
	heap  []dentry
	free  []int32
	now   int64
	seq   uint64
	fire  uint64
	live  int
	dead  int
}

// Attach registers a component for checkpoint/rollback alongside the
// engine. Call during wiring, before the first epoch.
func (d *DomainEngine) Attach(c Checkpointable) { d.comps = append(d.comps, c) }

// Now returns the domain's local clock.
func (d *DomainEngine) Now() int64 { return d.now }

// At schedules fn at absolute time t on this domain.
func (d *DomainEngine) At(t int64, fn Handler) Token { return d.AtFunc(t, callHandler, fn, 0) }

// After schedules fn d nanoseconds from the domain's now.
func (d *DomainEngine) After(delay int64, fn Handler) Token { return d.At(d.now+delay, fn) }

// AtFunc schedules the pre-bound handler at absolute time t.
func (d *DomainEngine) AtFunc(t int64, fn Func, ctx any, arg int64) Token {
	if t < d.now {
		panic("event: scheduling in the past")
	}
	return d.schedule(t, d.now, fn, ctx, arg)
}

// AfterFunc schedules fn(ctx, arg) delay nanoseconds from now.
func (d *DomainEngine) AfterFunc(delay int64, fn Func, ctx any, arg int64) Token {
	return d.AtFunc(d.now+delay, fn, ctx, arg)
}

// schedule inserts an event with an explicit birth instant. Local
// callers pass birth = now; barrier injection passes the sender's send
// instant, which is what keeps delivery ordering goroutine-independent.
func (d *DomainEngine) schedule(t, birth int64, fn Func, ctx any, arg int64) Token {
	if fn == nil {
		panic("event: nil handler")
	}
	if d.seq > 1<<(64-idxBits)-1 {
		panic("event: sequence space exhausted")
	}
	idx := d.alloc()
	it := &d.items[idx]
	it.fn, it.ctx, it.arg = fn, ctx, arg
	d.heap = append(d.heap, dentry{at: t, birth: birth, key: d.seq<<idxBits | uint64(idx)})
	d.seq++
	d.live++
	d.siftUp(len(d.heap) - 1)
	return Token{d, idx, it.gen}
}

// Send schedules fn(ctx, arg) on domain dst, delay nanoseconds from
// this domain's now. The delay must be at least the engine's lookahead
// — that inequality is the entire correctness argument of the barrier
// protocol, so violating it panics rather than silently racing.
func (d *DomainEngine) Send(dst int32, delay int64, fn Func, ctx any, arg int64) {
	if delay < d.ds.lookahead {
		panic(fmt.Sprintf("event: cross-domain send with delay %d < lookahead %d", delay, d.ds.lookahead))
	}
	if fn == nil {
		panic("event: nil handler")
	}
	m := message{at: d.now + delay, birth: d.now, arg: arg, fn: fn, ctx: ctx}
	if d.spec {
		// Optimistic sends quarantine in specOut: on commit they append
		// after the epoch's conservative sends (speculation executes
		// strictly later events, so per-destination birth order is
		// preserved); on rollback they vanish without a trace.
		d.specOut[dst] = append(d.specOut[dst], m)
		return
	}
	d.out[dst] = append(d.out[dst], m)
}

func (d *DomainEngine) cancelToken(idx int32, gen uint32) {
	it := &d.items[idx]
	if it.gen != gen || it.fn == nil {
		return
	}
	it.fn, it.ctx = nil, nil
	d.live--
	d.dead++
	if d.dead > compactMinDead && d.dead*2 > len(d.heap) {
		d.compact()
	}
}

func (d *DomainEngine) alloc() int32 {
	if n := len(d.free); n > 0 {
		idx := d.free[n-1]
		d.free = d.free[:n-1]
		return idx
	}
	if len(d.items) > idxMask {
		panic("event: too many pending events")
	}
	d.items = append(d.items, item{})
	return int32(len(d.items) - 1)
}

func (d *DomainEngine) release(idx int32) {
	it := &d.items[idx]
	it.fn, it.ctx = nil, nil
	it.gen++
	d.free = append(d.free, idx)
}

func (d *DomainEngine) siftUp(i int) {
	h := d.heap
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

func (d *DomainEngine) siftDown(i int) {
	h := d.heap
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

func (d *DomainEngine) popRoot() {
	h := d.heap
	n := len(h) - 1
	h[0] = h[n]
	d.heap = h[:n]
	if n > 1 {
		d.siftDown(0)
	}
}

func (d *DomainEngine) compact() {
	w := 0
	for _, ent := range d.heap {
		if d.items[ent.idx()].fn != nil {
			d.heap[w] = ent
			w++
		} else {
			d.release(ent.idx())
		}
	}
	d.heap = d.heap[:w]
	d.dead = 0
	if w > 1 {
		for i := (w - 2) / arity; i >= 0; i-- {
			d.siftDown(i)
		}
	}
}

// nextAt returns the timestamp of the domain's next live event,
// pruning cancelled heap tops.
func (d *DomainEngine) nextAt() (int64, bool) {
	for len(d.heap) > 0 {
		ent := d.heap[0]
		if d.items[ent.idx()].fn == nil {
			d.popRoot()
			d.release(ent.idx())
			d.dead--
			continue
		}
		return ent.at, true
	}
	return 0, false
}

// interruptCheckEvents is how many events a domain executes between
// polls of the coordinator's interrupt flag during an epoch. Epochs
// are usually far smaller than this; it only matters for pathological
// event storms inside one window.
const interruptCheckEvents = 1024

// runEpoch executes every live event with at < bound, then parks the
// local clock at bound-1 so the epoch's upper edge is the domain's
// committed time. Returns the number of events fired.
func (d *DomainEngine) runEpoch(bound int64) int {
	n := 0
	for len(d.heap) > 0 {
		ent := d.heap[0]
		it := &d.items[ent.idx()]
		if it.fn == nil {
			d.popRoot()
			d.release(ent.idx())
			d.dead--
			continue
		}
		if ent.at >= bound {
			break
		}
		d.popRoot()
		fn, ctx, arg := it.fn, it.ctx, it.arg
		d.release(ent.idx())
		d.live--
		d.now = ent.at
		d.fire++
		fn(ctx, arg)
		if n++; n%interruptCheckEvents == 0 && d.ds.interrupted.Load() {
			break
		}
	}
	if d.now < bound-1 {
		d.now = bound - 1
	}
	return n
}

// specMaxEvents caps one speculative stretch. The cap bounds both the
// replay cost of a rollback and the growth of specOut; past it the
// worker simply parks early and waits for the barrier.
const specMaxEvents = 4096

// specWindowEpochs sizes the speculative time window as a multiple of
// the lookahead. A stretch only commits if it stays below the next
// epoch's bound (settle's specMax >= bound test), and bounds advance
// by at least one lookahead per round, so events more than a few
// lookaheads past the barrier are near-certain rollback fodder —
// executing them would just redo the same work every round. The
// window caps that waste at a few epochs' worth while still covering
// the whole next epoch when traffic is dense.
const specWindowEpochs = 8

// checkpoint snapshots the engine and every attached component. Runs
// on the worker, lazily, just before the first optimistic event — a
// domain that never speculates never pays for it.
func (d *DomainEngine) checkpoint() {
	k := &d.ck
	k.items = append(k.items[:0], d.items...)
	k.heap = append(k.heap[:0], d.heap...)
	k.free = append(k.free[:0], d.free...)
	k.now, k.seq, k.fire, k.live, k.dead = d.now, d.seq, d.fire, d.live, d.dead
	for _, c := range d.comps {
		c.Checkpoint()
	}
}

// restore rewinds the engine and every attached component to the last
// checkpoint. Runs on the coordinator with all workers parked.
func (d *DomainEngine) restore() {
	k := &d.ck
	d.items = append(d.items[:0], k.items...)
	d.heap = append(d.heap[:0], k.heap...)
	d.free = append(d.free[:0], k.free...)
	d.now, d.seq, d.fire, d.live, d.dead = k.now, k.seq, k.fire, k.live, k.dead
	for _, c := range d.comps {
		c.Restore()
	}
}

// discardSpec drops the stretch's quarantined sends and clears the
// speculation flags; paired with restore on rollback.
func (d *DomainEngine) discardSpec() {
	for dst := range d.specOut {
		out := d.specOut[dst]
		for i := range out {
			out[i] = message{}
		}
		d.specOut[dst] = out[:0]
	}
	d.spec, d.specAny, d.specMax = false, false, 0
}

// mergeSpec appends a committed stretch's sends to the (just drained)
// outboxes, preserving per-(src,dst) send order. No-op for domains
// that did not speculate or were rolled back.
func (d *DomainEngine) mergeSpec() {
	for dst := range d.specOut {
		if out := d.specOut[dst]; len(out) > 0 {
			d.out[dst] = append(d.out[dst], out...)
			for i := range out {
				out[i] = message{}
			}
			d.specOut[dst] = out[:0]
		}
	}
	d.specAny, d.specMax = false, 0
}

// speculate runs the domain optimistically past the barrier it just
// reached: on the first live event it checkpoints, then keeps
// executing local events until the coordinator closes pause, the
// stretch hits specMaxEvents, the heap drains, or the run is
// interrupted. It ends parked on pause, so the caller (the worker
// loop) resumes only once the coordinator has settled the stretch.
func (d *DomainEngine) speculate(pause <-chan struct{}) {
	limit := d.now + specWindowEpochs*d.ds.lookahead
	n := 0
	for n < specMaxEvents {
		select {
		case <-pause:
			d.spec = false
			return
		default:
		}
		if d.ds.interrupted.Load() {
			break
		}
		var ent dentry
		var it *item
		for {
			if len(d.heap) == 0 {
				d.spec = false
				<-pause
				return
			}
			ent = d.heap[0]
			it = &d.items[ent.idx()]
			if it.fn == nil {
				// Pruning cancelled tops pre-checkpoint is safe: it is
				// the same cleanup nextAt performs between epochs and
				// changes no observable state.
				d.popRoot()
				d.release(ent.idx())
				d.dead--
				continue
			}
			break
		}
		if ent.at >= limit {
			// Beyond the speculative window: park rather than execute
			// work that cannot survive the next bound check. Reached
			// before the first event, this skips the checkpoint too.
			d.spec = false
			<-pause
			return
		}
		if !d.spec {
			d.checkpoint()
			d.spec = true
		}
		d.popRoot()
		fn, ctx, arg := it.fn, it.ctx, it.arg
		d.release(ent.idx())
		d.live--
		d.now = ent.at
		d.fire++
		fn(ctx, arg)
		d.specAny, d.specMax = true, d.now
		n++
	}
	d.spec = false
	<-pause
}

// Domains is a sharded event engine: n independent DomainEngines
// advanced in lockstep epochs of width lookahead by RunEpoch. The
// coordinator (the goroutine calling RunEpoch) performs all
// cross-domain bookkeeping; worker goroutines only ever touch their
// own domain.
type Domains struct {
	lookahead int64
	doms      []*DomainEngine
	now       int64 // committed global time: upper edge of the last epoch

	// horizon, when set, widens epochs past the minimum lookahead
	// window: RunEpoch calls it with the epoch start and uses the
	// returned bound when it exceeds start+lookahead. See SetHorizon.
	horizon func(start int64) int64

	interrupted atomic.Bool
	workers     bool         // worker goroutines running
	start       []chan int64 // per-domain epoch-start signal (carries the bound)
	done        chan int     // per-domain completion signal (carries events fired)
	wg          sync.WaitGroup

	curs []injectCursor // pooled barrier-merge cursors (see inject)

	// Speculation (see EnableSpeculation). specOn is immutable once
	// workers start; specArmed flips true after the bootstrap round and
	// back to false on Shutdown. pauseCh is the current stretch's stop
	// signal: closing it parks every speculating worker.
	specOn      bool
	specArmed   bool
	pauseCh     chan struct{}
	specPublish func(dom int, now int64)
	specHorizon func(start int64) int64
	stats       SpecStats
	msgAt       []int64 // scratch: per-destination earliest injected at
}

// EnableSpeculation switches the engine to speculative (Time-Warp-lite)
// epochs: after finishing each conservative epoch, workers keep
// executing local events optimistically while the coordinator computes
// the next bound, and a stretch commits unless a barrier-injected
// message lands at or before the domain's speculative clock. publish
// is called by each worker after its conservative epoch (before
// speculating) to export whatever domain-local state the horizon
// needs; horizon combines those exports into the next epoch bound and
// runs on the coordinator — it must equal the bound the conservative
// engine would have computed, which is what keeps speculative runs
// byte-identical. Either callback may be nil (horizon then defaults to
// start+lookahead). Must be called before the first RunEpoch.
func (ds *Domains) EnableSpeculation(publish func(dom int, now int64), horizon func(start int64) int64) {
	if ds.workers {
		panic("event: EnableSpeculation after workers started")
	}
	ds.specOn = true
	ds.specPublish = publish
	ds.specHorizon = horizon
	for _, d := range ds.doms {
		if d.specOut == nil {
			d.specOut = make([][]message, len(ds.doms))
		}
	}
}

// SpecStats returns the run's speculation counters.
func (ds *Domains) SpecStats() SpecStats { return ds.stats }

// NewDomains returns a sharded engine with n domains and the given
// lookahead window (the minimum cross-domain Send delay).
func NewDomains(n int, lookahead int64) *Domains {
	if n < 2 {
		panic("event: a Domains engine needs at least 2 domains")
	}
	if lookahead <= 0 {
		panic("event: lookahead must be positive")
	}
	ds := &Domains{lookahead: lookahead}
	for i := 0; i < n; i++ {
		d := &DomainEngine{ds: ds, id: int32(i), out: make([][]message, n)}
		ds.doms = append(ds.doms, d)
	}
	return ds
}

// Domain returns shard i, the Sched handle components wire to.
func (ds *Domains) Domain(i int) *DomainEngine { return ds.doms[i] }

// N returns the number of domains.
func (ds *Domains) N() int { return len(ds.doms) }

// Lookahead returns the conservative window width in nanoseconds.
func (ds *Domains) Lookahead() int64 { return ds.lookahead }

// SetHorizon installs an adaptive epoch-bound callback. fn receives the
// epoch start (the earliest pending event across domains) and returns
// an exclusive upper bound for the epoch; RunEpoch uses it whenever it
// exceeds the minimum start+lookahead window.
//
// The caller owns the safety argument: fn(start) must never exceed
// ES+lookahead, where ES is the earliest instant at which any domain
// could execute a cross-domain Send from the current state — then every
// message produced inside the epoch lands at or after the bound, and
// the barrier injection below stays sound. inject panics if an epoch
// ever produces a message timed before its bound, so a horizon that
// overreaches fails loudly instead of silently reordering events.
//
// fn runs on the coordinator with all workers parked, so it may read
// (and maintain) any simulation state with ordinary loads.
func (ds *Domains) SetHorizon(fn func(start int64) int64) { ds.horizon = fn }

// Now returns the committed global time: every domain has executed all
// events strictly before Now()+1. Matches the serial engine's clock at
// the same epoch boundary.
func (ds *Domains) Now() int64 { return ds.now }

// Fired returns the number of events executed across all domains. Like
// Pending, it is exact between epochs (when the coordinator runs).
// While speculation is armed it reports the committed (conservative)
// count from the workers' published snapshots — optimistic events are
// invisible until their stretch commits.
func (ds *Domains) Fired() uint64 {
	var n uint64
	if ds.specArmed {
		for _, d := range ds.doms {
			n += d.pubFired
		}
		return n
	}
	for _, d := range ds.doms {
		n += d.fire
	}
	return n
}

// Pending returns the number of live events scheduled across all
// domains, excluding cancelled entries awaiting compaction. While
// speculation is armed, in-flight outbox messages count as pending
// (injection is deferred one round) and heap counts come from the
// published snapshots.
func (ds *Domains) Pending() int {
	n := 0
	if ds.specArmed {
		for _, d := range ds.doms {
			n += d.pubLive
			for _, out := range d.out {
				n += len(out)
			}
		}
		return n
	}
	for _, d := range ds.doms {
		n += d.live
	}
	return n
}

// NextAt returns the earliest live event time across all domains — the
// start of the next epoch. In conservative mode outboxes are always
// empty between epochs (RunEpoch injects before returning), so the
// heaps are the whole truth. While speculation is armed the workers
// own the heaps, so the committed view is the published per-domain
// next-event time plus the not-yet-injected outbox messages — exactly
// the value the conservative engine would report at the same barrier.
// Returns false when the engine is drained.
func (ds *Domains) NextAt() (int64, bool) {
	if ds.specArmed {
		return ds.specNextAt()
	}
	var min int64
	ok := false
	for _, d := range ds.doms {
		if at, live := d.nextAt(); live && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// specNextAt is NextAt for an armed engine: published heap minima plus
// outbox message times (per-(src,dst) lists are birth-ordered, not
// at-ordered, so every message is examined).
func (ds *Domains) specNextAt() (int64, bool) {
	var min int64
	ok := false
	for _, d := range ds.doms {
		if d.pubNextOK && (!ok || d.pubNext < min) {
			min, ok = d.pubNext, true
		}
		for _, out := range d.out {
			for i := range out {
				if !ok || out[i].at < min {
					min, ok = out[i].at, true
				}
			}
		}
	}
	return min, ok
}

// Interrupt asks in-flight epoch workers to bail out early. A
// partially executed conservative epoch has no consistent state, so
// callers must abandon the run — which is exactly what context
// cancellation does. A speculative engine is cleaner: workers stop
// optimistic execution at the next event boundary, and Shutdown
// discards the in-flight stretch (rollback to the last committed
// barrier), so cancellation never strands half-speculated state.
func (ds *Domains) Interrupt() { ds.interrupted.Store(true) }

// Interrupted reports whether Interrupt was called.
func (ds *Domains) Interrupted() bool { return ds.interrupted.Load() }

// RunEpoch advances the engine by one epoch [T, bound), where T is the
// earliest pending event across domains and bound is at least
// T+lookahead — wider when a horizon callback proves more of the future
// send-free (see SetHorizon): every domain executes its local events
// inside the window in parallel, then the coordinator injects the
// buffered cross-domain messages in canonical order. Returns the
// number of events fired; ok is false when the engine was already
// drained.
func (ds *Domains) RunEpoch() (fired int, ok bool) {
	if ds.specOn && (ds.specArmed || !ds.interrupted.Load()) {
		// Speculative path; an interrupt before the bootstrap round
		// falls through to the conservative inline path instead.
		return ds.runSpecEpoch()
	}
	at, ok := ds.NextAt()
	if !ok {
		return 0, false
	}
	bound := at + ds.lookahead
	if ds.horizon != nil {
		if b := ds.horizon(at); b > bound {
			bound = b
		}
	}
	if ds.interrupted.Load() {
		// Interrupted: finish inline; the caller is abandoning the run.
		for _, d := range ds.doms {
			fired += d.runEpoch(bound)
		}
	} else {
		ds.ensureWorkers()
		for i := range ds.doms {
			ds.start[i] <- bound
		}
		for range ds.doms {
			fired += <-ds.done
		}
	}
	ds.inject(bound)
	ds.now = bound - 1
	return fired, true
}

// runSpecEpoch is RunEpoch for a speculation-enabled engine. The first
// (bootstrap) round computes its bound conservatively — the workers are
// idle, so the coordinator may read heaps and component state directly
// — then launches the workers and leaves them speculating; injection of
// the round's outboxes is deferred. Every later round settles the
// previous stretch first (pause, verdict, inject, merge), using only
// worker-published state to size the next epoch.
func (ds *Domains) runSpecEpoch() (fired int, ok bool) {
	if !ds.specArmed {
		at, ok := ds.NextAt()
		if !ok {
			return 0, false
		}
		bound := at + ds.lookahead
		if ds.horizon != nil {
			if b := ds.horizon(at); b > bound {
				bound = b
			}
		}
		ds.pauseCh = make(chan struct{})
		ds.ensureWorkers()
		fired = ds.broadcast(bound)
		ds.specArmed = true
		ds.now = bound - 1
		return fired, true
	}
	at, ok := ds.specNextAt()
	if !ok {
		return 0, false
	}
	bound := at + ds.lookahead
	if ds.specHorizon != nil {
		if b := ds.specHorizon(at); b > bound {
			bound = b
		}
	}
	fired = ds.settle(bound)
	fired += ds.broadcast(bound)
	ds.now = bound - 1
	return fired, true
}

// settle ends the in-flight speculative stretch: it parks every worker,
// decides commit or rollback per domain against the next epoch's bound
// and the pending cross-domain messages, injects the previous round's
// outboxes (floor = the committed barrier, not bound: those messages
// belong to the already-executed epoch), and merges committed
// speculative sends. On return the workers are parked on their start
// channels and a fresh pause channel is armed for the next stretch.
// The return value is the number of optimistic events that just became
// real by committing — the count RunEpoch must add so a caller summing
// its returns sees every executed event exactly once.
func (ds *Domains) settle(bound int64) int {
	close(ds.pauseCh)
	for range ds.doms {
		<-ds.done
	}
	n := len(ds.doms)
	if ds.msgAt == nil {
		ds.msgAt = make([]int64, n)
	}
	for i := range ds.msgAt {
		ds.msgAt[i] = -1
	}
	for _, src := range ds.doms {
		for dst := 0; dst < n; dst++ {
			for i := range src.out[dst] {
				if at := src.out[dst][i].at; ds.msgAt[dst] < 0 || at < ds.msgAt[dst] {
					ds.msgAt[dst] = at
				}
			}
		}
	}
	committed := 0
	for i, d := range ds.doms {
		if !d.specAny {
			continue
		}
		ds.stats.Speculated++
		// Roll back if an injected message lands at or before the
		// speculative clock (equality included: same-timestamp order
		// depends on birth, which speculation could not see), or if the
		// stretch ran past the next bound — events at or beyond it may
		// yet be disturbed by sends from the upcoming epoch.
		if (ds.msgAt[i] >= 0 && ds.msgAt[i] <= d.specMax) || d.specMax >= bound {
			d.restore()
			d.discardSpec()
			ds.stats.RolledBack++
		} else {
			ds.stats.Committed++
			// The checkpoint was taken at the stretch's first event, so
			// the fire delta is exactly the stretch's event count.
			committed += int(d.fire - d.ck.fire)
			for _, cp := range d.comps {
				if cm, isCm := cp.(Committer); isCm {
					cm.Commit()
				}
			}
		}
	}
	ds.inject(ds.now + 1)
	for _, d := range ds.doms {
		d.mergeSpec()
	}
	ds.pauseCh = make(chan struct{})
	return committed
}

// broadcast starts one epoch on every worker and collects their
// completion acks. On return each worker has published its post-epoch
// snapshot and moved on to speculating (speculative mode) or parked
// (conservative mode).
func (ds *Domains) broadcast(bound int64) int {
	for i := range ds.doms {
		ds.start[i] <- bound
	}
	fired := 0
	for range ds.doms {
		fired += <-ds.done
	}
	return fired
}

// ensureWorkers lazily starts one goroutine per domain. Workers park
// on their start channel between epochs; Shutdown releases them.
func (ds *Domains) ensureWorkers() {
	if ds.workers {
		return
	}
	ds.workers = true
	ds.start = make([]chan int64, len(ds.doms))
	ds.done = make(chan int, len(ds.doms))
	ds.wg.Add(len(ds.doms))
	for i, d := range ds.doms {
		ch := make(chan int64)
		ds.start[i] = ch
		go ds.worker(d, ch)
	}
}

// worker is one domain's goroutine. In conservative mode it runs one
// epoch per start signal. In speculative mode it additionally publishes
// the post-epoch snapshot (heap minimum, counts, and whatever the
// horizon callback needs), acks the epoch, and keeps executing
// optimistically until the coordinator closes the stretch's pause
// channel — the channel captured at epoch start, so a settle can never
// confuse two stretches.
func (ds *Domains) worker(d *DomainEngine, ch chan int64) {
	defer ds.wg.Done()
	if !ds.specOn {
		for bound := range ch {
			ds.done <- d.runEpoch(bound)
		}
		return
	}
	for bound := range ch {
		pause := ds.pauseCh
		n := d.runEpoch(bound)
		d.pubNext, d.pubNextOK = d.nextAt()
		d.pubFired, d.pubLive = d.fire, d.live
		if ds.specPublish != nil {
			ds.specPublish(int(d.id), d.now)
		}
		ds.done <- n
		d.speculate(pause)
		ds.done <- 0
	}
}

// Shutdown parks and joins the worker goroutines. If a speculative
// stretch is in flight it is discarded: every speculating domain
// rewinds to its checkpoint and the deferred outboxes are injected, so
// the engine is left consistent at the committed barrier — readable
// (Pending, Fired, Now) and resumable (RunEpoch restarts workers, and
// a speculative engine re-bootstraps).
func (ds *Domains) Shutdown() {
	if !ds.workers {
		return
	}
	if ds.specArmed {
		close(ds.pauseCh)
		for range ds.doms {
			<-ds.done
		}
		for _, d := range ds.doms {
			if d.specAny {
				ds.stats.Speculated++
				ds.stats.RolledBack++
				d.restore()
				d.discardSpec()
			}
		}
		ds.inject(ds.now + 1)
		ds.pauseCh = nil
		ds.specArmed = false
	}
	for _, ch := range ds.start {
		close(ch)
	}
	ds.wg.Wait()
	ds.workers = false
	ds.start = nil
	ds.done = nil
}

// injectCursor is one source's position in a destination's barrier
// merge. The slice of cursors is pooled on the Domains engine: inject
// runs at every barrier, and the per-barrier allocation it used to make
// here was the dominant allocation cost of a sharded run.
type injectCursor struct {
	msgs []message
	pos  int
}

// inject drains every (src, dst) outbox into the destination heaps.
// For one destination, messages merge across sources by (birth, source
// index), preserving per-source send order — a total order fixed by
// the simulation alone. Injection happens on the coordinator with all
// workers parked, so it needs no synchronisation. bound is the epoch's
// exclusive upper edge: a message timed before it would have to fire
// inside the epoch that already ran, so it panics (the lookahead
// contract, or an adaptive horizon's safety argument, was violated).
func (ds *Domains) inject(bound int64) {
	n := len(ds.doms)
	for dsti, dst := range ds.doms {
		// Typical n is 3, so a cursor-per-source merge beats sorting.
		cs := ds.curs[:0]
		for src := 0; src < n; src++ {
			if out := ds.doms[src].out[dsti]; len(out) > 0 {
				cs = append(cs, injectCursor{msgs: out})
			}
		}
		for {
			best := -1
			for i := range cs {
				if cs[i].pos >= len(cs[i].msgs) {
					continue
				}
				if best < 0 || cs[i].msgs[cs[i].pos].birth < cs[best].msgs[cs[best].pos].birth {
					best = i
				}
			}
			if best < 0 {
				break
			}
			m := cs[best].msgs[cs[best].pos]
			cs[best].pos++
			if m.at < bound {
				panic(fmt.Sprintf("event: cross-domain message at t=%d inside its own epoch (bound %d)", m.at, bound))
			}
			dst.schedule(m.at, m.birth, m.fn, m.ctx, m.arg)
		}
		for i := range cs {
			cs[i] = injectCursor{}
		}
		ds.curs = cs[:0]
		for src := 0; src < n; src++ {
			if out := ds.doms[src].out[dsti]; len(out) > 0 {
				for i := range out {
					out[i].ctx, out[i].fn = nil, nil
				}
				ds.doms[src].out[dsti] = out[:0]
			}
		}
	}
}
