package mc

import (
	"math/rand/v2"
	"mopac/internal/event"
	"mopac/internal/stats"
)

// This file is the controller's half of the speculative-execution
// contract (event.Checkpointable): a full value snapshot of the
// scheduler state, cheap because the controller is already laid out as
// struct-of-arrays slices and value structs. The request-payload arena
// and the per-bank queues copy as slabs; the PCG copies as two words.
//
// The pooled-request free list (freeReq) is deliberately absent:
// NewRequest and Enqueue are balanced inside a single event handler
// (Enqueue copies the payload into the arena and recycles the Request
// before returning), so at every event boundary — and a checkpoint is
// always taken at one — the pool holds only zeroed requests that no
// live state references. Rolling back may leave the pool larger than
// it was at the checkpoint, never inconsistent.

// ctlCk mirrors every Controller field that event execution mutates.
// Buffers are reused across checkpoints, so after the first stretch a
// snapshot allocates nothing.
type ctlCk struct {
	queues    []bankQ
	slots     []reqSlot
	freeSlots []int32

	cuBit     []bool
	lastUse   []int64
	hitStreak []int

	active  uint64
	pending int
	idle    uint64

	busFreeAt int64

	refDue   int64
	refStall bool
	refDebt  int
	refOwed  int

	alertSeen     bool
	alertDeadline int64
	alertStall    bool

	tickAt  int64
	tickTok event.Token
	next    int64

	nextAt   []int64
	bankCand int64

	sleepMask uint64
	sleepMin  int64

	doneQ     []int64
	doneQHead int

	stats   Stats
	latency stats.Histogram
	pcg     rand.PCG
}

var _ event.Checkpointable = (*Controller)(nil)

// Checkpoint snapshots the controller for speculative execution. It
// runs on the controller's own domain goroutine at an event boundary.
func (c *Controller) Checkpoint() {
	k := &c.ck
	if k.queues == nil {
		k.queues = make([]bankQ, len(c.queues))
	}
	for b := range c.queues {
		k.queues[b].row = append(k.queues[b].row[:0], c.queues[b].row...)
		k.queues[b].idx = append(k.queues[b].idx[:0], c.queues[b].idx...)
	}
	k.slots = append(k.slots[:0], c.slots...)
	k.freeSlots = append(k.freeSlots[:0], c.freeSlots...)
	k.cuBit = append(k.cuBit[:0], c.cuBit...)
	k.lastUse = append(k.lastUse[:0], c.lastUse...)
	k.hitStreak = append(k.hitStreak[:0], c.hitStreak...)
	k.nextAt = append(k.nextAt[:0], c.nextAt...)
	k.doneQ = append(k.doneQ[:0], c.doneQ...)
	k.doneQHead = c.doneQHead
	k.active, k.pending, k.idle = c.active, c.pending, c.idle
	k.busFreeAt, k.refDue = c.busFreeAt, c.refDue
	k.refStall, k.refDebt, k.refOwed = c.refStall, c.refDebt, c.refOwed
	k.alertSeen, k.alertDeadline, k.alertStall = c.alertSeen, c.alertDeadline, c.alertStall
	k.tickAt, k.tickTok, k.next, k.bankCand = c.tickAt, c.tickTok, c.next, c.bankCand
	k.sleepMask, k.sleepMin = c.sleepMask, c.sleepMin
	k.stats, k.latency, k.pcg = c.stats, c.latency, c.pcg
}

// Restore rewinds the controller to the last Checkpoint. It runs on
// the coordinator with the domain's worker parked.
func (c *Controller) Restore() {
	k := &c.ck
	for b := range c.queues {
		c.queues[b].row = append(c.queues[b].row[:0], k.queues[b].row...)
		c.queues[b].idx = append(c.queues[b].idx[:0], k.queues[b].idx...)
	}
	c.slots = append(c.slots[:0], k.slots...)
	c.freeSlots = append(c.freeSlots[:0], k.freeSlots...)
	c.cuBit = append(c.cuBit[:0], k.cuBit...)
	c.lastUse = append(c.lastUse[:0], k.lastUse...)
	c.hitStreak = append(c.hitStreak[:0], k.hitStreak...)
	c.nextAt = append(c.nextAt[:0], k.nextAt...)
	c.doneQ = append(c.doneQ[:0], k.doneQ...)
	c.doneQHead = k.doneQHead
	c.active, c.pending, c.idle = k.active, k.pending, k.idle
	c.busFreeAt, c.refDue = k.busFreeAt, k.refDue
	c.refStall, c.refDebt, c.refOwed = k.refStall, k.refDebt, k.refOwed
	c.alertSeen, c.alertDeadline, c.alertStall = k.alertSeen, k.alertDeadline, k.alertStall
	c.tickAt, c.tickTok, c.next, c.bankCand = k.tickAt, k.tickTok, k.next, k.bankCand
	c.sleepMask, c.sleepMin = k.sleepMask, k.sleepMin
	c.stats, c.latency, c.pcg = k.stats, k.latency, k.pcg
}
