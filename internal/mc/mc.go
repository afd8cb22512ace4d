// Package mc implements the per-subchannel memory controller: per-bank
// request queues with FR-FCFS scheduling, configurable page-closure
// policies, the periodic-refresh and ALERT/RFM protocols, the shared
// data-bus model, and the MoPAC-C probabilistic selection between the
// normal PRE and the counter-update PREcu commands.
//
// The controller is event-driven: request arrivals and command
// completions schedule scheduler passes on the shared event engine, and
// each pass issues every command that is legal at the current time
// before computing the next interesting instant.
package mc

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"mopac/internal/dram"
	"mopac/internal/event"
	"mopac/internal/stats"
	"mopac/internal/telemetry"
	"mopac/internal/timing"
)

// PagePolicy selects when the controller closes an open row with no
// pending hits (Appendix C of the paper).
type PagePolicy int

// The row-closure policies evaluated in the paper.
const (
	// OpenPage keeps rows open until a conflicting request arrives.
	OpenPage PagePolicy = iota
	// ClosePage precharges as soon as no queued request hits the row.
	ClosePage
	// TimeoutPage closes a row TimeoutNs after its last column access.
	TimeoutPage
)

// String implements fmt.Stringer.
func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open-page"
	case ClosePage:
		return "close-page"
	case TimeoutPage:
		return "timeout-page"
	default:
		return fmt.Sprintf("PagePolicy(%d)", int(p))
	}
}

// Request is one 64 B access serviced by the controller.
type Request struct {
	// Bank and Row/Col locate the access inside this subchannel.
	Bank, Row, Col int
	// Write marks the access as a store (LLC writeback): serviced with
	// WR and write recovery, completion reported at data-in end.
	Write bool
	// Arrive is the time the request entered the controller.
	Arrive int64
	// OnDone, if non-nil, runs when the data transfer completes.
	OnDone func(doneAt int64)
	// Done/DoneCtx are the pre-bound completion form used by the hot
	// path: Done(DoneCtx, doneAt) is scheduled at data completion
	// without allocating a closure. Done takes precedence over OnDone.
	Done    event.Func
	DoneCtx any

	causedACT bool        // this request forced the row activation
	pooled    bool        // allocated from a controller's free list
	ctl       *Controller // owning controller for pooled requests
}

// EnqueueOwned is an event.Func that enqueues a pooled Request into the
// controller it was allocated from. Callers that pay a fixed frontend
// delay before arrival schedule it with Engine.AfterFunc and the request
// as context, keeping the deferred-arrival path closure-free.
func EnqueueOwned(ctx any, _ int64) {
	r := ctx.(*Request)
	r.ctl.Enqueue(r)
}

// Config parameterises a controller instance.
type Config struct {
	Timing timing.Params
	// CUAlways makes every precharge a counter-update precharge (the
	// PRAC baseline, whose timing set makes PRE == PREcu anyway).
	CUAlways bool
	// CUProbInv, when > 0, enables MoPAC-C: each activation is selected
	// for a counter update with probability 1/CUProbInv, and the
	// selected row is closed with PREcu.
	CUProbInv int
	// Policy is the row-closure policy; TimeoutNs applies to TimeoutPage.
	Policy    PagePolicy
	TimeoutNs int64
	// RowPressCapNs, when > 0, force-closes any row open that long
	// (Appendix A's MoPAC-C RowPress defence uses 180 ns).
	RowPressCapNs int64
	// RFMLevel is the number of RFMs the device executes per ABO
	// (must match the device configuration; default 1).
	RFMLevel int
	// MaxPostponedREFs lets the controller postpone up to this many
	// periodic refreshes while demand requests are queued (DDR5 allows
	// 4); owed refreshes are made up back to back.
	MaxPostponedREFs int
	// MaxHitStreak caps FR-FCFS row-hit priority: after this many
	// consecutive hits served over an older waiting request, the oldest
	// request wins (0 = unlimited, classic FR-FCFS).
	MaxHitStreak int
	// Seed seeds the controller's PCG stream for MoPAC-C decisions.
	Seed uint64
	// Trace receives scheduling telemetry; nil disables tracing.
	Trace *telemetry.MCTracks
}

// Stats aggregates controller-side performance counters.
type Stats struct {
	Reads        int64
	Writes       int64
	RowHits      int64 // column access without a new ACT
	RowMisses    int64 // ACT on a closed bank
	RowConflicts int64 // PRE of another row required first
	SumLatency   int64 // arrive -> data-complete, summed over reads
	MaxLatency   int64
	AlertStalls  int64 // RFM windows served
	StallNs      int64 // time spent between ALERT deadline and RFM end
	RefreshNs    int64 // time spent in REF execution
}

// Controller schedules one subchannel.
type Controller struct {
	eng *event.Engine
	dev *dram.Device
	cfg Config
	// pcg is embedded by value and wrapped by rng (rand.Rand holds no
	// state of its own), saving the generator a separate allocation.
	pcg rand.PCG
	rng *rand.Rand

	// Per-bank queues in struct-of-arrays form, in arrival order: the
	// scheduler's hot scans (row-hit matching) touch only the small
	// parallel int slices, never the request payload, and position 0 is
	// always the oldest request. Payloads live in the slots arena,
	// addressed by index.
	queues    []bankQ
	slots     []reqSlot // request-payload arena
	freeSlots []int32   // recycled arena indices

	cuBit     []bool  // MoPAC-C: close current row with PREcu
	lastUse   []int64 // last column access per bank (timeout policy)
	hitStreak []int   // consecutive hit-priority picks per bank

	// active marks banks with queued requests or an open row; scheduler
	// passes iterate its set bits instead of scanning every bank. A bit
	// clears only when its bank's queue is empty and its row is closed.
	active  uint64
	pending int // queued requests across banks

	// idle marks the banks whose cached nextAt is never: nothing to do
	// until an enqueue, which clears the bit. Under open-page policy an
	// idle bank keeps its row open and so stays in active; scheduler
	// passes scan active &^ idle and never visit it.
	idle uint64

	busFreeAt int64 // data bus occupied until this time

	refDue   int64 // next periodic REF deadline
	refStall bool  // draining banks for REF
	refDebt  int   // postponed refreshes not yet made up
	refOwed  int   // refreshes to serve in the current stall

	alertSeen     bool
	alertDeadline int64 // end of the 180 ns grace window
	alertStall    bool  // draining banks for RFM

	tickAt  int64 // time of the scheduled scheduler pass (-1: none)
	tickTok event.Token
	next    int64 // earliest next-command candidate within a tick (-1: none)

	// nextAt caches, per bank, the earliest instant the bank could issue
	// its next command (never = no command without new work). DRAM
	// legality is monotonic — commands elsewhere only push a bank's
	// earliest time later, never earlier — so a cached time in the future
	// lets scheduler passes skip the bank outright. The cache is cleared
	// on enqueue (0 = unknown) and refreshed whenever the bank is
	// scanned; a stale-early entry merely costs one extra scan.
	nextAt   []int64
	bankCand int64 // scratch: candidate collected by the current issueBank call

	// sleepMask aggregates the banks whose cached nextAt is in the
	// future, and sleepMin is the earliest of their wake times. While now < sleepMin a scheduler pass skips the whole
	// sleeping set with one compare instead of re-reading every
	// bank's cache entry; the set is rebuilt on the first pass that
	// reaches sleepMin. Enqueue pulls its bank out of the set (the
	// cached time no longer holds); a then stale-low sleepMin only
	// costs one rebuilding scan, mirroring the nextAt staleness rule.
	sleepMask uint64
	sleepMin  int64

	// doneQ holds the fire times of pending completion callbacks in
	// FIFO order. The data bus serialises transfers, so completion
	// times are strictly increasing and a ring suffices; NextSendAt
	// drains entries the clock has passed. This is the controller's
	// contribution to the sim layer's adaptive epoch horizon: a
	// completion event is the only controller-side event that injects
	// work back toward the cores.
	doneQ     []int64
	doneQHead int

	freeReq []*Request // recycled pooled requests

	trc *telemetry.MCTracks

	stats   Stats
	latency stats.Histogram
}

// bankQ is one bank's request queue in struct-of-arrays layout, oldest
// first. The two slices are parallel: entry i targets row[i] and keeps
// its payload in slots[idx[i]].
type bankQ struct {
	row []int32
	idx []int32
}

// newBankQs carves every bank's initial queue capacity out of two
// shared backing arrays, so construction costs two allocations
// instead of two per bank. A queue that outgrows its carve is moved
// to its own array by append, which is correct and rare: per-bank
// depth is bounded in practice by the cores' miss windows.
func newBankQs(banks int) []bankQ {
	const depth = 12
	rows := make([]int32, banks*depth)
	idxs := make([]int32, banks*depth)
	qs := make([]bankQ, banks)
	for b := range qs {
		lo, hi := b*depth, (b+1)*depth
		qs[b].row = rows[lo:lo:hi]
		qs[b].idx = idxs[lo:lo:hi]
	}
	return qs
}

// reqSlot is the arena-resident payload of a queued request: everything
// the scheduler does not need while scanning queues. Enqueue copies the
// public Request into a slot; the slot is recycled at completion.
type reqSlot struct {
	arrive    int64
	done      event.Func
	doneCtx   any
	onDone    func(int64)
	col       int32
	write     bool
	causedACT bool
}

// allocSlot returns an arena index holding a zeroed reqSlot.
func (c *Controller) allocSlot() int32 {
	if n := len(c.freeSlots); n > 0 {
		si := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return si
	}
	c.slots = append(c.slots, reqSlot{})
	return int32(len(c.slots) - 1)
}

// freeSlot clears a slot's references and returns it to the arena.
func (c *Controller) freeSlot(si int32) {
	c.slots[si] = reqSlot{}
	c.freeSlots = append(c.freeSlots, si)
}

// NewRequest returns a pooled request owned by this controller. It is
// zeroed and ready to fill; Enqueue copies it into the controller's
// arena and recycles it immediately, so callers must not retain it
// past Enqueue. The controller is single-goroutine (it shares its
// event engine), so the free list needs no locking.
func (c *Controller) NewRequest() *Request {
	if n := len(c.freeReq); n > 0 {
		r := c.freeReq[n-1]
		c.freeReq = c.freeReq[:n-1]
		return r
	}
	return &Request{pooled: true, ctl: c}
}

// recycleRequest resets a pooled request and returns it to the free list.
func (c *Controller) recycleRequest(r *Request) {
	*r = Request{pooled: true, ctl: c}
	c.freeReq = append(c.freeReq, r)
}

// New returns a controller bound to an engine and a device. The device's
// timing must equal cfg.Timing.
func New(eng *event.Engine, dev *dram.Device, cfg Config) (*Controller, error) {
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if dev.Banks() > 64 {
		return nil, fmt.Errorf("mc: %d banks exceed the 64-bank scheduler mask", dev.Banks())
	}
	if cfg.CUProbInv < 0 {
		return nil, fmt.Errorf("mc: CUProbInv = %d", cfg.CUProbInv)
	}
	if cfg.Policy == TimeoutPage && cfg.TimeoutNs <= 0 {
		return nil, fmt.Errorf("mc: timeout policy needs TimeoutNs > 0")
	}
	if cfg.RFMLevel <= 0 {
		cfg.RFMLevel = 1
	}
	if cfg.MaxPostponedREFs < 0 || cfg.MaxPostponedREFs > 4 {
		return nil, fmt.Errorf("mc: MaxPostponedREFs = %d out of [0,4]", cfg.MaxPostponedREFs)
	}
	if cfg.CUProbInv > 0 {
		// MoPAC-C handshake (§5.2): publish the selected p on the DRAM
		// mode register so the chip configures the matching ATH*.
		code, err := pMenuCode(cfg.CUProbInv)
		if err != nil {
			return nil, err
		}
		dev.WriteModeRegister(dram.MRMoPACPMenu, code)
	}
	c := &Controller{
		eng:       eng,
		dev:       dev,
		cfg:       cfg,
		queues:    newBankQs(dev.Banks()),
		cuBit:     make([]bool, dev.Banks()),
		lastUse:   make([]int64, dev.Banks()),
		hitStreak: make([]int, dev.Banks()),
		nextAt:    make([]int64, dev.Banks()),
		sleepMin:  never,
		refDue:    cfg.Timing.TREFI,
		tickAt:    -1,
		trc:       cfg.Trace,
	}
	c.pcg.Seed(cfg.Seed, 0x6d635f6374726c)
	c.rng = rand.New(&c.pcg)
	c.wake(c.refDue)
	return c, nil
}

// Stats returns a copy of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// Latency returns the read-latency distribution (arrive to data
// completion).
func (c *Controller) Latency() stats.Summary { return c.latency.Snapshot() }

// LatencyHistogram exposes the raw histogram for merging across
// controllers.
func (c *Controller) LatencyHistogram() *stats.Histogram { return &c.latency }

// Device returns the controller's device (for experiment stats).
func (c *Controller) Device() *dram.Device { return c.dev }

// QueueLen returns the number of requests waiting or in flight for bank.
func (c *Controller) QueueLen(bank int) int { return len(c.queues[bank].row) }

// Pending returns the total queued requests across banks.
func (c *Controller) Pending() int { return c.pending }

// Enqueue submits a request at the current simulation time. The
// request is copied into the controller's arena; pooled requests are
// recycled before Enqueue returns, and callers must not retain r
// either way.
func (c *Controller) Enqueue(r *Request) {
	if r.Bank < 0 || r.Bank >= len(c.queues) {
		panic(fmt.Sprintf("mc: bank %d out of range", r.Bank))
	}
	now := c.eng.Now()
	si := c.allocSlot()
	s := &c.slots[si]
	s.arrive = now
	s.done, s.doneCtx = r.Done, r.DoneCtx
	s.onDone = r.OnDone
	s.col = int32(r.Col)
	s.write = r.Write
	q := &c.queues[r.Bank]
	q.row = append(q.row, int32(r.Row))
	q.idx = append(q.idx, si)
	c.active |= 1 << uint(r.Bank)
	c.pending++
	if c.trc != nil {
		c.trc.QueueDepth(now, c.pending)
	}
	c.nextAt[r.Bank] = 0 // new work: the cached wake time no longer holds
	c.sleepMask &^= 1 << uint(r.Bank)
	c.idle &^= 1 << uint(r.Bank)
	c.wake(now)
	if r.pooled {
		c.recycleRequest(r)
	}
}

// wake ensures a scheduler pass runs no later than at.
func (c *Controller) wake(at int64) {
	if at < c.eng.Now() {
		at = c.eng.Now()
	}
	if c.tickAt >= 0 && c.tickAt <= at {
		return
	}
	if c.tickAt >= 0 {
		c.tickTok.Cancel()
	}
	c.tickAt = at
	c.tickTok = c.eng.AtFunc(at, controllerTick, c, 0)
}

// controllerTick is the pre-bound scheduler-pass handler; scheduling it
// through AtFunc avoids a closure allocation on every wake.
func controllerTick(ctx any, _ int64) {
	c := ctx.(*Controller)
	c.tickAt = -1
	c.tick()
}

// pick returns the queue position of the FR-FCFS choice for a bank:
// the oldest row hit if the bank has that row open, otherwise the
// oldest request (position 0); -1 on an empty queue. With MaxHitStreak
// set, a long run of hits served over an older waiting request
// eventually yields to the oldest (starvation protection).
func (c *Controller) pick(bank int) int {
	q := &c.queues[bank]
	if len(q.row) == 0 {
		return -1
	}
	open := c.dev.OpenRow(bank)
	if open < 0 {
		return 0
	}
	for i, r := range q.row {
		if int(r) != open {
			continue
		}
		if i != 0 && c.cfg.MaxHitStreak > 0 && c.hitStreak[bank] >= c.cfg.MaxHitStreak {
			// The oldest request has waited through a full streak of
			// younger hits: let it win.
			return 0
		}
		return i
	}
	return 0
}

// draining reports whether the controller is closing banks for REF/RFM
// and must not start new row activity.
func (c *Controller) draining() bool { return c.refStall || c.alertStall }

// tick is one scheduler pass: issue everything legal now, then schedule
// the next pass. Next-wake candidates are collected during the final
// (no-progress) issue pass, so the scheduler never re-scans the banks a
// second time just to compute when to wake up.
func (c *Controller) tick() {
	now := c.eng.Now()

	// ALERT handling: note a newly raised ALERT and arm its deadline.
	c.noteAlert(now)

	// Enter stall states when their deadlines pass.
	if c.alertSeen && now >= c.alertDeadline {
		c.alertStall = true
	}
	if !c.alertStall && !c.refStall && now >= c.refDue {
		busy := c.pending > 0 || !c.dev.AllPrecharged()
		if c.refDebt < c.cfg.MaxPostponedREFs && busy {
			// Postpone the refresh while demand traffic is waiting.
			c.refDebt++
			c.refDue += c.cfg.Timing.TREFI
			c.wake(c.refDue)
		} else {
			c.refStall = true
			c.refOwed = 1 + c.refDebt
			c.refDebt = 0
		}
	}

	for {
		// Candidates from a pass that made progress are stale (state
		// changed mid-pass); only the final pass's survive.
		c.next = -1
		if !c.issueReady(now) {
			break
		}
	}

	c.scheduleNext(now)
}

// consider proposes an instant at which a command could become legal;
// the earliest proposal wins the next wake-up.
func (c *Controller) consider(now, t int64) {
	if t <= now {
		t = now + 1
	}
	if c.next < 0 || t < c.next {
		c.next = t
	}
}

// propose is consider for a single bank's candidate: issueBank resets
// bankCand on entry and records the earliest instant this bank could
// act, which issueReady both caches in nextAt and merges into next.
func (c *Controller) propose(now, t int64) {
	if t <= now {
		t = now + 1
	}
	if c.bankCand < 0 || t < c.bankCand {
		c.bankCand = t
	}
}

// noteAlert latches a newly asserted ALERT and starts the grace window.
func (c *Controller) noteAlert(now int64) {
	if !c.alertSeen && c.dev.AlertRequested() {
		c.alertSeen = true
		c.alertDeadline = now + c.cfg.Timing.TAlertGrace
		c.wake(c.alertDeadline)
	}
}

// issueReady issues at most one batch of commands legal at time now and
// reports whether it made progress. When a command is not yet legal it
// proposes the instant it becomes legal via consider, so the final
// (no-progress) pass leaves c.next holding the earliest bank candidate.
func (c *Controller) issueReady(now int64) bool {
	progress := false

	// Serve RFM/REF once all banks are precharged and tRP has elapsed.
	if c.draining() {
		for m := c.active; m != 0; m &= m - 1 {
			bank := bits.TrailingZeros64(m)
			if c.dev.OpenRow(bank) < 0 {
				continue
			}
			if at := c.earliestClose(bank); now >= at {
				c.closeRow(now, bank)
				progress = true
			} else {
				c.consider(now, at)
			}
		}
		if c.dev.AllPrecharged() {
			if at := c.dev.EarliestRefresh(); now >= at {
				if c.alertStall {
					c.dev.ServeABO(now)
					c.stats.AlertStalls++
					stall := now + int64(c.cfg.RFMLevel)*c.cfg.Timing.TRFM - c.alertDeadline
					c.stats.StallNs += stall
					if c.trc != nil {
						c.trc.ABOStall(c.alertDeadline, stall)
					}
					c.alertStall = false
					c.alertSeen = false
					c.noteAlert(now) // guards may still want another ABO
					progress = true
				} else if c.refStall {
					c.dev.Refresh(now)
					c.stats.RefreshNs += c.cfg.Timing.TRFC
					if c.trc != nil {
						c.trc.REFStall(now, c.cfg.Timing.TRFC)
					}
					c.refOwed--
					if c.refOwed <= 0 {
						// Postponed deadlines were consumed when they were
						// deferred; only the triggering deadline advances.
						c.refDue += c.cfg.Timing.TREFI
						c.refStall = false
						c.wake(c.refDue)
					}
					c.noteAlert(now)
					progress = true
				}
			} else {
				c.consider(now, at)
			}
		}
		return progress
	}

	// Demand mode: exhaust each bank in ascending order. Every DRAM
	// timing parameter is strictly positive, so a command never becomes
	// legal at the very instant another one issues — at most one command
	// issues per bank per instant, and nothing a second global pass could
	// find. The bank's final (refused) issueBank call records its wake
	// candidate, so returning false here ends the tick with c.next set.
	scan := c.active &^ c.idle
	if c.sleepMin > now {
		// No sleeping bank is due: drop the whole set from the scan with
		// one mask op. Its earliest wake time stands in for the per-bank
		// consider calls — the minimum is all scheduleNext keeps anyway.
		scan &^= c.sleepMask
		if c.sleepMin != never {
			c.consider(now, c.sleepMin)
		}
	} else {
		// A sleeping bank has come due; rebuild the set below.
		c.sleepMask, c.sleepMin = 0, never
	}
	for m := scan; m != 0; m &= m - 1 {
		bank := bits.TrailingZeros64(m)
		if at := c.nextAt[bank]; at > now {
			// The bank cannot act before its cached time; skip the scan.
			c.sleepMask |= 1 << uint(bank)
			if at < c.sleepMin {
				c.sleepMin = at
			}
			c.consider(now, at)
			continue
		}
		for c.issueBank(now, bank) {
		}
		c.sleepMask |= 1 << uint(bank)
		if c.bankCand >= 0 {
			c.nextAt[bank] = c.bankCand
			if c.bankCand < c.sleepMin {
				c.sleepMin = c.bankCand
			}
			c.consider(now, c.bankCand)
		} else {
			c.nextAt[bank] = never
			c.idle |= 1 << uint(bank)
		}
	}
	return false
}

// never marks a bank with no future command of its own: only new work
// (an enqueue) can change that, and enqueuing clears the cache entry.
const never = Never

// earliestClose returns the earliest time the open row of bank may be
// precharged with the flavour the cuBit dictates.
func (c *Controller) earliestClose(bank int) int64 {
	return c.dev.EarliestPrecharge(bank, c.useCU(bank))
}

func (c *Controller) useCU(bank int) bool { return c.cfg.CUAlways || c.cuBit[bank] }

// closeRow precharges the open row of bank with the selected flavour.
func (c *Controller) closeRow(now int64, bank int) {
	c.dev.Precharge(now, bank, c.useCU(bank))
	c.cuBit[bank] = false
	if len(c.queues[bank].row) == 0 {
		c.active &^= 1 << uint(bank)
	}
	c.noteAlert(now)
}

// issueBank issues at most one command for bank at time now. Branches
// that find their command not yet legal propose the instant it becomes
// legal via propose, so the final (refused) call leaves bankCand holding
// the bank's next wake time — no separate re-scan after the pass.
func (c *Controller) issueBank(now int64, bank int) bool {
	c.bankCand = -1
	open := c.dev.OpenRow(bank)

	// Forced closures that apply even with pending hits.
	if open >= 0 && c.cfg.RowPressCapNs > 0 {
		capAt := max64(c.dev.RowOpenSince(bank)+c.cfg.RowPressCapNs, c.earliestClose(bank))
		if now >= capAt {
			c.closeRow(now, bank)
			return true
		}
		c.propose(now, capAt)
	}

	pos := c.pick(bank)
	if pos < 0 {
		// Idle bank: policy-driven closure.
		if open >= 0 {
			if c.idleCloseDue(now, bank) && now >= c.earliestClose(bank) {
				c.closeRow(now, bank)
				return true
			}
			switch c.cfg.Policy {
			case ClosePage:
				c.propose(now, c.earliestClose(bank))
			case TimeoutPage:
				c.propose(now, max64(c.lastUse[bank]+c.cfg.TimeoutNs, c.earliestClose(bank)))
			}
		}
		return false
	}

	q := &c.queues[bank]
	reqRow := int(q.row[pos])
	si := q.idx[pos]

	switch {
	case open == reqRow:
		// Row hit: issue the column command when the bank and the data
		// bus allow.
		write := c.slots[si].write
		lat := c.cfg.Timing.TCL
		if write {
			lat = c.cfg.Timing.TWL
		}
		at := c.dev.EarliestRead(bank)
		if busAt := c.busFreeAt - lat; busAt > at {
			at = busAt
		}
		if now < at {
			c.propose(now, at)
			return false
		}
		var doneAt int64
		if write {
			doneAt = c.dev.Write(now, bank)
		} else {
			doneAt = c.dev.Read(now, bank)
		}
		c.busFreeAt = doneAt
		c.lastUse[bank] = now
		if c.trc != nil {
			c.trc.SchedHit(now, bank, reqRow)
		}
		c.completeRead(bank, pos, doneAt)
		// Close-page: precharge once nothing else hits this row.
		if c.cfg.Policy == ClosePage && !c.anyHit(bank, reqRow) && now >= c.earliestClose(bank) {
			c.closeRow(now, bank)
		}
		return true

	case open >= 0:
		// Conflict: close the open row first.
		if at := c.earliestClose(bank); now < at {
			c.propose(now, at)
			return false
		}
		c.stats.RowConflicts++
		if c.trc != nil {
			c.trc.SchedConflict(now, bank, reqRow)
		}
		c.closeRow(now, bank)
		return true

	default:
		// Closed bank: activate the target row.
		if at := c.dev.EarliestActivate(bank); now < at {
			c.propose(now, at)
			return false
		}
		c.dev.Activate(now, bank, reqRow)
		c.stats.RowMisses++
		if c.trc != nil {
			c.trc.SchedMiss(now, bank, reqRow)
		}
		c.slots[si].causedACT = true
		c.lastUse[bank] = now
		if c.cfg.CUProbInv > 0 && c.rng.IntN(c.cfg.CUProbInv) == 0 {
			c.cuBit[bank] = true
		}
		c.noteAlert(now)
		return true
	}
}

// completeRead accounts the serviced request at queue position pos of
// bank, removes it (keeping arrival order), schedules its completion
// callback, and recycles its arena slot.
func (c *Controller) completeRead(bank, pos int, doneAt int64) {
	q := &c.queues[bank]
	si := q.idx[pos]
	s := &c.slots[si]
	row := int(q.row[pos])

	// Hit-streak accounting: serving anything but the oldest waiting
	// request extends the streak.
	if pos != 0 {
		c.hitStreak[bank]++
	} else {
		c.hitStreak[bank] = 0
	}

	last := len(q.row) - 1
	copy(q.row[pos:], q.row[pos+1:])
	copy(q.idx[pos:], q.idx[pos+1:])
	q.row = q.row[:last]
	q.idx = q.idx[:last]
	c.pending--

	if s.write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if !s.causedACT {
		c.stats.RowHits++
	}
	if !s.write {
		lat := doneAt - s.arrive
		c.latency.Observe(lat)
		c.stats.SumLatency += lat
		if lat > c.stats.MaxLatency {
			c.stats.MaxLatency = lat
		}
		if c.trc != nil {
			c.trc.Request(s.arrive, lat, bank, row)
		}
	}
	if c.trc != nil {
		c.trc.QueueDepth(c.eng.Now(), c.pending)
	}
	switch {
	case s.done != nil:
		c.eng.AtFunc(doneAt, s.done, s.doneCtx, doneAt)
		c.pushDone(doneAt)
	case s.onDone != nil:
		done := s.onDone
		c.eng.At(doneAt, func() { done(doneAt) })
		c.pushDone(doneAt)
	}
	c.freeSlot(si)
}

// pushDone records a scheduled completion-callback fire time. The
// ring's storage is reclaimed whenever the head catches up, so steady
// state allocates nothing.
func (c *Controller) pushDone(at int64) {
	if c.doneQHead == len(c.doneQ) {
		c.doneQ = c.doneQ[:0]
		c.doneQHead = 0
	}
	c.doneQ = append(c.doneQ, at)
}

// NextSendAt returns the fire time of the earliest pending completion
// callback strictly after now, dropping entries the clock has passed
// (their events have fired: the controller executes in time order).
// Returns Never when no completion is pending. now must not decrease
// across calls.
func (c *Controller) NextSendAt(now int64) int64 {
	for c.doneQHead < len(c.doneQ) && c.doneQ[c.doneQHead] <= now {
		c.doneQHead++
	}
	if c.doneQHead == len(c.doneQ) {
		return Never
	}
	return c.doneQ[c.doneQHead]
}

// TickAt returns the instant of the controller's pending scheduler
// pass. Outside a running pass there is always one armed (protocol
// deadlines guarantee it), so this is the earliest time the controller
// can begin new work — together with NextSendAt it feeds the sim
// layer's adaptive epoch horizon.
func (c *Controller) TickAt() int64 {
	if c.tickAt < 0 {
		return Never
	}
	return c.tickAt
}

// MinSchedGap returns the minimum delay between a scheduler pass and
// the earliest completion callback it can schedule: a column command
// issued at t completes no earlier than t + min(TCL, TWL) + TBURST.
// Every DRAM timing parameter is strictly positive, so the gap is too.
func (c *Controller) MinSchedGap() int64 {
	gap := c.cfg.Timing.TCL
	if c.cfg.Timing.TWL < gap {
		gap = c.cfg.Timing.TWL
	}
	return gap + c.cfg.Timing.TBURST
}

// Never is NextSendAt/TickAt's "no pending instant" sentinel.
const Never int64 = 1<<63 - 1

// anyHit reports whether any queued request targets row in bank.
func (c *Controller) anyHit(bank, row int) bool {
	for _, r := range c.queues[bank].row {
		if int(r) == row {
			return true
		}
	}
	return false
}

// idleCloseDue reports whether the closure policy wants the idle open
// row of bank closed at time now.
func (c *Controller) idleCloseDue(now int64, bank int) bool {
	switch c.cfg.Policy {
	case ClosePage:
		return true
	case TimeoutPage:
		return now-c.lastUse[bank] >= c.cfg.TimeoutNs
	default:
		return false
	}
}

// scheduleNext wakes the scheduler at the earliest candidate collected
// during the final (no-progress) issue pass, merged with the protocol
// deadlines that are independent of any bank.
func (c *Controller) scheduleNext(now int64) {
	if !c.draining() {
		if c.alertSeen {
			c.consider(now, c.alertDeadline)
		}
		c.consider(now, c.refDue)
	}
	if c.next >= 0 {
		c.wake(c.next)
	}
}

// pMenuCode maps 1/p to the mode-register menu code (§5.2).
func pMenuCode(invP int) (uint8, error) {
	code := uint8(0)
	for v := 2; v <= 64; v *= 2 {
		if v == invP {
			return code, nil
		}
		code++
	}
	return 0, fmt.Errorf("mc: CUProbInv 1/%d is not on the JEDEC p menu", invP)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
