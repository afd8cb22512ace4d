// Package cpu implements the trace-driven out-of-order core model used
// by the DRAM study (Table 3: 8 cores, 4 GHz, 4-wide, 256-entry ROB).
//
// The model is the standard USIMM-style front end: the core retires up
// to Width instructions per nanosecond in order; a memory miss occupies
// its program position and blocks retirement until its data returns;
// younger instructions — including further independent misses — keep
// issuing until the ROB window (retired + ROB) is exhausted, which is
// what creates memory-level parallelism. A miss marked dependent cannot
// issue until the previous miss returns (pointer chasing), which is what
// makes latency-bound workloads latency-bound.
package cpu

import (
	"fmt"

	"mopac/internal/event"
	"mopac/internal/telemetry"
)

// Access is one LLC-miss memory read in a core's instruction stream.
type Access struct {
	// Gap is the number of non-memory instructions preceding the miss.
	Gap int64
	// Addr is the physical byte address read.
	Addr int64
	// Dep marks the miss as dependent on the previous miss's data.
	Dep bool
	// Write marks the access as a store: it is drained through a store
	// buffer and never blocks retirement, but still consumes memory
	// bandwidth.
	Write bool
}

// Source produces a core's miss stream. Implementations must be
// deterministic for reproducibility.
type Source interface {
	// Next returns the next access. ok is false when the trace ends
	// (infinite generators always return true).
	Next() (Access, bool)
}

// DefaultWidth is the retirement width, in instructions per
// nanosecond, of every core the simulator attaches. Attack patterns
// convert idle nanoseconds into instruction gaps with it, so their
// timing follows any change to the core model.
const DefaultWidth = 8

// Config parameterises one core.
type Config struct {
	// Width is the peak retirement rate in instructions per nanosecond
	// (4-wide at 4 GHz = 16).
	Width int64
	// ROB is the reorder-buffer depth in instructions.
	ROB int64
	// TargetInstr ends the run once this many instructions retire.
	TargetInstr int64
	// Submit issues a miss to the memory system. When done is non-nil,
	// the memory system must invoke done(ctx, doneAt) exactly once when
	// the data returns; a nil done requests fire-and-forget service
	// (stores). The pre-bound (func, context) pair keeps the per-miss
	// path free of closure allocations. write marks stores.
	Submit func(addr int64, write bool, done event.Func, ctx any)
	// MSHRs caps the outstanding read misses (0 = bounded only by the
	// ROB window; real cores have 16-32 miss-status registers).
	MSHRs int
	// OnFinish, if non-nil, runs once when the core retires its target,
	// letting the driver count completions instead of polling every core
	// after every event.
	OnFinish func()
	// Trace receives issue/completion telemetry; nil disables tracing.
	Trace *telemetry.CoreTracks
}

// Stats reports a finished (or in-flight) core's progress.
type Stats struct {
	Retired    int64
	Misses     int64
	Stores     int64
	FinishedAt int64 // 0 until the target is reached
	StallNs    int64 // time retirement spent blocked on a miss
}

// miss is one in-flight or queued memory access. Misses are pooled per
// core: a miss returns to the free list when it leaves the ROB window,
// by which point its completion event (if any) has already fired.
type miss struct {
	idx      int64 // instruction index of the miss
	addr     int64
	issuedAt int64 // submit time, recorded only while tracing
	core     *Core // back-pointer for the pre-bound completion handler
	dep      bool
	write    bool
	issued   bool
	done     bool
}

// Core drives one trace through the memory system.
type Core struct {
	cfg Config
	eng *event.Engine
	src Source

	retired int64
	lastT   int64
	// window holds the misses inside or near the ROB window in program
	// order; window[head:] is live. Retired misses advance head instead
	// of re-slicing, so append reuses the array's front after periodic
	// compaction — the old window = window[1:] pattern forced an
	// allocation on nearly every append, and was the simulator's
	// dominant allocation site.
	window  []*miss
	head    int
	nextIdx int64 // instruction index the next trace access lands at
	srcDone bool

	// blk is the live-relative index of the first incomplete miss: done
	// bits only ever flip forward, so the oldest-blocker scan resumes
	// here instead of re-walking the head of the window every advance.
	blk int

	stallStart int64 // time the current retirement stall began (-1: none)
	wakeTok    event.Token
	wakeAt     int64

	// issuedPrefix counts the leading window entries already issued, so
	// the issue scan resumes where previous passes left off instead of
	// walking the whole window every advance.
	issuedPrefix int

	// inflight counts issued-but-incomplete read misses, maintained
	// incrementally (submit increments, completion decrements) so the
	// MSHR check never rescans the window.
	inflight int

	// issuableOther counts window entries that are unissued and either
	// stores or dependency-free — the entries an unresolved dependency
	// cannot block. When it is zero, the issue scan may stop at the
	// first blocked dependent read (see issueEligible); without it,
	// fully dependent streams (pointer chases, attack patterns) rescan
	// the whole ROB window on every advance.
	issuableOther int

	// maxIssuedInstr is the highest instruction index ever issued (-1
	// before the first issue). Window indices increase monotonically, so
	// an entry with idx beyond it proves no issued — hence no
	// potentially-completing — miss sits at or after that position.
	maxIssuedInstr int64

	freeMiss []*miss // recycled window entries

	stats Stats
}

// newMiss returns a zeroed pooled miss bound to this core.
func (c *Core) newMiss() *miss {
	if n := len(c.freeMiss); n > 0 {
		m := c.freeMiss[n-1]
		c.freeMiss = c.freeMiss[:n-1]
		return m
	}
	return &miss{core: c}
}

func (c *Core) recycleMiss(m *miss) {
	*m = miss{core: c}
	c.freeMiss = append(c.freeMiss, m)
}

// New creates a core and schedules its first work at engine time.
func New(eng *event.Engine, cfg Config, src Source) (*Core, error) {
	c := new(Core)
	if err := c.Init(eng, cfg, src); err != nil {
		return nil, err
	}
	return c, nil
}

// Init sets c, zero or used before, up as New does. A used core keeps
// the storage of its window and miss pool, its window's misses
// included, but none of its state. eng must be new or reset, since c's
// pending wake, if any, is forgotten.
func (c *Core) Init(eng *event.Engine, cfg Config, src Source) error {
	if cfg.Width <= 0 || cfg.ROB <= 0 || cfg.TargetInstr <= 0 {
		return fmt.Errorf("cpu: config must be positive: %+v", cfg)
	}
	if cfg.Submit == nil {
		return fmt.Errorf("cpu: Submit is required")
	}
	for _, m := range c.live() {
		c.recycleMiss(m)
	}
	clear(c.window)
	*c = Core{
		cfg: cfg, eng: eng, src: src, window: c.window[:0], freeMiss: c.freeMiss,
		stallStart: -1, wakeAt: -1, maxIssuedInstr: -1,
	}
	c.lastT = eng.Now()
	c.scheduleWake(eng.Now())
	return nil
}

// coreWake clears the wake token and runs a scheduler pass.
func coreWake(ctx any, _ int64) {
	c := ctx.(*Core)
	c.wakeAt = -1
	c.advance()
}

// missDone is the pre-bound miss-completion handler. The first advance
// settles retirement under the old blocker before the miss completes, so
// stalled time is not credited as progress. When retirement already sits
// at the blocker, that advance would change nothing but lastT: the
// previous one left nothing to drop, fill or issue, the stall already
// open and no wake armed, and none of that has changed since.
func missDone(ctx any, _ int64) {
	m := ctx.(*miss)
	c := m.core
	if c.retired == c.oldestBlocker() {
		c.lastT = c.eng.Now()
	} else {
		c.advance()
	}
	if c.cfg.Trace != nil {
		c.cfg.Trace.Served(m.issuedAt, c.eng.Now()-m.issuedAt)
	}
	m.done = true
	c.inflight--
	c.advance()
}

// Stats returns the core's progress counters.
func (c *Core) Stats() Stats { return c.stats }

// Done reports whether the core has retired its target.
func (c *Core) Done() bool { return c.stats.FinishedAt > 0 }

// IPC returns retired instructions per nanosecond over the finished run
// (zero until done).
func (c *Core) IPC() float64 {
	if c.stats.FinishedAt <= 0 {
		return 0
	}
	return float64(c.cfg.TargetInstr) / float64(c.stats.FinishedAt)
}

// live returns the in-window misses in program order.
func (c *Core) live() []*miss { return c.window[c.head:] }

// oldestBlocker returns the instruction index retirement cannot pass:
// the oldest incomplete miss, or the run target. Entries before the blk
// cursor are known complete; the cursor only moves forward.
func (c *Core) oldestBlocker() int64 {
	live := c.live()
	for c.blk < len(live) && live[c.blk].done {
		c.blk++
	}
	if c.blk < len(live) {
		return live[c.blk].idx
	}
	return c.cfg.TargetInstr
}

// fill pulls trace accesses whose instruction index falls inside the
// current ROB window.
func (c *Core) fill() {
	for !c.srcDone {
		if len(c.window) > c.head && c.nextIdx > c.retired+c.cfg.ROB {
			return
		}
		if c.nextIdx >= c.cfg.TargetInstr {
			return
		}
		a, ok := c.src.Next()
		if !ok {
			c.srcDone = true
			return
		}
		idx := c.nextIdx + a.Gap
		if idx >= c.cfg.TargetInstr {
			// The miss falls beyond the measured region; ignore it.
			c.srcDone = true
			return
		}
		m := c.newMiss()
		m.idx, m.addr, m.dep, m.write = idx, a.Addr, a.Dep, a.Write
		// Stores never block retirement: they are born "done" and only
		// occupy bandwidth once issued.
		m.done = a.Write
		if a.Write || !a.Dep {
			c.issuableOther++
		}
		c.window = append(c.window, m)
		c.nextIdx = idx + 1
	}
}

// issueEligible submits every window miss whose position is inside the
// ROB and whose dependency has resolved, up to the MSHR limit. It scans
// from the issued prefix: everything before it is already issued and
// can only matter through its done bit, which the first considered
// entry reads directly.
func (c *Core) issueEligible() {
	live := c.live()
	start := c.issuedPrefix
	prevDone := true
	if start > 0 {
		prevDone = live[start-1].done
	}
	for _, m := range live[start:] {
		if m.idx > c.retired+c.cfg.ROB {
			break
		}
		if !m.issued {
			if m.dep && !prevDone {
				// Blocked dependent entry. If it is a read (done is
				// false — blocked stores are born done and would hand
				// prevDone=true to their successor), no issuable store
				// or independent read remains anywhere in the window,
				// and no issued miss sits at or after this position
				// (idx > maxIssuedInstr), then every remaining entry is
				// an unissued dependent read behind this unresolved
				// miss: nothing further can issue this pass.
				if !m.done && c.issuableOther == 0 && m.idx > c.maxIssuedInstr {
					break
				}
			} else {
				if c.cfg.MSHRs > 0 && !m.write && c.inflight >= c.cfg.MSHRs {
					prevDone = m.done
					continue
				}
				m.issued = true
				c.stats.Misses++
				if m.write || !m.dep {
					c.issuableOther--
				}
				if m.idx > c.maxIssuedInstr {
					c.maxIssuedInstr = m.idx
				}
				if c.cfg.Trace != nil {
					m.issuedAt = c.eng.Now()
					c.cfg.Trace.Issue(m.issuedAt, m.write)
				}
				if m.write {
					c.stats.Stores++
					c.cfg.Submit(m.addr, true, nil, nil)
				} else {
					c.inflight++
					c.cfg.Submit(m.addr, false, missDone, m)
				}
			}
		}
		prevDone = m.done
	}
	p := c.issuedPrefix
	for p < len(live) && live[p].issued {
		p++
	}
	c.issuedPrefix = p
}

// advance is the single scheduler entry point: account retirement up to
// now, issue newly eligible misses, retire completed ones, and schedule
// the next wake-up.
func (c *Core) advance() {
	if c.Done() {
		return
	}
	now := c.eng.Now()

	// Retirement progresses at Width until the oldest incomplete miss
	// that was blocking during the elapsed interval.
	limit := c.oldestBlocker()
	progressed := c.retired + (now-c.lastT)*c.cfg.Width
	if progressed > limit {
		progressed = limit
	}
	if progressed > c.retired {
		c.retired = progressed
	}
	c.lastT = now

	// Drop retired-and-done misses from the head of the window. A
	// dropped miss's completion event has fired (done is only set there),
	// so the slot can be recycled immediately.
	live := c.live()
	n := 0
	for n < len(live) && live[n].done && live[n].idx <= c.retired {
		if m := live[n]; !m.issued && (m.write || !m.dep) {
			// A store retired before it was ever issued leaves the
			// window here; keep issuableOther exact so the issue-scan
			// early break stays available.
			c.issuableOther--
		}
		c.recycleMiss(live[n])
		live[n] = nil
		n++
	}
	if n > 0 {
		c.head += n
		if c.issuedPrefix > n {
			c.issuedPrefix -= n
		} else {
			c.issuedPrefix = 0
		}
		if c.blk > n {
			c.blk -= n
		} else {
			c.blk = 0
		}
		if c.head == len(c.window) {
			c.window = c.window[:0]
			c.head = 0
		} else if c.head >= 64 && c.head*2 >= len(c.window) {
			// Slide the live suffix down so append keeps reusing the
			// front of the array instead of growing it forever.
			k := copy(c.window, c.window[c.head:])
			for i := k; i < len(c.window); i++ {
				c.window[i] = nil
			}
			c.window = c.window[:k]
			c.head = 0
		}
	}

	c.fill()
	c.issueEligible()
	c.stats.Retired = c.retired

	// Stall accounting against the blocker as it stands now (fill may
	// just have revealed the miss retirement is parked on).
	limit = c.oldestBlocker()
	if c.retired == limit && limit < c.cfg.TargetInstr {
		if c.stallStart < 0 {
			c.stallStart = now
		}
	} else if c.stallStart >= 0 {
		c.stats.StallNs += now - c.stallStart
		c.stallStart = -1
	}

	if c.retired >= c.cfg.TargetInstr {
		c.stats.FinishedAt = now
		if c.cfg.OnFinish != nil {
			c.cfg.OnFinish()
		}
		return
	}

	// Next interesting instant: when retirement reaches the blocker (a
	// stall boundary or the target), the next issue point, or the point
	// where the next un-pulled trace access enters the ROB window —
	// without the last one, a window of completed misses would let
	// retirement sail to the end without ever pulling the rest of the
	// trace.
	target := limit
	// The first unissued miss sits exactly at the issued prefix.
	if live := c.live(); c.issuedPrefix < len(live) {
		if at := live[c.issuedPrefix].idx - c.cfg.ROB; at > c.retired && at < target {
			target = at
		}
	}
	if !c.srcDone {
		if at := c.nextIdx - c.cfg.ROB; at > c.retired && at < target {
			target = at
		}
	}
	if target > c.retired {
		dt := (target - c.retired + c.cfg.Width - 1) / c.cfg.Width
		c.scheduleWake(now + dt)
	}
	// Otherwise retirement is stalled; a miss completion will wake us.
}

func (c *Core) scheduleWake(at int64) {
	if c.wakeAt >= 0 && c.wakeAt <= at {
		return
	}
	if c.wakeAt >= 0 {
		c.wakeTok.Cancel()
	}
	c.wakeAt = at
	c.wakeTok = c.eng.AtFunc(at, coreWake, c, 0)
}
