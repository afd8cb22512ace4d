package event

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// refEngine is the specification the Engine's queue must implement: a
// flat list of pending events, each step firing the minimum under
// (at, seq) by a linear scan.
type refEngine struct {
	now  int64
	seq  uint64
	pend []refEvent
	fire func(id int)
}

type refEvent struct {
	at  int64
	seq uint64
	id  int
}

func (a refEvent) before(b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// schedule queues event id d ns from now.
func (r *refEngine) schedule(id int, d int64) {
	r.pend = append(r.pend, refEvent{at: r.now + d, seq: r.seq, id: id})
	r.seq++
}

func (r *refEngine) cancel(id int) {
	for i, ev := range r.pend {
		if ev.id == id {
			r.pend = append(r.pend[:i], r.pend[i+1:]...)
			return
		}
	}
}

// min returns the position of the next event to fire, -1 when drained.
func (r *refEngine) min() int {
	m := -1
	for i, ev := range r.pend {
		if m < 0 || ev.before(r.pend[m]) {
			m = i
		}
	}
	return m
}

func (r *refEngine) step() bool {
	m := r.min()
	if m < 0 {
		return false
	}
	ev := r.pend[m]
	r.pend = append(r.pend[:m], r.pend[m+1:]...)
	r.now = ev.at
	r.fire(ev.id)
	return true
}

func (r *refEngine) runUntil(deadline int64) int {
	n := 0
	for m := r.min(); m >= 0 && r.pend[m].at <= deadline; m = r.min() {
		r.step()
		n++
	}
	if r.now < deadline {
		r.now = deadline
	}
	return n
}

func (r *refEngine) nextAt() (int64, bool) {
	if m := r.min(); m >= 0 {
		return r.pend[m].at, true
	}
	return 0, false
}

// engineDriver adapts the Engine to the reference's id-based surface.
type engineDriver struct {
	e    *Engine
	toks []Token
	fire func(id int)
}

func (d *engineDriver) schedule(id int, delay int64) {
	fn := func(_ any, arg int64) { d.fire(int(arg)) }
	d.toks = append(d.toks, d.e.AtFunc(d.e.Now()+delay, fn, nil, int64(id)))
}

func (d *engineDriver) cancel(id int) { d.toks[id].Cancel() }

// queueDriver is the surface the randomized script drives.
type queueDriver interface {
	schedule(id int, d int64)
	cancel(id int)
	step() bool
	runUntil(deadline int64) int
	nextAt() (int64, bool)
	clock() int64
	pending() int
}

func (r *refEngine) clock() int64 { return r.now }
func (r *refEngine) pending() int { return len(r.pend) }

func (d *engineDriver) step() bool           { return d.e.Step() }
func (d *engineDriver) runUntil(t int64) int { return d.e.RunUntil(t) }
func (d *engineDriver) nextAt() (int64, bool) {
	ent, src := d.e.peekLive()
	return ent.at, src != fromNone
}
func (d *engineDriver) clock() int64 { return d.e.Now() }
func (d *engineDriver) pending() int { return d.e.Pending() }

// refDelay draws from the delays that straddle the queue's structure
// boundaries: same instant, next bucket, the wheel's last bucket, the
// first overflow distances, far overflow, and anything in between.
func refDelay(rng *rand.Rand) int64 {
	switch rng.IntN(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return wheelSize - 1
	case 3:
		return wheelSize
	case 4:
		return wheelSize + 1
	case 5:
		return 4097 + rng.Int64N(1000)
	default:
		return rng.Int64N(200)
	}
}

// playScript runs one seeded script of schedules, cancels,
// RunUntil and Step calls against d, firing handlers that schedule,
// cancel and re-arm in turn, and returns a transcript of everything observable.
// Each handler's actions derive from its event id alone, so two
// drivers that fire the same events in the same order see the same
// script.
func playScript(seed uint64, d queueDriver, setFire func(func(id int))) []string {
	var log []string
	ids := 0
	// rearmID/rearmAt track one far event that near events cancel and
	// re-arm at the same instant, as a controller re-arms its tick at
	// the refresh deadline on every arrival.
	rearmID, rearmAt := -1, int64(0)
	act := func(rng *rand.Rand) {
		switch k := rng.IntN(11); {
		case k < 6:
			d.schedule(ids, refDelay(rng))
			ids++
		case k < 7:
			// An event landing a delay past a later instant, as a
			// completion hop lands past its transfer's end.
			d.schedule(ids, refDelay(rng)+refDelay(rng))
			ids++
		case k < 9:
			if ids > 0 {
				d.cancel(rng.IntN(ids))
			}
		case k < 10:
			if rearmID >= 0 && rearmAt > d.clock() {
				d.cancel(rearmID)
			} else {
				rearmAt = d.clock() + 4097 + rng.Int64N(1000)
			}
			rearmID = ids
			d.schedule(ids, rearmAt-d.clock())
			ids++
		}
	}
	setFire(func(id int) {
		log = append(log, fmt.Sprintf("fire %d @%d", id, d.clock()))
		rng := rand.New(rand.NewPCG(seed, uint64(id)))
		if ids < 4000 {
			for n := rng.IntN(3); n > 0; n-- {
				act(rng)
			}
		}
	})
	rng := rand.New(rand.NewPCG(seed, 1<<40))
	for op := 0; op < 600; op++ {
		switch k := rng.IntN(40); {
		case k == 0:
			// A burst of schedules mostly cancelled again drives the
			// dead count past the compaction threshold.
			first := ids
			for i := 0; i < 150; i++ {
				d.schedule(ids, refDelay(rng))
				ids++
			}
			for i := 0; i < 140; i++ {
				d.cancel(first + rng.IntN(150))
			}
		case k < 24:
			act(rng)
		case k < 32:
			log = append(log, fmt.Sprintf("step %v", d.step()))
		default:
			deadline := d.clock() + refDelay(rng)
			log = append(log, fmt.Sprintf("runUntil %d -> %d", deadline, d.runUntil(deadline)))
		}
		at, ok := d.nextAt()
		log = append(log, fmt.Sprintf("now %d pending %d next %d %v", d.clock(), d.pending(), at, ok))
	}
	for d.step() {
	}
	log = append(log, fmt.Sprintf("drained at %d pending %d", d.clock(), d.pending()))
	return log
}

// TestEngineMatchesReference checks the Engine against the linear-scan
// reference on randomized scripts that mix AtFunc, Cancel, RunUntil
// and Step at delays on both sides of the wheel's span, far events
// re-armed at a fixed instant included: every firing (event and
// clock), every Pending and NextAt answer, and every RunUntil count
// must agree.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		ref := &refEngine{}
		want := playScript(seed, ref, func(f func(int)) { ref.fire = f })
		drv := &engineDriver{e: NewEngine()}
		got := playScript(seed, drv, func(f func(int)) { drv.fire = f })
		fired := 0
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<missing>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: line %d: engine %q, reference %q", seed, i, g, want[i])
			}
			if strings.HasPrefix(want[i], "fire") {
				fired++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine transcript has %d lines, reference %d", seed, len(got), len(want))
		}
		if fired < 100 {
			t.Fatalf("seed %d: only %d events fired; script too weak", seed, fired)
		}
	}
}
