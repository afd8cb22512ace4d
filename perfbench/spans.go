package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around its own calls into public functions. Times are nanoseconds
// since the tracer started. Parent is the index of the enclosing span
// (-1 for an op's root span); Trace groups the spans of one op.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Trace      int
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so the measured code paths
// are the same with tracing on or off.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, trace, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Trace: trace})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records an already-finished span with explicit times, for
// intervals measured elsewhere (a job's queue wait and run time as the
// service reports them).
func (t *tracer) add(name string, trace, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Trace: trace,
	})
	return len(t.spans) - 1
}

// setTimes overwrites a span's interval once it is known; an end
// before start drops the span from every statistic.
func (t *tracer) setTimes(id int, start, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Start, t.spans[id].End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// drop removes a span from every statistic (its interval did not
// happen, such as the queue wait of a job served from cache).
func (t *tracer) drop(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Start, t.spans[id].End = 0, -1
	t.mu.Unlock()
}

// newTrace returns a fresh trace id for one op.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that the union of its children covers. Children may
// overlap each other (concurrent store writes under one flush) and may
// stick out of their parent; only the covered part of the parent's own
// interval is subtracted.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = (s.End - s.Start) - unionLength(ivs)
	}
	return self
}

// unionLength returns the total length covered by the intervals.
func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName collects the self time of every finished span with the
// given name, in milliseconds.
func selfByName(spans []span, self []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open. Each op's trace is one thread
// row, so a job's spans nest under the job's span.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Trace, Args: map[string]int{"id": i, "parent": s.Parent, "trace": s.Trace},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
