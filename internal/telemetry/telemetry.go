// Package telemetry is the cycle-level tracing layer for the whole
// simulation stack: typed probe points in the DRAM device, the memory
// controller, the mitigation engines, and the cores emit fixed-size
// records into pooled per-track ring buffers, and sinks render them as
// Chrome trace-event JSON (viewable in Perfetto), log-bucketed
// latency/occupancy histograms, or a compact text timeline.
//
// The subsystem is always compiled but near-zero-overhead when
// disabled: every component holds a concrete *DeviceTracks /
// *MCTracks / *GuardTracks / *CoreTracks pointer that is nil unless a
// Tracer was attached, so the disabled path is a single predictable
// nil-check — no allocation, no interface dispatch. Probes are purely
// observational: they never touch RNG streams or timing state, so an
// instrumented run is simulation-identical to an uninstrumented one
// (internal/sim's determinism test enforces this).
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mopac/internal/stats"
)

// Kind identifies one probe point.
type Kind uint8

// The probe kinds. Span kinds carry a duration (Dur); counter kinds
// carry a level sample (B); the rest are instants.
const (
	// KindACT is a row activation (A=row).
	KindACT Kind = iota
	// KindRD is a column read (A=row).
	KindRD
	// KindWR is a column write (A=row).
	KindWR
	// KindPRE is a normal precharge (A=row).
	KindPRE
	// KindPRECU is a counter-update precharge (A=row).
	KindPRECU
	// KindRowOpen is the ACT..PRE span of one row open (A=row).
	KindRowOpen
	// KindREF is a periodic refresh span (device track).
	KindREF
	// KindRFM is an ABO RFM span (device track).
	KindRFM
	// KindALERT marks the device asserting ALERT (device track).
	KindALERT
	// KindQueueDepth samples the controller's pending-request count (B).
	KindQueueDepth
	// KindSchedHit is an FR-FCFS row-hit issue decision (A=bank, B=row).
	KindSchedHit
	// KindSchedMiss is a row-miss activation decision (A=bank, B=row).
	KindSchedMiss
	// KindSchedConflict is a conflict-precharge decision (A=bank, B=row).
	KindSchedConflict
	// KindABOStall is the ALERT-deadline..RFM-end stall span (MC track).
	KindABOStall
	// KindREFStall is a refresh execution span (MC track).
	KindREFStall
	// KindReqServed is the arrive..data-complete span of one request
	// (A=bank, B=row); its Dur feeds the read-latency histogram.
	KindReqServed
	// KindMitigation is a guard victim-refreshing an aggressor
	// (A=bank, B=row).
	KindMitigation
	// KindDrain is a MoPAC-D SRQ drain (A=bank, B=entries drained).
	KindDrain
	// KindSRQDepth samples a bank's SRQ occupancy (A=bank, B=depth).
	KindSRQDepth
	// KindIssue is a core issuing a memory access (B=1 for stores).
	KindIssue
	// KindMissServed is the issue..data-return span of one read miss.
	KindMissServed

	kindCount
)

var kindNames = [kindCount]string{
	"ACT", "RD", "WR", "PRE", "PREcu", "row-open", "REF", "RFM", "ALERT",
	"queue-depth", "sched-hit", "sched-miss", "sched-conflict",
	"abo-stall", "ref-stall", "req-served",
	"mitigation", "srq-drain", "srq-depth",
	"miss-issue", "miss-served",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// span reports whether the kind carries a duration.
func (k Kind) span() bool {
	switch k {
	case KindRowOpen, KindREF, KindRFM, KindABOStall, KindREFStall,
		KindReqServed, KindMissServed:
		return true
	}
	return false
}

// counter reports whether the kind is a level sample.
func (k Kind) counter() bool { return k == KindQueueDepth || k == KindSRQDepth }

// Record is one fixed-size trace record (32 bytes). At is the event
// start in simulated nanoseconds; Dur is the span length (0 for
// instants and counters); A and B are kind-specific payloads.
type Record struct {
	At    int64
	Dur   int64
	A, B  int32
	Track int32
	Kind  Kind
}

// Options parameterises a Tracer.
type Options struct {
	// WindowStartNs/WindowEndNs bound the captured interval: a record
	// whose start instant falls outside [start, end) is discarded at
	// the probe. Zero end means unbounded.
	WindowStartNs int64
	WindowEndNs   int64
	// TrackLimit is the per-track ring capacity; once a track is full
	// its oldest records are overwritten and counted as dropped
	// (<= 0 selects 8192).
	TrackLimit int
}

// DefaultTrackLimit is the per-track ring capacity when Options leaves
// TrackLimit unset: 8192 records x 32 B = 256 KiB per active track.
const DefaultTrackLimit = 8192

// track is one ring buffer. recs grows by append until the limit, then
// wraps: head is the next overwrite position and drops counts the
// records lost to wrapping.
type track struct {
	name  string
	recs  []Record
	head  int
	drops int64
}

// Tracer collects trace records for one simulation run. It is
// single-goroutine, like the engine that drives the probes: record
// appends and the read-out surface run on the simulation's goroutine
// or after the run.
type Tracer struct {
	opts   Options
	tracks []track
	slabs  [][]Record // recycled ring storage (see Reset)
	arena  []Record   // chunk the next fresh rings are carved from

	counts  [kindCount]int64
	latency stats.Histogram // KindReqServed durations
	queue   stats.Histogram // KindQueueDepth samples
	srq     stats.Histogram // KindSRQDepth samples
}

// New returns an empty tracer.
func New(o Options) *Tracer {
	if o.TrackLimit <= 0 {
		o.TrackLimit = DefaultTrackLimit
	}
	return &Tracer{opts: o}
}

// NewTrack registers a named track and returns its id. Ring storage is
// allocated lazily on the track's first record.
func (t *Tracer) NewTrack(name string) int32 {
	t.tracks = append(t.tracks, track{name: name})
	return int32(len(t.tracks) - 1)
}

// Tracks returns the number of registered tracks.
func (t *Tracer) Tracks() int { return len(t.tracks) }

// TrackName returns the name of track id.
func (t *Tracer) TrackName(id int32) string { return t.tracks[id].name }

// Emit appends one record to a track's ring. Probe views call it; it
// is exported for tests and custom instrumentation.
func (t *Tracer) Emit(track int32, k Kind, at, dur int64, a, b int32) {
	if at < t.opts.WindowStartNs || (t.opts.WindowEndNs > 0 && at >= t.opts.WindowEndNs) {
		return
	}
	t.counts[k]++
	switch {
	case k == KindReqServed:
		t.latency.Observe(dur)
	case k == KindQueueDepth:
		t.queue.Observe(int64(b))
	case k == KindSRQDepth:
		t.srq.Observe(int64(b))
	}
	tr := &t.tracks[track]
	r := Record{At: at, Dur: dur, A: a, B: b, Track: track, Kind: k}
	if len(tr.recs) < t.opts.TrackLimit {
		if tr.recs == nil {
			tr.recs = t.newSlab()
		}
		tr.recs = append(tr.recs, r)
		return
	}
	tr.recs[tr.head] = r
	if tr.head++; tr.head == len(tr.recs) {
		tr.head = 0
	}
	tr.drops++
}

// arenaTracks is how many full-capacity rings one arena chunk holds.
const arenaTracks = 8

// newSlab pops a pooled ring slab or carves a fresh full-capacity ring
// out of the shared arena chunk. A carved ring never regrows — append
// stays inside its capacity until the ring wraps — so a busy track
// pays zero per-record allocator work, and the chunk amortises the
// allocation itself over several tracks. Slabs are recycled through
// Reset, so repeated runs on one tracer do not churn the allocator.
func (t *Tracer) newSlab() []Record {
	if n := len(t.slabs); n > 0 {
		s := t.slabs[n-1]
		t.slabs = t.slabs[:n-1]
		return s[:0]
	}
	limit := t.opts.TrackLimit
	if limit >= 1<<15 {
		// Oversized custom limits get their own allocation: a shared
		// chunk would pin hundreds of MiB per idle carve.
		return make([]Record, 0, limit)
	}
	if len(t.arena) < limit {
		t.arena = make([]Record, arenaTracks*limit)
	}
	s := t.arena[:0:limit]
	t.arena = t.arena[limit:]
	return s
}

// Reset drops every track and record but keeps the ring storage pooled
// for the next run.
func (t *Tracer) Reset() {
	for i := range t.tracks {
		if t.tracks[i].recs != nil {
			t.slabs = append(t.slabs, t.tracks[i].recs[:0])
		}
	}
	t.tracks = t.tracks[:0]
	t.counts = [kindCount]int64{}
	t.latency = stats.Histogram{}
	t.queue = stats.Histogram{}
	t.srq = stats.Histogram{}
}

// Records returns the number of records currently held across tracks.
func (t *Tracer) Records() int64 {
	var n int64
	for i := range t.tracks {
		n += int64(len(t.tracks[i].recs))
	}
	return n
}

// Dropped returns the number of records lost to full rings.
func (t *Tracer) Dropped() int64 {
	var n int64
	for i := range t.tracks {
		n += t.tracks[i].drops
	}
	return n
}

// KindCount returns how many records of kind k were emitted (including
// ones later overwritten in a full ring).
func (t *Tracer) KindCount(k Kind) int64 { return t.counts[k] }

// trackRecords returns track id's records in chronological order.
// Rings wrap, and span records are emitted at their end instant with a
// retroactive start, so a sort is needed either way.
func (t *Tracer) trackRecords(id int32) []Record {
	tr := &t.tracks[id]
	out := make([]Record, 0, len(tr.recs))
	out = append(out, tr.recs[tr.head:]...)
	out = append(out, tr.recs[:tr.head]...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// KindSummary is one row of Summary.Counts.
type KindSummary struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// Summary digests a finished trace: volume, drops, per-kind counts,
// and the histogram sinks (read latency, controller queue depth, SRQ
// occupancy) backed by stats.Histogram.
type Summary struct {
	Tracks      int           `json:"tracks"`
	Records     int64         `json:"records"`
	Dropped     int64         `json:"dropped"`
	Counts      []KindSummary `json:"counts"`
	ReadLatency stats.Summary `json:"read_latency_ns"`
	QueueDepth  stats.Summary `json:"queue_depth"`
	SRQDepth    stats.Summary `json:"srq_depth"`
}

// Summary returns the trace digest.
func (t *Tracer) Summary() Summary {
	s := Summary{
		Tracks:      len(t.tracks),
		Records:     t.Records(),
		Dropped:     t.Dropped(),
		ReadLatency: t.latency.Snapshot(),
		QueueDepth:  t.queue.Snapshot(),
		SRQDepth:    t.srq.Snapshot(),
	}
	for k := Kind(0); k < kindCount; k++ {
		if t.counts[k] > 0 {
			s.Counts = append(s.Counts, KindSummary{Kind: k.String(), Count: t.counts[k]})
		}
	}
	return s
}

// ParseWindow parses a "lo:hi" nanosecond capture window ("" means
// unbounded; either side may be empty).
func ParseWindow(s string) (lo, hi int64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("telemetry: window %q is not lo:hi", s)
	}
	if parts[0] != "" {
		if lo, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("telemetry: bad window start %q", parts[0])
		}
	}
	if parts[1] != "" {
		if hi, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("telemetry: bad window end %q", parts[1])
		}
	}
	if lo < 0 || hi < 0 || (hi > 0 && hi <= lo) {
		return 0, 0, fmt.Errorf("telemetry: window %q is empty or negative", s)
	}
	return lo, hi, nil
}
