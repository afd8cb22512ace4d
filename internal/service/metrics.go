package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"mopac/internal/stats"
)

// Metrics aggregates service counters and per-design run-time
// distributions. Counters are atomics; histograms reuse the
// simulator's log-bucketed stats.Histogram under a mutex. The text
// exposition follows the Prometheus format so standard scrapers work,
// but it is hand-rendered — the module stays dependency-free.
type Metrics struct {
	Submitted atomic.Int64
	Completed atomic.Int64
	Failed    atomic.Int64
	Cancelled atomic.Int64
	Rejected  atomic.Int64 // 429s from a full queue
	InFlight  atomic.Int64

	mu         sync.Mutex
	runTimes   map[string]*stats.Histogram // design -> wall-clock ns
	queueWaits map[string]*stats.Histogram // design -> queued-to-start ns
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		runTimes:   make(map[string]*stats.Histogram),
		queueWaits: make(map[string]*stats.Histogram),
	}
}

// ObserveRunTime records a finished run's wall-clock duration for its
// design.
func (m *Metrics) ObserveRunTime(design string, ns int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.runTimes[design]
	if h == nil {
		h = &stats.Histogram{}
		m.runTimes[design] = h
	}
	h.Observe(ns)
}

// ObserveQueueWait records how long a job sat queued before a worker
// picked it up.
func (m *Metrics) ObserveQueueWait(design string, ns int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.queueWaits[design]
	if h == nil {
		h = &stats.Histogram{}
		m.queueWaits[design] = h
	}
	h.Observe(ns)
}

// MeanRunNs returns the mean wall-clock run time across all designs
// (0 when nothing has finished yet). It feeds the queue-depth-derived
// Retry-After hint on 429 responses.
func (m *Metrics) MeanRunNs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	var count int64
	for _, h := range m.runTimes {
		s := h.Snapshot()
		sum += s.Mean * float64(s.Count)
		count += s.Count
	}
	if count == 0 {
		return 0
	}
	return int64(sum / float64(count))
}

// WriteTo renders the Prometheus text exposition. Gauges and counters
// owned by other components (queue depth, cache hits) are passed in by
// the server.
func (m *Metrics) WriteTo(w io.Writer, gauges map[string]float64, counters map[string]int64) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("mopac_jobs_submitted_total", "Jobs accepted by the service.", m.Submitted.Load())
	counter("mopac_jobs_completed_total", "Jobs finished successfully.", m.Completed.Load())
	counter("mopac_jobs_failed_total", "Jobs that returned an error.", m.Failed.Load())
	counter("mopac_jobs_cancelled_total", "Jobs cancelled by DELETE, deadline, or drain.", m.Cancelled.Load())
	counter("mopac_jobs_rejected_total", "Submissions rejected with 429 (queue full).", m.Rejected.Load())

	cnames := make([]string, 0, len(counters))
	for name := range counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, counters[name])
	}

	names := make([]string, 0, len(gauges))
	for name := range gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, gauges[name])
	}
	fmt.Fprintf(w, "# TYPE mopac_jobs_inflight gauge\nmopac_jobs_inflight %d\n", m.InFlight.Load())

	m.mu.Lock()
	writeSummary(w, "mopac_run_time_ns", "Wall-clock run time per design.", m.runTimes)
	writeSummary(w, "mopac_queue_wait_ns", "Time jobs spent queued before a worker started them, per design.", m.queueWaits)
	m.mu.Unlock()
}

// writeSummary renders one per-design histogram map as a Prometheus
// summary; the caller holds m.mu.
func writeSummary(w io.Writer, name, help string, byDesign map[string]*stats.Histogram) {
	designs := make([]string, 0, len(byDesign))
	for d := range byDesign {
		designs = append(designs, d)
	}
	sort.Strings(designs)
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	for _, d := range designs {
		s := byDesign[d].Snapshot()
		fmt.Fprintf(w, "%s{design=%q,quantile=\"0.5\"} %d\n", name, d, s.P50)
		fmt.Fprintf(w, "%s{design=%q,quantile=\"0.95\"} %d\n", name, d, s.P95)
		fmt.Fprintf(w, "%s{design=%q,quantile=\"0.99\"} %d\n", name, d, s.P99)
		fmt.Fprintf(w, "%s_count{design=%q} %d\n", name, d, s.Count)
		fmt.Fprintf(w, "%s_sum{design=%q} %g\n", name, d, s.Mean*float64(s.Count))
	}
}
