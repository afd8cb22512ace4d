package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mopac/internal/buildinfo"
	"mopac/internal/sim"
	"mopac/internal/telemetry"
)

// Options configures a Server. The zero value is usable: GOMAXPROCS
// workers, a 64-deep queue, and a 256-entry cache.
type Options struct {
	// Workers bounds concurrent simulations (<= 0 selects GOMAXPROCS).
	Workers int
	// Queue bounds accepted-but-unstarted jobs; a full queue turns new
	// submissions into 429 + Retry-After (<= 0 selects 64).
	Queue int
	// CacheSize bounds the result cache (<= 0 selects 256).
	CacheSize int
	// Store, when non-nil, is a persistent second tier behind the
	// result cache: summaries survive restarts and LRU evictions, and a
	// store shared with the experiment CLIs serves their results too.
	Store DiskStore
	// Logger receives structured request and job logs (nil discards).
	Logger *slog.Logger
}

// Server is the simulation service: it owns the worker pool, job
// table, result cache, and metrics, and serves the /v1 JSON API.
type Server struct {
	pool    *Pool
	cache   *Cache
	metrics *Metrics
	log     *slog.Logger

	rootCtx    context.Context
	rootCancel context.CancelCauseFunc

	mu   sync.Mutex
	jobs map[string]*Job
	// finished lists the ids of terminal jobs still in jobs, oldest
	// first from finHead on; retireLocked evicts from its front.
	finished []string
	finHead  int
	nextID   int
	draining bool
}

// maxFinishedJobs bounds how many terminal jobs the job table keeps.
// Past it the oldest finished job is evicted (its id then returns 404;
// its summary stays in the result cache and store), so a long-running
// server's table stays bounded. Queued and running jobs are never
// evicted.
const maxFinishedJobs = 1024

// errDrain is the cancellation cause used when shutdown aborts
// in-flight runs.
var errDrain = errors.New("service: server shutting down")

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	if opts.Queue <= 0 {
		opts.Queue = 64
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cache := NewCache(opts.CacheSize)
	if opts.Store != nil {
		cache.SetDisk(opts.Store)
	}
	return &Server{
		pool:       NewPool(opts.Workers, opts.Queue),
		cache:      cache,
		metrics:    NewMetrics(),
		log:        log,
		rootCtx:    ctx,
		rootCancel: cancel,
		jobs:       make(map[string]*Job),
	}
}

// Metrics exposes the registry (the CLI logs a final snapshot).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the service's HTTP handler with request logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Live profiling of a serving instance (the service shares the
	// process with its simulations, so these profile the hot loop too).
	// Wired explicitly: the service never touches http.DefaultServeMux.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return logRequests(s.log, mux)
}

// Shutdown drains the service: new submissions get 503, queued and
// in-flight jobs run to completion, and the call returns when the pool
// is idle. If ctx ends first, in-flight runs are cancelled (they
// terminate within the engine's cancellation latency) and the context
// error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.rootCancel(errDrain)
		<-done
		return ctx.Err()
	}
}

// handleSubmit accepts a job, serving identical submissions from the
// result cache. With ?wait=1 the response is held until the job
// reaches a terminal state — the synchronous mode the fleet
// coordinator dispatches through (a broken connection mid-wait is the
// coordinator's signal to fail the job over).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	cfg, err := req.ToConfig()
	if err != nil {
		if errors.Is(err, sim.ErrInvalidConfig) {
			writeError(w, http.StatusBadRequest, err.Error())
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	key := cfg.Hash()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Traced submissions always run: the cached summary carries no
	// trace, and the caller asked for one.
	if summary, ok := s.cache.Get(key); ok && !req.Trace {
		// Deterministic runs make the cached summary exact; record a
		// finished job so the hit is inspectable like any other run.
		job := s.newJobLocked(cfg, key, req.MaxNs)
		now := time.Now()
		job.State = StateDone
		job.CacheHit = true
		job.Result = &summary
		job.Started, job.Finished = now, now
		close(job.done)
		s.retireLocked(job)
		s.metrics.Submitted.Add(1)
		status := job.status()
		s.mu.Unlock()
		s.log.Info("job served from cache", "id", status.ID, "key", key)
		writeJSON(w, http.StatusOK, status)
		return
	}
	job := s.newJobLocked(cfg, key, req.MaxNs)
	job.TraceWanted = req.Trace
	job.TraceLimit = req.TraceLimit
	ctx, cancel := context.WithCancelCause(s.rootCtx)
	if req.DeadlineMs > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeoutCause(ctx, time.Duration(req.DeadlineMs)*time.Millisecond,
			fmt.Errorf("service: job deadline (%d ms) exceeded", req.DeadlineMs))
		prev := cancel
		cancel = func(cause error) { prev(cause); stop() }
	}
	job.cancel = cancel
	if !s.pool.TrySubmit(func() { s.run(job, ctx, cancel) }) {
		// Roll the record back: the job was never accepted.
		delete(s.jobs, job.ID)
		s.metrics.Rejected.Add(1)
		s.mu.Unlock()
		cancel(errors.New("service: queue full"))
		w.Header().Set("Retry-After", s.retryAfterHint())
		writeError(w, http.StatusTooManyRequests, "job queue is full, retry later")
		return
	}
	s.metrics.Submitted.Add(1)
	status := job.status()
	s.mu.Unlock()
	s.log.Info("job accepted", "id", status.ID, "design", status.Design, "workload", status.Workload)
	if wantWait(r) {
		select {
		case <-job.done:
			s.mu.Lock()
			status = job.status()
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, status)
		case <-r.Context().Done():
			// The client gave up; the job keeps running and remains
			// pollable. Nothing useful can be written to a dead
			// connection, so just return.
		}
		return
	}
	writeJSON(w, http.StatusCreated, status)
}

// wantWait reports whether the submission asked for the synchronous
// response mode.
func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "", "0", "false":
		return false
	}
	return true
}

// retryAfterHint derives the 429 Retry-After value from live load: a
// full queue drains in about ceil(depth/workers) waves of the recent
// mean run time. The hint is clamped to [1s, 60s] — clients should
// neither hammer a saturated server nor stall for minutes on a stale
// estimate.
func (s *Server) retryAfterHint() string {
	mean := s.metrics.MeanRunNs()
	if mean <= 0 {
		mean = int64(time.Second)
	}
	workers := s.pool.Workers()
	if workers <= 0 {
		workers = 1
	}
	waves := (int64(s.pool.QueueDepth()) + int64(workers) - 1) / int64(workers)
	if waves < 1 {
		waves = 1
	}
	secs := (waves*mean + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// newJobLocked allocates and registers a job; the caller holds s.mu.
func (s *Server) newJobLocked(cfg sim.Config, key string, maxNs int64) *Job {
	s.nextID++
	job := &Job{
		ID:        fmt.Sprintf("job-%08d", s.nextID),
		Key:       key,
		Config:    cfg,
		MaxNs:     maxNs,
		State:     StateQueued,
		Submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[job.ID] = job
	return job
}

// retireLocked records that job reached a terminal state and evicts
// the oldest finished job once more than maxFinishedJobs are kept. The
// finished list is compacted when its dead prefix outgrows the live
// part, so eviction costs O(1) amortized. The caller holds s.mu.
func (s *Server) retireLocked(job *Job) {
	s.finished = append(s.finished, job.ID)
	if len(s.finished)-s.finHead <= maxFinishedJobs {
		return
	}
	delete(s.jobs, s.finished[s.finHead])
	s.finHead++
	if s.finHead > maxFinishedJobs {
		s.finished = append(s.finished[:0], s.finished[s.finHead:]...)
		s.finHead = 0
	}
}

// run executes one job on a pool worker.
func (s *Server) run(job *Job, ctx context.Context, cancel context.CancelCauseFunc) {
	defer cancel(nil) // release the deadline timer, if any
	s.mu.Lock()
	if job.State != StateQueued {
		// Cancelled while waiting in the queue.
		s.mu.Unlock()
		return
	}
	if ctx.Err() != nil {
		s.finishLocked(job, StateCancelled, nil, fmt.Errorf("%w before start: %w", sim.ErrCanceled, context.Cause(ctx)))
		s.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.Started = time.Now()
	s.mu.Unlock()
	s.metrics.ObserveQueueWait(job.Config.Design.String(), job.Started.Sub(job.Submitted).Nanoseconds())

	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)

	// The tracer lives in a local copy of the config: Job.Config stays
	// the canonical, hashable request.
	cfg := job.Config
	var tracer *telemetry.Tracer
	if job.TraceWanted {
		tracer = telemetry.New(telemetry.Options{TrackLimit: job.TraceLimit})
		cfg.Trace = tracer
	}

	sys, err := sim.NewSystem(cfg)
	if err != nil {
		s.mu.Lock()
		s.finishLocked(job, StateFailed, nil, err)
		s.mu.Unlock()
		return
	}
	res, err := sys.RunContext(ctx, job.MaxNs)
	wall := time.Since(job.Started)

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(err, sim.ErrCanceled):
		s.finishLocked(job, StateCancelled, nil, err)
	case err != nil:
		s.finishLocked(job, StateFailed, nil, err)
	default:
		summary := res.Summary()
		s.cache.Put(job.Key, summary)
		s.metrics.ObserveRunTime(job.Config.Design.String(), wall.Nanoseconds())
		if tracer != nil {
			var buf bytes.Buffer
			if werr := tracer.WriteChromeTrace(&buf); werr != nil {
				s.log.Warn("trace render failed", "id", job.ID, "error", werr)
			} else {
				job.TraceData = buf.Bytes()
			}
		}
		s.finishLocked(job, StateDone, &summary, nil)
	}
}

// finishLocked moves a job to a terminal state; the caller holds s.mu.
func (s *Server) finishLocked(job *Job, state State, summary *sim.ResultSummary, err error) {
	job.State = state
	job.Finished = time.Now()
	job.Result = summary
	close(job.done)
	s.retireLocked(job)
	if err != nil {
		job.Err = err.Error()
	}
	switch state {
	case StateDone:
		s.metrics.Completed.Add(1)
		s.log.Info("job done", "id", job.ID, "design", job.Config.Design.String())
	case StateFailed:
		s.metrics.Failed.Add(1)
		s.log.Warn("job failed", "id", job.ID, "error", job.Err)
	case StateCancelled:
		s.metrics.Cancelled.Add(1)
		s.log.Info("job cancelled", "id", job.ID, "cause", job.Err)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var status JobStatus
	if ok {
		status = job.status()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// handleTrace serves a finished job's Chrome trace. 404 covers both an
// unknown job and a job that was not submitted with trace (or whose run
// produced none); 409 signals "asked, but not finished yet".
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var (
		terminal bool
		wanted   bool
		data     []byte
	)
	if ok {
		terminal = job.State.Terminal()
		wanted = job.TraceWanted
		data = job.TraceData
	}
	s.mu.Unlock()
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, "no such job")
	case wanted && !terminal:
		writeError(w, http.StatusConflict, "job has not finished yet")
	case len(data) == 0:
		writeError(w, http.StatusNotFound, "no trace for this job (submit with \"trace\": true)")
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := State(r.URL.Query().Get("state"))
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, job := range s.jobs {
		if filter != "" && job.State != filter {
			continue
		}
		out = append(out, job.status())
	}
	s.mu.Unlock()
	// Submission order: ids are sequential and zero-padded, so a
	// shorter id is older and equal lengths compare as strings.
	slices.SortFunc(out, func(a, b JobStatus) int {
		return cmp.Or(cmp.Compare(len(a.ID), len(b.ID)), strings.Compare(a.ID, b.ID))
	})
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleCancel cancels a queued or running job. Queued jobs terminate
// immediately (200); running jobs get a cancellation request the engine
// honours within its check granularity (202).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if job.State.Terminal() {
		status := job.status()
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, status)
		return
	}
	cause := errors.New("service: cancelled by client")
	code := http.StatusAccepted
	if job.State == StateQueued {
		s.finishLocked(job, StateCancelled, nil, fmt.Errorf("%w: %w", sim.ErrCanceled, cause))
		code = http.StatusOK
	}
	if job.cancel != nil {
		job.cancel(cause)
	}
	status := job.status()
	s.mu.Unlock()
	writeJSON(w, code, status)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobCount := len(s.jobs)
	s.mu.Unlock()
	hits, misses := s.cache.Hits(), s.cache.Misses()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	gauges := map[string]float64{
		"mopac_queue_depth":    float64(s.pool.QueueDepth()),
		"mopac_queue_capacity": float64(s.pool.QueueCap()),
		"mopac_workers":        float64(s.pool.Workers()),
		"mopac_jobs_tracked":   float64(jobCount),
		"mopac_cache_entries":  float64(s.cache.Len()),
		"mopac_cache_hit_rate": hitRate,
	}
	counters := map[string]int64{
		"mopac_cache_hits_total":        hits,
		"mopac_cache_misses_total":      misses,
		"mopac_cache_disk_hits_total":   s.cache.DiskHits(),
		"mopac_cache_disk_errors_total": s.cache.DiskErrors(),
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, gauges, counters)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok", buildinfo.Short())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
