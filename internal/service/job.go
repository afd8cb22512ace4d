package service

import (
	"context"
	"fmt"
	"time"

	"mopac/internal/config"
	"mopac/internal/sim"
	"mopac/internal/workload"
)

// State is a job's lifecycle position.
type State string

// Job lifecycle states. Queued jobs wait for a worker; running jobs
// hold one; the three terminal states are done, failed, and cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the POST /v1/jobs body: the JSON-friendly form of
// sim.Config, with design and policy as names (the same registry the
// batch file format uses) plus per-job run caps.
type JobRequest struct {
	Design           string `json:"design"`
	TRH              int    `json:"trh,omitempty"`
	Workload         string `json:"workload"`
	Cores            int    `json:"cores,omitempty"`
	InstrPerCore     int64  `json:"instr_per_core,omitempty"`
	NUP              bool   `json:"nup,omitempty"`
	RowPress         bool   `json:"rowpress,omitempty"`
	Chips            int    `json:"chips,omitempty"`
	SRQSize          int    `json:"srq_size,omitempty"`
	DrainOnREF       *int   `json:"drain_on_ref,omitempty"`
	RFMLevel         int    `json:"rfm_level,omitempty"`
	MaxPostponedREFs int    `json:"max_postponed_refs,omitempty"`
	PInvOverride     int    `json:"pinv_override,omitempty"`
	Policy           string `json:"policy,omitempty"`
	TimeoutNs        int64  `json:"timeout_ns,omitempty"`
	Seed             uint64 `json:"seed,omitempty"`
	Oracle           bool   `json:"oracle,omitempty"`
	// MaxNs caps simulated time (0 = one simulated second).
	MaxNs int64 `json:"max_ns,omitempty"`
	// DeadlineMs caps wall-clock run time; past it the job is cancelled.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Trace captures a cycle-level telemetry trace of the run,
	// downloadable from GET /v1/jobs/{id}/trace once the job is done.
	// Traced submissions bypass the result cache (the cached summary has
	// no trace attached) but still populate it.
	Trace bool `json:"trace,omitempty"`
	// TraceLimit overrides the per-track ring capacity (records per
	// track; 0 selects the default).
	TraceLimit int `json:"trace_limit,omitempty"`
}

// ToConfig resolves the request into a validated sim.Config. All
// failures wrap sim.ErrInvalidConfig so the HTTP layer maps them to
// 400.
func (r JobRequest) ToConfig() (sim.Config, error) {
	design, err := config.ParseDesign(r.Design)
	if err != nil {
		return sim.Config{}, fmt.Errorf("%w: %v", sim.ErrInvalidConfig, err)
	}
	policy, err := config.ParsePolicy(r.Policy)
	if err != nil {
		return sim.Config{}, fmt.Errorf("%w: %v", sim.ErrInvalidConfig, err)
	}
	if r.Workload == "" {
		return sim.Config{}, fmt.Errorf("%w: workload is required", sim.ErrInvalidConfig)
	}
	if _, err := workload.Published(r.Workload); err != nil {
		return sim.Config{}, fmt.Errorf("%w: unknown workload %q", sim.ErrInvalidConfig, r.Workload)
	}
	if r.MaxNs < 0 || r.DeadlineMs < 0 {
		return sim.Config{}, fmt.Errorf("%w: negative run cap", sim.ErrInvalidConfig)
	}
	if r.TraceLimit < 0 {
		return sim.Config{}, fmt.Errorf("%w: negative trace limit", sim.ErrInvalidConfig)
	}
	cfg := sim.Config{
		Design:           design,
		TRH:              r.TRH,
		Workload:         r.Workload,
		Cores:            r.Cores,
		InstrPerCore:     r.InstrPerCore,
		NUP:              r.NUP,
		RowPress:         r.RowPress,
		Chips:            r.Chips,
		SRQSize:          r.SRQSize,
		DrainOnREF:       r.DrainOnREF,
		RFMLevel:         r.RFMLevel,
		MaxPostponedREFs: r.MaxPostponedREFs,
		PInvOverride:     r.PInvOverride,
		Policy:           policy,
		TimeoutNs:        r.TimeoutNs,
		Seed:             r.Seed,
		TrackSecurity:    r.Oracle,
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// Job is one tracked simulation run. Mutable fields are guarded by the
// server mutex.
type Job struct {
	ID       string
	Key      string // canonical config hash
	Config   sim.Config
	MaxNs    int64
	State    State
	CacheHit bool
	Err      string
	Result   *sim.ResultSummary

	// TraceWanted/TraceLimit carry the request's trace option; TraceData
	// holds the rendered Chrome trace once the job finishes.
	TraceWanted bool
	TraceLimit  int
	TraceData   []byte

	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	cancel context.CancelCauseFunc
	// done closes when the job reaches a terminal state; synchronous
	// submissions (?wait=1) and SSE streams block on it.
	done chan struct{}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is the wire form of a job.
type JobStatus struct {
	ID       string             `json:"id"`
	Key      string             `json:"key"`
	State    State              `json:"state"`
	Design   string             `json:"design"`
	Workload string             `json:"workload"`
	CacheHit bool               `json:"cache_hit"`
	Error    string             `json:"error,omitempty"`
	Result   *sim.ResultSummary `json:"result,omitempty"`
	// Trace reports that a telemetry trace is ready for download from
	// GET /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`

	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// RunMs is wall-clock run time for finished jobs.
	RunMs float64 `json:"run_ms,omitempty"`
}

// status snapshots the job; the caller must hold the server mutex.
func (j *Job) status() JobStatus {
	st := JobStatus{
		ID:          j.ID,
		Key:         j.Key,
		State:       j.State,
		Design:      j.Config.Design.String(),
		Workload:    j.Config.Workload,
		CacheHit:    j.CacheHit,
		Error:       j.Err,
		Result:      j.Result,
		Trace:       len(j.TraceData) > 0,
		SubmittedAt: j.Submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.Started.IsZero() {
		st.StartedAt = j.Started.UTC().Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		st.FinishedAt = j.Finished.UTC().Format(time.RFC3339Nano)
		if !j.Started.IsZero() {
			st.RunMs = float64(j.Finished.Sub(j.Started)) / float64(time.Millisecond)
		}
	}
	return st
}
