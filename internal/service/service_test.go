package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mopac/internal/store"
)

// fastJob completes in well under a second; slowJob would run for
// minutes if left alone (the cancellation tests never let it).
func fastJob(seed uint64) JobRequest {
	return JobRequest{Design: "baseline", Workload: "lbm", InstrPerCore: 20_000, Seed: seed}
}

func slowJob(seed uint64) JobRequest {
	return JobRequest{Design: "mopac-d", Workload: "lbm", InstrPerCore: 200_000_000, Seed: seed}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
	}
	return resp, status
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

// waitState polls until the job reaches want (or any terminal state).
func waitState(t *testing.T, ts *httptest.Server, id string, want State, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		status := getJob(t, ts, id)
		if status.State == want {
			return status
		}
		if status.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (err %q), want %s", id, status.State, status.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitRunAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Queue: 8})

	resp, first := postJob(t, ts, fastJob(1))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first POST: status %d, want 201", resp.StatusCode)
	}
	if first.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	done := waitState(t, ts, first.ID, StateDone, 30*time.Second)
	if done.Result == nil || done.Result.SumIPC <= 0 {
		t.Fatalf("finished job has no result: %+v", done)
	}

	// The identical config must be served from cache, instantly and
	// with the same numbers.
	start := time.Now()
	resp2, second := postJob(t, ts, fastJob(1))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached POST: status %d, want 200", resp2.StatusCode)
	}
	if !second.CacheHit || second.State != StateDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.Result == nil || second.Result.SumIPC != done.Result.SumIPC {
		t.Fatal("cached result differs from the original run")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cache hit took %v; it must not re-run the simulation", elapsed)
	}
	if second.Key != first.Key {
		t.Fatalf("identical configs got different keys: %s vs %s", first.Key, second.Key)
	}

	// A different seed is a different run — no cache hit.
	resp3, third := postJob(t, ts, fastJob(2))
	if resp3.StatusCode != http.StatusCreated || third.CacheHit {
		t.Fatalf("different seed must miss the cache: status %d, hit %v", resp3.StatusCode, third.CacheHit)
	}
}

func TestQueueBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 1})

	// Occupy the single worker, then fill the one queue slot.
	_, running := postJob(t, ts, slowJob(1))
	waitState(t, ts, running.ID, StateRunning, 10*time.Second)
	resp2, _ := postJob(t, ts, slowJob(2))
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("queued POST: status %d, want 201", resp2.StatusCode)
	}

	resp3, _ := postJob(t, ts, slowJob(3))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST: status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}

	// The rejected submission must leave no job record behind.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("job list has %d entries, want 2", len(list.Jobs))
	}
}

func TestDeleteCancelsRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 4})

	_, job := postJob(t, ts, slowJob(7))
	waitState(t, ts, job.ID, StateRunning, 10*time.Second)

	start := time.Now()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job: status %d, want 202", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		status := getJob(t, ts, job.ID)
		if status.State == StateCancelled {
			break
		}
		if status.State.Terminal() {
			t.Fatalf("job ended %s, want cancelled", status.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not cancel within 10 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A 200 M-instruction run takes minutes; cancellation must beat
	// natural completion by a huge margin.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}

	// Cancelling a finished job conflicts.
	resp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE terminal job: status %d, want 409", resp2.StatusCode)
	}
}

func TestDeleteCancelsQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 2})

	_, running := postJob(t, ts, slowJob(11))
	waitState(t, ts, running.ID, StateRunning, 10*time.Second)
	_, queued := postJob(t, ts, slowJob(12))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued job: status %d, want 200", resp.StatusCode)
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.State != StateCancelled {
		t.Fatalf("queued job state %s after DELETE, want cancelled", status.State)
	}
}

func TestSubmitValidation400(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
	cases := []struct {
		name string
		body string
	}{
		{"negative cores", `{"design":"baseline","workload":"lbm","cores":-1}`},
		{"negative trh", `{"design":"mopac-d","workload":"lbm","trh":-5}`},
		{"negative instr", `{"design":"baseline","workload":"lbm","instr_per_core":-1}`},
		{"unknown design", `{"design":"nosuch","workload":"lbm"}`},
		{"unknown workload", `{"design":"baseline","workload":"nosuch"}`},
		{"missing workload", `{"design":"baseline"}`},
		{"unknown field", `{"design":"baseline","workload":"lbm","bogus":1}`},
		{"garbage", `{nope`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestJobDeadlineCancelsRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
	req := slowJob(21)
	req.DeadlineMs = 100
	_, job := postJob(t, ts, req)
	status := waitState(t, ts, job.ID, StateCancelled, 10*time.Second)
	if !strings.Contains(status.Error, "deadline") {
		t.Fatalf("cancellation cause %q does not mention the deadline", status.Error)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Queue: 8})

	_, job := postJob(t, ts, fastJob(31))
	waitState(t, ts, job.ID, StateDone, 30*time.Second)
	postJob(t, ts, fastJob(31)) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, w := range []string{
		"mopac_jobs_submitted_total 2",
		"mopac_jobs_completed_total 1",
		"mopac_cache_hits_total 1",
		"mopac_queue_depth",
		"mopac_jobs_inflight",
		`mopac_run_time_ns{design="Baseline",quantile="0.5"}`,
		"mopac_cache_hit_rate",
	} {
		if !strings.Contains(text, w) {
			t.Fatalf("metrics output missing %q:\n%s", w, text)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", hresp.StatusCode)
	}
}

func TestShutdownDrainAbortsInFlight(t *testing.T) {
	srv := New(Options{Workers: 1, Queue: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, job := postJob(t, ts, slowJob(41))
	waitState(t, ts, job.ID, StateRunning, 10*time.Second)

	// An already-expired context forces the drain to abort the run.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}

	status := getJob(t, ts, job.ID)
	if status.State != StateCancelled {
		t.Fatalf("in-flight job state %s after forced drain, want cancelled", status.State)
	}

	// A draining server refuses new work and reports unhealthy.
	resp, _ := postJob(t, ts, fastJob(42))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hresp.StatusCode)
	}
}

func TestGetUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestListFiltersByState(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Queue: 8})
	_, job := postJob(t, ts, fastJob(51))
	waitState(t, ts, job.ID, StateDone, 30*time.Second)

	resp, err := http.Get(ts.URL + "/v1/jobs?state=done")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].State != StateDone {
		t.Fatalf("filtered list = %+v, want the one done job", list.Jobs)
	}
}

// TestJobTableBounded submits more jobs than the table keeps: the
// finished jobs stay capped at maxFinishedJobs with the oldest evicted
// first, an evicted id returns 404, a running job is never evicted,
// and resubmitting the evicted job's config is still a cache hit.
func TestJobTableBounded(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2, Queue: 4})
	_, first := postJob(t, ts, fastJob(81))
	waitState(t, ts, first.ID, StateDone, 30*time.Second)
	_, slow := postJob(t, ts, slowJob(82))
	waitState(t, ts, slow.ID, StateRunning, 10*time.Second)

	for i := 0; i < maxFinishedJobs; i++ {
		resp, st := postJob(t, ts, fastJob(81))
		if resp.StatusCode != http.StatusOK || !st.CacheHit {
			t.Fatalf("resubmission %d: status %d, cache hit %v", i, resp.StatusCode, st.CacheHit)
		}
	}
	srv.mu.Lock()
	tracked := len(srv.jobs)
	srv.mu.Unlock()
	if tracked != maxFinishedJobs+1 {
		t.Fatalf("job table holds %d jobs, want %d finished + 1 running", tracked, maxFinishedJobs)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job %s: status %d, want 404", first.ID, resp.StatusCode)
	}
	if st := getJob(t, ts, slow.ID); st.State != StateRunning {
		t.Fatalf("running job %s is %s, want running", slow.ID, st.State)
	}
	if resp, st := postJob(t, ts, fastJob(81)); resp.StatusCode != http.StatusOK || !st.CacheHit {
		t.Fatalf("resubmitting the evicted config: status %d, cache hit %v", resp.StatusCode, st.CacheHit)
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+slow.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, slow.ID, StateCancelled, 10*time.Second)
}

// TestExampleCurlSessionShape pins the response shapes the README
// documents.
func TestExampleCurlSessionShape(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 4})
	resp, job := postJob(t, ts, fastJob(61))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, field := range []string{job.ID, job.Key, string(job.State), job.Design, job.Workload, job.SubmittedAt} {
		if field == "" {
			t.Fatalf("missing field in %+v", job)
		}
	}
	if !strings.HasPrefix(job.ID, "job-") {
		t.Fatalf("job ID %q", job.ID)
	}
	waitState(t, ts, job.ID, StateDone, 30*time.Second)
	final := getJob(t, ts, job.ID)
	if final.RunMs <= 0 || final.FinishedAt == "" {
		t.Fatalf("finished job missing timing: %+v", final)
	}
}

func TestJobIDsAreSequential(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Queue: 8})
	_, a := postJob(t, ts, fastJob(71))
	_, b := postJob(t, ts, fastJob(72))
	if a.ID == b.ID {
		t.Fatal("duplicate job IDs")
	}
	if fmt.Sprintf("job-%08d", 1) != a.ID || fmt.Sprintf("job-%08d", 2) != b.ID {
		t.Fatalf("IDs %s, %s not sequential", a.ID, b.ID)
	}
}

// openTestStore opens the summary-schema disk tier used by the
// disk-cache tests.
func openTestStore(t *testing.T, dir string) DiskStore {
	t.Helper()
	s, err := store.Open(dir, StoreSchema, "test-rev")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiskCacheSurvivesRestart: a summary computed by one server
// instance is served as a cache hit by a fresh instance sharing the
// same store directory — the persistence the in-memory LRU lacks.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	_, ts := newTestServer(t, Options{Workers: 2, Queue: 8, Store: openTestStore(t, dir)})
	_, job := postJob(t, ts, fastJob(41))
	done := waitState(t, ts, job.ID, StateDone, 30*time.Second)

	_, ts2 := newTestServer(t, Options{Workers: 2, Queue: 8, Store: openTestStore(t, dir)})
	resp, hit := postJob(t, ts2, fastJob(41))
	if resp.StatusCode != http.StatusOK || !hit.CacheHit {
		t.Fatalf("restarted server must serve from disk: status %d, hit %v", resp.StatusCode, hit.CacheHit)
	}
	if hit.Result == nil || hit.Result.SumIPC != done.Result.SumIPC {
		t.Fatal("disk-served summary differs from the original run")
	}

	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mopac_cache_disk_hits_total 1") {
		t.Fatalf("metrics missing disk-hit counter:\n%s", buf.String())
	}
}

// TestDiskCacheBacksLRUEviction: with a one-entry LRU, an evicted
// summary comes back from the disk tier instead of re-simulating.
func TestDiskCacheBacksLRUEviction(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2, Queue: 8, CacheSize: 1, Store: openTestStore(t, t.TempDir())})

	_, a := postJob(t, ts, fastJob(51))
	waitState(t, ts, a.ID, StateDone, 30*time.Second)
	_, b := postJob(t, ts, fastJob(52)) // evicts seed 51 from the LRU
	waitState(t, ts, b.ID, StateDone, 30*time.Second)

	resp, hit := postJob(t, ts, fastJob(51))
	if resp.StatusCode != http.StatusOK || !hit.CacheHit {
		t.Fatalf("evicted summary must be served from disk: status %d, hit %v", resp.StatusCode, hit.CacheHit)
	}
	if srv.cache.DiskHits() != 1 {
		t.Fatalf("disk hits = %d, want 1", srv.cache.DiskHits())
	}
}
