package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mopac/internal/buildinfo"
)

func getTrace(t *testing.T, ts *httptest.Server, id string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTraceLifecycle covers the per-job trace option end to end:
// submit with trace, wait for completion, download a Perfetto-loadable
// Chrome trace, and verify the status flag flips.
func TestTraceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	req := fastJob(11)
	req.Trace = true
	resp, status := postJob(t, ts, req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d, want 201", resp.StatusCode)
	}
	done := waitState(t, ts, status.ID, StateDone, 30*time.Second)
	if !done.Trace {
		t.Fatal("finished traced job does not advertise a trace")
	}

	tresp, body := getTrace(t, ts, status.ID)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d, want 200 (body %s)", tresp.StatusCode, body)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type %q", ct)
	}
	var ct struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &ct); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	phases := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		phases[ev.Ph] = true
	}
	for _, ph := range []string{"X", "C", "M"} {
		if !phases[ph] {
			t.Errorf("trace has no %q events", ph)
		}
	}
}

// TestTraceBypassesCache proves a traced resubmission of a cached
// config re-runs instead of returning the trace-less cached summary.
func TestTraceBypassesCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	plain := fastJob(12)
	_, first := postJob(t, ts, plain)
	waitState(t, ts, first.ID, StateDone, 30*time.Second)

	// Same config again: cache hit.
	_, second := postJob(t, ts, plain)
	if !second.CacheHit {
		t.Fatal("identical resubmission was not served from cache")
	}

	traced := plain
	traced.Trace = true
	resp, third := postJob(t, ts, traced)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("traced submit: status %d, want 201 (fresh run)", resp.StatusCode)
	}
	if third.CacheHit {
		t.Fatal("traced submission was served from cache; no trace could exist")
	}
	done := waitState(t, ts, third.ID, StateDone, 30*time.Second)
	if !done.Trace {
		t.Fatal("traced re-run produced no trace")
	}
}

// TestTracedSubmitSkipsCacheLookup: a traced submission runs whatever
// the cache holds, so it must not look there. Neither the LRU's hit
// count nor the disk tier may see it, whether the summary sits in the
// LRU or only on disk.
func TestTracedSubmitSkipsCacheLookup(t *testing.T) {
	disk := newGatedStore()
	srv, ts := newTestServer(t, Options{Workers: 2, CacheSize: 1, Store: disk})

	onDisk, inLRU := fastJob(71), fastJob(72)
	for _, req := range []JobRequest{onDisk, inLRU} { // the second evicts the first from the LRU
		_, st := postJob(t, ts, req)
		waitState(t, ts, st.ID, StateDone, 30*time.Second)
	}
	hits := srv.cache.Hits()
	disk.mu.Lock()
	loads := disk.loads
	disk.mu.Unlock()
	for name, req := range map[string]JobRequest{"lru": inLRU, "disk": onDisk} {
		req.Trace = true
		resp, st := postJob(t, ts, req)
		if resp.StatusCode != http.StatusCreated || st.CacheHit {
			t.Fatalf("%s: traced resubmission: status %d, cache hit %v; want a fresh run", name, resp.StatusCode, st.CacheHit)
		}
		waitState(t, ts, st.ID, StateDone, 30*time.Second)
	}
	if got := srv.cache.Hits(); got != hits {
		t.Errorf("traced submissions moved the cache hit count: %d -> %d", hits, got)
	}
	disk.mu.Lock()
	defer disk.mu.Unlock()
	if disk.loads != loads {
		t.Errorf("traced submissions read the disk tier: %d loads, want %d", disk.loads, loads)
	}
}

// TestTraceErrorStatuses pins the endpoint's failure modes: 404 for an
// unknown job, 404 for a finished job that never asked for a trace,
// and 409 for a traced job that has not finished.
func TestTraceErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	if resp, _ := getTrace(t, ts, "job-99999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	_, plain := postJob(t, ts, fastJob(13))
	waitState(t, ts, plain.ID, StateDone, 30*time.Second)
	if resp, _ := getTrace(t, ts, plain.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("untraced job: status %d, want 404", resp.StatusCode)
	}

	slow := slowJob(13)
	slow.Trace = true
	_, running := postJob(t, ts, slow)
	waitState(t, ts, running.ID, StateRunning, 30*time.Second)
	if resp, _ := getTrace(t, ts, running.ID); resp.StatusCode != http.StatusConflict {
		t.Errorf("running traced job: status %d, want 409", resp.StatusCode)
	}
	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
}

// TestNegativeTraceLimit400 checks request validation.
func TestNegativeTraceLimit400(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := fastJob(14)
	req.Trace = true
	req.TraceLimit = -1
	resp, _ := postJob(t, ts, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative trace limit: status %d, want 400", resp.StatusCode)
	}
}

// TestQueueWaitMetric checks the /metrics summary added alongside the
// run-time quantiles.
func TestQueueWaitMetric(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, status := postJob(t, ts, fastJob(15))
	waitState(t, ts, status.ID, StateDone, 30*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE mopac_queue_wait_ns summary",
		`mopac_queue_wait_ns{design="Baseline",quantile="0.5"}`,
		`mopac_queue_wait_ns_count{design="Baseline"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHealthzReportsVersion checks /healthz carries the build identity.
func TestHealthzReportsVersion(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("ok %s\n", buildinfo.Short())
	if string(body) != want {
		t.Errorf("healthz body %q, want %q", body, want)
	}
}
