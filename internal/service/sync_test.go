package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mopac/internal/sim"
)

// TestSubmitWaitReturnsTerminalStatus checks the synchronous mode the
// fleet coordinator dispatches through: one POST, one terminal answer.
func TestSubmitWaitReturnsTerminalStatus(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Queue: 8})
	body, _ := json.Marshal(fastJob(11))
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.State != StateDone || status.Result == nil || status.Result.SumIPC <= 0 {
		t.Fatalf("wait=1 returned a non-terminal or empty status: %+v", status)
	}

	// Waiting on a cached config is also terminal, and instant.
	resp2, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var cached JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&cached); err != nil {
		t.Fatal(err)
	}
	if !cached.CacheHit || cached.State != StateDone {
		t.Fatalf("cached wait=1: %+v", cached)
	}
}

// TestRetryAfterDerivedFromLoad fills a tiny queue and checks the 429
// carries a parseable, queue-aware Retry-After.
func TestRetryAfterDerivedFromLoad(t *testing.T) {
	// One worker, zero queue: the second concurrent submission is
	// rejected while the first occupies the worker.
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 0})
	slow, _ := json.Marshal(slowJob(1))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	var started JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&started)
	resp.Body.Close()
	t.Cleanup(func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+started.ID, nil)
		if r, err := http.DefaultClient.Do(req); err == nil {
			r.Body.Close()
		}
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		body, _ := json.Marshal(fastJob(2))
		resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode == http.StatusTooManyRequests {
			ra := resp2.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 || secs > 60 {
				t.Fatalf("Retry-After %q, want an integer in [1, 60]", ra)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled; no 429 observed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobEventsSSE streams a job's lifecycle and expects a terminal
// event carrying the result digest.
func TestJobEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Queue: 8})
	_, created := postJob(t, ts, fastJob(12))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	var last JobStatus
	var sawEvent bool
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") && strings.TrimPrefix(line, "event: ") != "state" {
			t.Fatalf("unexpected event type in %q", line)
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		sawEvent = true
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE payload: %v", err)
		}
		if last.State.Terminal() {
			break
		}
	}
	if !sawEvent {
		t.Fatal("no SSE events received")
	}
	if last.State != StateDone || last.Result == nil {
		t.Fatalf("terminal event lacks a result: %+v", last)
	}

	// Unknown job: 404, not a stream.
	nresp, err := http.Get(ts.URL + "/v1/jobs/job-99999999/events")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events status %d, want 404", nresp.StatusCode)
	}
}

// TestConcurrentJobsMatchSoloRuns posts distinct jobs from four clients
// at once, on three workers that hand their finished Systems back for
// reuse while a cancelled run returns one mid-flight, and checks every
// job's summary against the job's own run.
func TestConcurrentJobsMatchSoloRuns(t *testing.T) {
	var reqs []JobRequest
	for i, d := range []string{"baseline", "prac", "mopac-c", "mopac-d", "mint", "qprac"} {
		for _, wl := range []string{"lbm", "mcf"} {
			reqs = append(reqs, JobRequest{Design: d, Workload: wl, Cores: 4, InstrPerCore: 5_000, Seed: uint64(100 + i)})
		}
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		cfg, err := req.ToConfig()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sim.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = json.Marshal(res.Summary())
	}

	_, ts := newTestServer(t, Options{Workers: 3, Queue: 64})
	_, slow := postJob(t, ts, slowJob(1))
	waitState(t, ts, slow.ID, StateRunning, 10*time.Second)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += 4 {
				body, _ := json.Marshal(reqs[i])
				resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var status JobStatus
				err = json.NewDecoder(resp.Body).Decode(&status)
				resp.Body.Close()
				if err != nil || status.State != StateDone || status.Result == nil {
					t.Errorf("job %d: state %s, error %v %q", i, status.State, err, status.Error)
					continue
				}
				if got, _ := json.Marshal(status.Result); !bytes.Equal(got, want[i]) {
					t.Errorf("job %d (%s on %s): summary differs from its own run:\n got %s\nwant %s",
						i, reqs[i].Design, reqs[i].Workload, got, want[i])
				}
			}
		}()
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+slow.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wg.Wait()
	waitState(t, ts, slow.ID, StateCancelled, 10*time.Second)
}
