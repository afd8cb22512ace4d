package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mopac/internal/service"
	"mopac/internal/store"
)

// jobJSON is a tiny fast job; seed varies the dispatch key.
func jobJSON(seed uint64) []byte {
	return []byte(fmt.Sprintf(
		`{"design":"baseline","workload":"lbm","instr_per_core":20000,"seed":%d}`, seed))
}

// testWorker is one in-process worker: a service plus its agent.
type testWorker struct {
	srv   *service.Server
	ts    *httptest.Server
	agent *Agent
}

// testFleet wires a coordinator and n workers over httptest servers.
type testFleet struct {
	coord   *Coordinator
	coordTS *httptest.Server
	workers []*testWorker
}

func newTestFleet(t *testing.T, opts Options, n int) *testFleet {
	t.Helper()
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		coordTS.Close()
		coord.Close()
	})
	f := &testFleet{coord: coord, coordTS: coordTS}
	for i := 0; i < n; i++ {
		f.addWorker(t, nil)
	}
	f.waitWorkers(t, n)
	return f
}

// addWorker starts a worker; wrap, when non-nil, fronts the service
// handler (fault injection).
func (f *testFleet) addWorker(t *testing.T, wrap func(http.Handler) http.Handler) *testWorker {
	t.Helper()
	srv := service.New(service.Options{Workers: 2, Queue: 16})
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	agent, err := NewAgent(AgentOptions{
		Coordinator: f.coordTS.URL,
		ID:          fmt.Sprintf("worker-%d", len(f.workers)),
		URL:         ts.URL,
		Interval:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	w := &testWorker{srv: srv, ts: ts, agent: agent}
	f.workers = append(f.workers, w)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = agent.Stop(ctx)
		ts.Close()
		_ = srv.Shutdown(ctx)
	})
	return w
}

// waitWorkers blocks until the ring holds n members.
func (f *testFleet) waitWorkers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.coord.ring.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", f.coord.ring.Len(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submitWait posts a job synchronously and decodes the terminal view.
func (f *testFleet) submitWait(t *testing.T, body []byte, tenant string) (*http.Response, JobView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, f.coordTS.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

// TestFleetAffinityAndByteIdentity submits a spread of configs twice:
// every job must complete, repeats must land on the same worker (and
// hit its cache), and the fleet's results must be byte-identical to a
// single-process service run of the same configs.
func TestFleetAffinityAndByteIdentity(t *testing.T) {
	f := newTestFleet(t, Options{}, 2)

	// The single-process reference.
	ref := service.New(service.Options{Workers: 2, Queue: 16})
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(func() {
		refTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ref.Shutdown(ctx)
	})

	ownerOf := make(map[string]string)
	for round := 0; round < 2; round++ {
		for seed := uint64(1); seed <= 6; seed++ {
			resp, v := f.submitWait(t, jobJSON(seed), "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d round %d: status %d", seed, round, resp.StatusCode)
			}
			if v.State != JobDone || v.Job == nil || v.Job.Result == nil {
				t.Fatalf("seed %d round %d: job not done: %+v", seed, round, v)
			}
			if prev, ok := ownerOf[v.Key]; ok {
				if prev != v.Worker {
					t.Fatalf("key %s moved from %s to %s with a stable ring", v.Key, prev, v.Worker)
				}
				if !v.Job.CacheHit {
					t.Errorf("repeat of key %s on its own worker missed the cache", v.Key)
				}
			} else {
				ownerOf[v.Key] = v.Worker
			}

			// Byte-identity against the single-process path.
			resp2, err := http.Post(refTS.URL+"/v1/jobs?wait=1", "application/json",
				bytes.NewReader(jobJSON(seed)))
			if err != nil {
				t.Fatal(err)
			}
			var refStatus service.JobStatus
			if err := json.NewDecoder(resp2.Body).Decode(&refStatus); err != nil {
				t.Fatal(err)
			}
			resp2.Body.Close()
			fleetJSON, _ := json.Marshal(v.Job.Result)
			refJSON, _ := json.Marshal(refStatus.Result)
			if !bytes.Equal(fleetJSON, refJSON) {
				t.Fatalf("seed %d: fleet result differs from single-process run:\n%s\n%s",
					seed, fleetJSON, refJSON)
			}
		}
	}
	// With 2 workers and 6 keys, both workers should own something
	// (probability of a 6-key single-side split is ~3%; the ring and
	// keys are deterministic, so this either always passes or the
	// seeds need adjusting — it passes).
	owners := make(map[string]bool)
	for _, w := range ownerOf {
		owners[w] = true
	}
	if len(owners) < 2 {
		t.Errorf("all %d keys landed on one worker: %v", len(ownerOf), ownerOf)
	}
}

// kill stops the worker's heartbeats without deregistering: to the
// coordinator the worker simply goes silent, as a crashed one does.
// Stop afterwards is a no-op.
func (w *testWorker) kill() {
	close(w.agent.stop)
	<-w.agent.done
}

// abortOnce aborts the connection of the first dispatched job — a
// worker dying mid-run, deterministically. The worker it fronts is
// killed first, so no heartbeat re-registers it once the coordinator
// has dropped it.
func abortOnce(worker *atomic.Pointer[testWorker]) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		var fired atomic.Bool
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs") && fired.CompareAndSwap(false, true) {
				worker.Load().kill()
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestFleetFailover kills the primary mid-job and expects the
// coordinator to complete it on the ring successor with no
// client-visible error.
func TestFleetFailover(t *testing.T) {
	coord, err := NewCoordinator(Options{MaxFailovers: 2})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		coordTS.Close()
		coord.Close()
	})
	f := &testFleet{coord: coord, coordTS: coordTS}
	var faulty atomic.Pointer[testWorker]
	faulty.Store(f.addWorker(t, abortOnce(&faulty))) // worker-0 dies on its first job
	f.addWorker(t, nil)
	f.waitWorkers(t, 2)

	// Find a seed whose primary is the faulty worker-0.
	seed := uint64(0)
	for s := uint64(1); s < 100; s++ {
		var req service.JobRequest
		if err := json.Unmarshal(jobJSON(s), &req); err != nil {
			t.Fatal(err)
		}
		cfg, err := req.ToConfig()
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := coord.ring.Lookup(cfg.Hash()); owner == "worker-0" {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed maps to worker-0")
	}

	resp, v := f.submitWait(t, jobJSON(seed), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 despite the dead primary", resp.StatusCode)
	}
	if v.State != JobDone || v.Job == nil || v.Job.Result == nil {
		t.Fatalf("job did not complete after failover: %+v", v)
	}
	if v.Failovers != 1 || v.Worker != "worker-1" {
		t.Fatalf("failovers=%d worker=%s, want 1 hop to worker-1", v.Failovers, v.Worker)
	}
	if coord.failovers.Load() != 1 {
		t.Fatalf("failover counter = %d, want 1", coord.failovers.Load())
	}
	// The dead worker was dropped from the ring immediately.
	if coord.ring.Len() != 1 {
		t.Fatalf("ring still holds %d members, want 1 after the drop", coord.ring.Len())
	}
}

// TestFleetQuota checks per-tenant admission: a tenant over its burst
// gets 429 + Retry-After while other tenants sail through.
func TestFleetQuota(t *testing.T) {
	f := newTestFleet(t, Options{Quota: QuotaConfig{Rate: 0.001, Burst: 2}}, 1)

	for i := 0; i < 2; i++ {
		resp, _ := f.submitWait(t, jobJSON(uint64(i+1)), "greedy")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp, _ := f.submitWait(t, jobJSON(3), "greedy")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	resp2, v := f.submitWait(t, jobJSON(4), "patient")
	if resp2.StatusCode != http.StatusOK || v.State != JobDone {
		t.Fatalf("other tenant throttled: status %d state %s", resp2.StatusCode, v.State)
	}

	// Metrics expose the rejection, labelled by tenant.
	mresp, err := http.Get(f.coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mopac_fleet_quota_rejected_total 1`,
		`mopac_fleet_quota_rejected_by_tenant_total{tenant="greedy"} 1`,
		`mopac_fleet_workers 1`,
		`mopac_fleet_ring_imbalance`,
		`mopac_fleet_worker_inflight{worker="worker-0"}`,
		`mopac_fleet_failovers_total 0`,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestFleetSSE subscribes to a job's event stream and expects state
// snapshots ending in a terminal event that carries the result digest.
func TestFleetSSE(t *testing.T) {
	f := newTestFleet(t, Options{}, 1)

	resp, err := http.Post(f.coordTS.URL+"/v1/jobs", "application/json", bytes.NewReader(jobJSON(1)))
	if err != nil {
		t.Fatal(err)
	}
	var created JobView
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	sresp, err := http.Get(f.coordTS.URL + "/v1/jobs/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	var last JobView
	events := 0
	scanner := bufio.NewScanner(sresp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE payload: %v", err)
		}
		if last.State.Terminal() {
			break
		}
	}
	if events == 0 {
		t.Fatal("no SSE events received")
	}
	if last.State != JobDone || last.Job == nil || last.Job.Result == nil {
		t.Fatalf("terminal SSE event lacks the result digest: %+v", last)
	}

	// An unknown job is a 404, not an empty stream.
	nresp, err := http.Get(f.coordTS.URL + "/v1/jobs/fleet-99999999/events")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events status %d, want 404", nresp.StatusCode)
	}
}

// TestFleetDrainDeregistration checks that a stopping worker leaves
// the ring via its agent rather than waiting for TTL expiry.
func TestFleetDrainDeregistration(t *testing.T) {
	f := newTestFleet(t, Options{}, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.workers[0].agent.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if n := f.coord.ring.Len(); n != 1 {
		t.Fatalf("ring holds %d members after deregistration, want 1", n)
	}
	// Jobs keep flowing to the survivor.
	resp, v := f.submitWait(t, jobJSON(1), "")
	if resp.StatusCode != http.StatusOK || v.State != JobDone {
		t.Fatalf("post-drain job: status %d state %s", resp.StatusCode, v.State)
	}
	if v.Worker != f.workers[1].agent.ID() {
		t.Fatalf("job went to %s, want the surviving worker", v.Worker)
	}
}

// TestFleetHeartbeatExpiry registers a worker by hand (no agent, so no
// heartbeats) and expects the janitor to drop it within the TTL.
func TestFleetHeartbeatExpiry(t *testing.T) {
	coord, err := NewCoordinator(Options{WorkerTTL: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	body := []byte(`{"id":"ghost","url":"http://127.0.0.1:1"}`)
	resp, err := http.Post(ts.URL+"/fleet/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if coord.ring.Len() != 1 {
		t.Fatal("registration did not reach the ring")
	}
	deadline := time.Now().Add(3 * time.Second)
	for coord.ring.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if coord.expired.Load() == 0 {
		t.Fatal("expiry was not counted")
	}
}

// TestFleetSharedRemoteStore proves warm results cross workers: a
// fresh worker (empty LRU, empty local disk) serves a config another
// worker computed, through the coordinator's store tier.
func TestFleetSharedRemoteStore(t *testing.T) {
	storeDir := t.TempDir()
	f := newTestFleet(t, Options{StoreDir: storeDir, Revision: "test-rev"}, 0)

	newStoreWorker := func(name string) (*service.Server, *httptest.Server) {
		remote, err := store.OpenRemote(f.coordTS.URL+"/fleet/v1/store/"+service.StoreSchema, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		local, err := store.Open(t.TempDir(), service.StoreSchema, "test-rev")
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Options{
			Workers: 1, Queue: 8,
			Store: store.NewTiered(local, remote),
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		return srv, ts
	}

	_, ts1 := newStoreWorker("first")
	resp, err := http.Post(ts1.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(jobJSON(7)))
	if err != nil {
		t.Fatal(err)
	}
	var first service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if first.State != service.StateDone || first.CacheHit {
		t.Fatalf("first run: state %s cacheHit %v", first.State, first.CacheHit)
	}

	// A brand-new worker has nothing locally; the remote tier serves it.
	_, ts2 := newStoreWorker("second")
	resp2, err := http.Post(ts2.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(jobJSON(7)))
	if err != nil {
		t.Fatal(err)
	}
	var second service.JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if second.State != service.StateDone {
		t.Fatalf("second run: state %s (%s)", second.State, second.Error)
	}
	if !second.CacheHit {
		t.Fatal("fresh worker did not hit the shared remote store")
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("remote-store result differs:\n%s\n%s", a, b)
	}
}
