package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mopac/internal/service"
	"mopac/internal/sim"
)

// serveBench is the serve workload: an in-process mopac-serve driven
// through its HTTP handler by a closed loop of clients, each posting
// one synchronous job (?wait=1) and waiting for its reply, as
// mopac-batch -server does. About a third of the jobs repeat an
// earlier one: recent repeats hit the LRU, older ones the disk tier.
type serveBench struct {
	env
	tally
	srv     *service.Server
	handler http.Handler
	store   *countingStore
	deck    []serveJob
	replies []serveReply // by deck index
	next    int          // first deck index the measured phase posts
	digest  string       // hash of the warm-up jobs' summaries
	done    int          // measured jobs that passed their checks
	lat     []float64    // CPU ms of each checked fresh measured job

	places sync.Map // job key -> *jobPlace, for store spans
}

// serveJob is one entry of the seeded job deck.
type serveJob struct {
	body []byte
	cfg  sim.Config
	key  string
	orig int // deck index of the job's first occurrence
}

// serveReply is what a client saw for one job.
type serveReply struct {
	done    bool
	summary []byte
	cpu     float64 // CPU seconds the process spent while the job was in flight
	err     error
}

// jobPlace is where a job's store calls hang in the trace.
type jobPlace struct{ trace, handle, run int }

var (
	serveDesigns = []string{"baseline", "prac", "mopac-c", "mopac-d"}
	serveTRHs    = []int{250, 500, 1000}
)

// Deck shape. Fresh jobs come in rounds, each a seeded shuffle of
// every design × workload × TRH combination, so every seed offers the
// same mix of job sizes. Every repeatEvery-th job repeats an earlier
// one, alternating between a recent job (still in the LRU) and an old
// one (evicted from it, so served by the disk tier).
// p99Window is the number of consecutive fresh jobs each p99 is taken over
// (ten beyond it); job_p99_ms is the median of the windows' p99s.
const p99Window = 1000

const (
	serveCacheSize = 32 // the service's LRU, in entries
	repeatEvery    = 3
	recentWindow   = 12 // recent repeats reach up to this many fresh jobs further back
	oldDistance    = 96 // old repeats reach at least this many fresh jobs back
)

// makeDeck returns n jobs drawn from seed.
func makeDeck(seed uint64, n int, sz sizes, workers int) ([]serveJob, error) {
	rng := rand.New(rand.NewPCG(seed, 0x7365727665)) // "serve"
	var combos []service.JobRequest
	for _, d := range serveDesigns {
		for _, w := range sz.serveWorkloads {
			for _, t := range serveTRHs {
				combos = append(combos, service.JobRequest{
					Design: d, TRH: t, Workload: w, Cores: sz.serveCores, InstrPerCore: sz.serveInstr,
				})
			}
		}
	}
	var (
		deck  []serveJob
		fresh []int // deck indices of first occurrences
		round []service.JobRequest
		old   bool
	)
	for i := 0; i < n; i++ {
		if i%repeatEvery == repeatEvery-1 && len(fresh) > workers {
			var pick int
			if old = !old; old && len(fresh) > oldDistance {
				pick = fresh[rng.IntN(len(fresh)-oldDistance)]
			} else {
				// At least workers fresh jobs back, so the first
				// occurrence has usually been answered.
				pick = fresh[len(fresh)-workers-rng.IntN(min(recentWindow, len(fresh)-workers))]
			}
			d := deck[pick]
			d.orig = pick
			deck = append(deck, d)
			continue
		}
		if len(round) == 0 {
			round = append(round, combos...)
			rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		}
		req := round[0]
		round = round[1:]
		// A distinct simulation seed per fresh job keeps every fresh job
		// a distinct config.
		req.Seed = seed<<24 | uint64(len(fresh)+1)
		cfg, err := req.ToConfig()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		fresh = append(fresh, i)
		deck = append(deck, serveJob{body: body, cfg: cfg, key: cfg.Hash(), orig: i})
	}
	return deck, nil
}

// serveInputs builds the job deck once per run, outside set-up: it is
// the benchmark's input, not work the service does. It holds more jobs
// than the load can reach in the run; the measured phase would end
// early, not late, if it ran out.
func serveInputs(e env) (any, error) {
	return makeDeck(e.seed, e.size.serveWarmJobs+e.size.serveMinJobs+600*e.seconds, e.size, e.workers)
}

func openServe(e env) (bench, error) {
	deck := e.inputs.([]serveJob)
	b := &serveBench{env: e, deck: deck, replies: make([]serveReply, len(deck))}
	var err error
	b.store, err = openCountingStore(e.dir, service.StoreSchema, e, b.place)
	if err != nil {
		return nil, err
	}
	b.srv = service.New(service.Options{Workers: e.workers, CacheSize: serveCacheSize, Store: b.store})
	b.handler = b.srv.Handler()
	return b, nil
}

// place hangs a disk read under the job's handler span and a disk
// write under its run span.
func (b *serveBench) place(op, key string) (int, int) {
	v, ok := b.places.Load(key)
	if !ok {
		return 0, -1
	}
	p := v.(*jobPlace)
	if op == "store.save" {
		return p.trace, p.run
	}
	return p.trace, p.handle
}

// post sends deck job i and records its reply.
func (b *serveBench) post(i int) {
	job := b.deck[i]
	trace := b.tr.newTrace()
	root := b.tr.begin("serve.job", trace, -1)
	handle := b.tr.begin("service.handle", trace, root)
	wait := b.tr.begin("service.queue_wait", trace, handle)
	run := b.tr.begin("service.run", trace, handle)
	if b.tr != nil {
		b.places.Store(job.key, &jobPlace{trace: trace, handle: handle, run: run})
	}
	start := processCPU()
	req, err := http.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(job.body))
	if err != nil {
		b.replies[i] = serveReply{done: true, err: err}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	b.handler.ServeHTTP(rec, req)
	b.tr.end(handle)
	rep := serveReply{done: true, cpu: processCPU() - start}
	b.tr.end(root)

	var st service.JobStatus
	switch {
	case rec.Code != http.StatusOK:
		rep.err = fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	case json.Unmarshal(rec.Body.Bytes(), &st) != nil:
		rep.err = fmt.Errorf("undecodable reply %q", rec.Body.Bytes())
	case st.State != service.StateDone || st.Result == nil:
		rep.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Key != job.key:
		rep.err = fmt.Errorf("job %s has key %s, want %s", st.ID, st.Key, job.key)
	default:
		rep.summary, rep.err = json.Marshal(st.Result)
	}
	if b.tr != nil {
		b.placeServiceSpans(st, wait, run)
	}
	b.replies[i] = rep
}

// placeServiceSpans sets the queue-wait and run spans from the times
// the service reports for the job; a job served from cache has
// neither.
func (b *serveBench) placeServiceSpans(st service.JobStatus, wait, run int) {
	sub, err1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	started, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if st.CacheHit || err1 != nil || err2 != nil || err3 != nil {
		b.tr.drop(wait)
		b.tr.drop(run)
		return
	}
	b.tr.setTimes(wait, sub, started)
	b.tr.setTimes(run, started, fin)
}

// warmUp posts the first serveWarmJobs jobs of the deck through the
// closed loop. Their summaries make the run's results_digest.
func (b *serveBench) warmUp() error {
	b.loop(0, b.size.serveWarmJobs)
	b.next = b.size.serveWarmJobs
	h := sha256.New()
	for i := 0; i < b.next; i++ {
		if err := b.check(i); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		fmt.Fprintf(h, "%s\n%s\n", b.deck[i].key, b.replies[i].summary)
	}
	b.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// loop runs the closed loop: workers clients, each posting the next
// deck job from index from up to to and waiting for its reply.
func (b *serveBench) loop(from, to int) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(int64(from))
	for c := 0; c < b.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				b.post(i)
			}
		}()
	}
	wg.Wait()
}

// serveChunk is how many jobs one measured step posts: a multiple of
// repeatEvery, so every step has the same share of repeats.
const serveChunk = 32 * repeatEvery

// step posts the next serveChunk jobs of the deck and checks them.
func (b *serveBench) step() error {
	defer b.time()()
	to := b.next + serveChunk
	if to > len(b.deck) {
		return fmt.Errorf("the deck of %d jobs ran out", len(b.deck))
	}
	b.loop(b.next, to)
	// Percentiles are taken over the fresh jobs only: they are all the
	// same size (one simulation of the same length), while a repeat is
	// a cache lookup three orders of magnitude shorter.
	for i := b.next; i < to; i++ {
		b.attempted++
		if err := b.check(i); err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "serve job %d failed: %v\n", i, err)
			continue
		}
		b.done++
		if b.deck[i].orig == i {
			b.lat = append(b.lat, b.replies[i].cpu*1e3)
		}
	}
	b.next = to
	return nil
}

func (b *serveBench) enough() bool { return b.attempted >= b.size.serveMinJobs }

func (b *serveBench) report() (outcome, error) {
	if len(b.lat) == 0 {
		return outcome{}, errNoOps
	}
	oc := b.outcome(b.digest)
	if highestPercentile(len(b.lat)) < 99 {
		fmt.Fprintf(os.Stderr, "serve: %d fresh jobs are too few for a p99\n", len(b.lat))
		oc.failed++
	}
	oc.metrics["jobs_per_s"] = metric{float64(b.done) / b.spent, "1/s"}
	oc.metrics["job_p50_ms"] = metric{percentile(b.lat, 50), "ms"}
	oc.metrics["job_p99_ms"] = metric{windowedPercentile(b.lat, 99, p99Window), "ms"}
	return oc, nil
}

// check reports whether job i failed, or repeats an earlier job and
// got a different summary.
func (b *serveBench) check(i int) error {
	r := b.replies[i]
	if r.err != nil {
		return r.err
	}
	if o := b.deck[i].orig; o != i {
		if first := b.replies[o]; first.done && first.err == nil && !bytes.Equal(first.summary, r.summary) {
			return fmt.Errorf("summary differs from job %d's", o)
		}
	}
	return nil
}

// layerCounts reads the cache counters from the service's /metrics
// and hands the fresh jobs' configs to the replays.
func (b *serveBench) layerCounts(in *replayInputs) map[string]metric {
	rec := httptest.NewRecorder()
	b.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	vals := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(name, "#") {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				vals[name] = f
			}
		}
	}
	lookups := vals["mopac_cache_hits_total"] + vals["mopac_cache_misses_total"]
	in.serveCfgs = in.serveCfgs[:0]
	for i, j := range b.deck {
		if j.orig == i && len(in.serveCfgs) < 64 {
			in.serveCfgs = append(in.serveCfgs, j.cfg)
		}
	}
	return map[string]metric{
		"service.cache_hit_ratio": {vals["mopac_cache_hits_total"] / lookups, "ratio"},
		"service.disk_hit_ratio":  {vals["mopac_cache_disk_hits_total"] / lookups, "ratio"},
	}
}

func (b *serveBench) close() {
	// Every client has returned, so the pool is idle and Shutdown
	// returns at once.
	_ = b.srv.Shutdown(context.Background())
	os.RemoveAll(b.dir)
}
