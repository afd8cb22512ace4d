package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the cross-figure experiment planner. Figure and table
// runners no longer execute simulations themselves: they *declare* the
// configs they need (Need), the planner dedupes the union by canonical
// config hash — the same content-addressed key the service cache and
// the on-disk store use, derived once in package runkey — and one
// global worker pool executes the unique set (Flush), staying
// saturated across figure boundaries instead of paying a straggler
// tail per sweep. Results are memoized in memory and, when a
// ResultStore is attached, persisted on disk, so identical configs run
// once per machine rather than once per figure per invocation, warm
// re-runs execute zero simulations, and an interrupted run resumes
// where it stopped. Configs whose guards cannot change timing until
// they alert share one simulation of their guardless twin (share.go).

// ResultStore is the persistence hook behind the planner's in-memory
// memo: a content-addressed byte store (implemented by internal/store,
// kept as an interface here so sim depends on no I/O package). Load
// misses are recomputed, so implementations are free to drop or refuse
// entries; Save errors are tolerated and only counted.
type ResultStore interface {
	Load(key string) ([]byte, bool)
	Save(key string, data []byte) error
}

// StoreSchema names the planner's persisted record type. It is part of
// the on-disk namespace: bump it (alongside hashVersion, if the key
// encoding changed) when the Result encoding changes shape.
const StoreSchema = "result-v1"

// PlanStats reports what a planner did, for dedup-observability in the
// CLI and the warm-run assertions in CI.
type PlanStats struct {
	// Requested counts every Need call — the naive
	// label × workload × figure sum a sweep-per-figure runner would
	// simulate.
	Requested int64
	// Unique is the number of distinct configs after cross-figure dedup.
	Unique int64
	// Executed is the number of results simulated this process: a
	// shared run counts once per rider, and its twin only when the twin
	// itself was declared (it then rides its own run).
	Executed int64
	// Shared counts the riders whose result came from a shared run.
	Shared int64
	// Rerun counts the riders that diverged and were simulated again on
	// their own.
	Rerun int64
	// StoreHits is the number of results served from the on-disk store.
	StoreHits int64
	// StoreErrors counts failed store writes (disk full, permissions);
	// they cost persistence, never correctness.
	StoreErrors int64
}

// planEntry is one unique config's slot: done closes when the result
// (or a terminal error) is available. res holds figure-run results,
// att attack-evaluation results; which one is live follows from the
// map (byKey vs byAttack) the entry's key was declared through.
type planEntry struct {
	done chan struct{}
	res  Result
	att  AttackResult
	err  error
}

// Planner dedupes and executes declared configs. Safe for concurrent
// use: Need and Flush may be called from multiple goroutines, and Get
// blocks until the requested entry's flush completes.
type Planner struct {
	workers     int
	store       ResultStore
	attackStore ResultStore

	mu       sync.Mutex
	entries  map[string]*planEntry
	pending  []string // keys declared but not yet grabbed by a Flush
	byKey    map[string]Config
	byAttack map[string]AttackConfig
	progress func(done, total int)

	requested   atomic.Int64
	completed   atomic.Int64
	executed    atomic.Int64
	shared      atomic.Int64
	rerun       atomic.Int64
	storeHits   atomic.Int64
	storeErrors atomic.Int64
}

// NewPlanner returns a planner whose Flush runs up to workers
// simulations concurrently (<= 0 selects GOMAXPROCS; each simulation
// is single-threaded and CPU-bound).
func NewPlanner(workers int) *Planner {
	return &Planner{
		workers:  workers,
		entries:  make(map[string]*planEntry),
		byKey:    make(map[string]Config),
		byAttack: make(map[string]AttackConfig),
	}
}

// SetStore attaches the persistent result tier. Call before the first
// Flush.
func (p *Planner) SetStore(s ResultStore) {
	p.mu.Lock()
	p.store = s
	p.mu.Unlock()
}

// SetAttackStore attaches the persistent tier for attack evaluations
// (schema AttackStoreSchema — a separate namespace from figure-run
// results, since the record shapes differ). Call before the first
// Flush.
func (p *Planner) SetAttackStore(s ResultStore) {
	p.mu.Lock()
	p.attackStore = s
	p.mu.Unlock()
}

// SetProgress installs a completion callback: fn(done, total) fires
// after every finished config with the number of completed and
// declared unique configs. Calls arrive from worker goroutines.
func (p *Planner) SetProgress(fn func(done, total int)) {
	p.mu.Lock()
	p.progress = fn
	p.mu.Unlock()
}

// Stats snapshots the planner's counters.
func (p *Planner) Stats() PlanStats {
	p.mu.Lock()
	unique := int64(len(p.entries))
	p.mu.Unlock()
	return PlanStats{
		Requested:   p.requested.Load(),
		Unique:      unique,
		Executed:    p.executed.Load(),
		Shared:      p.shared.Load(),
		Rerun:       p.rerun.Load(),
		StoreHits:   p.storeHits.Load(),
		StoreErrors: p.storeErrors.Load(),
	}
}

// Need declares that cfg's result will be wanted and returns its
// canonical key. The config must be fully resolved (scale applied);
// duplicate declarations are free — that is the point.
func (p *Planner) Need(cfg Config) string {
	key := cfg.Hash()
	p.requested.Add(1)
	p.mu.Lock()
	if _, known := p.entries[key]; !known {
		p.entries[key] = &planEntry{done: make(chan struct{})}
		p.byKey[key] = cfg
		p.pending = append(p.pending, key)
	}
	p.mu.Unlock()
	return key
}

// NeedAttack declares an attack-candidate evaluation and returns its
// canonical key. Attack jobs share the planner's worker pool, dedup
// map, and progress accounting with figure runs; duplicate candidates
// (the search revisiting a knob point) cost nothing.
func (p *Planner) NeedAttack(a AttackConfig) string {
	key := a.Hash()
	p.requested.Add(1)
	p.mu.Lock()
	if _, known := p.entries[key]; !known {
		p.entries[key] = &planEntry{done: make(chan struct{})}
		p.byAttack[key] = a
		p.pending = append(p.pending, key)
	}
	p.mu.Unlock()
	return key
}

// planItem is one unit of Flush work: the solo run or attack
// evaluation of its one key, or a shared run, in which two or more keys
// ride one simulation of twin (the twin's own key among them when it
// was declared).
type planItem struct {
	twin Config
	keys []string
}

// Flush executes every pending declared config on the worker pool and
// returns the first failure, if any. Results the store holds are
// served first; the store misses that may ride a run of their
// guardless twin are grouped by twin, and each group of two or more
// runs as one shared simulation, whose diverged riders are queued again
// as solo runs. On failure the remaining work is cancelled — queued
// configs are skipped and in-flight simulations are aborted through
// their run context — so a broken sweep fails fast instead of
// simulating to completion. Configs declared by other goroutines
// mid-flush are picked up by their own Flush.
func (p *Planner) Flush() error {
	p.mu.Lock()
	keys := p.pending
	p.pending = nil
	store := p.store
	attackStore := p.attackStore
	p.mu.Unlock()

	items := p.partition(store, keys)
	if len(items) == 0 {
		return nil
	}
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(keys))

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel(err)
	}

	// Every key is queued at most twice: once in its first item, and
	// once more as a diverged rider.
	queue := make(chan *planItem, len(items)+len(keys))
	var open sync.WaitGroup // items queued but not yet done
	open.Add(len(items))
	for _, it := range items {
		queue <- it
	}
	go func() {
		open.Wait()
		close(queue)
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				var rerun []string
				if len(it.keys) == 1 {
					p.runItem(ctx, store, attackStore, it.keys[0], fail)
				} else {
					rerun = p.runShared(ctx, store, it, fail)
				}
				open.Add(len(rerun))
				for _, key := range rerun {
					queue <- &planItem{keys: []string{key}}
				}
				open.Done()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// partition serves what the store holds and turns the rest of keys
// into work items, in declaration order: attack evaluations and
// configs that cannot ride run solo, and the riders of one twin join
// one item, placed where the first of them was declared.
func (p *Planner) partition(store ResultStore, keys []string) []*planItem {
	var items []*planItem
	byTwin := make(map[string]*planItem)
	for _, key := range keys {
		p.mu.Lock()
		cfg, isRun := p.byKey[key]
		entry := p.entries[key]
		p.mu.Unlock()
		if !isRun {
			items = append(items, &planItem{keys: []string{key}})
			continue
		}
		if storable(store, cfg) {
			// A record that decodes but is implausible (schema drift
			// inside a valid envelope) is recomputed and overwritten.
			if data, ok := store.Load(key); ok {
				if res, ok := decodeResult(data, key); ok {
					p.storeHits.Add(1)
					entry.res = res
					p.finish(entry)
					continue
				}
			}
		}
		if !canRide(cfg) {
			items = append(items, &planItem{keys: []string{key}})
			continue
		}
		twin := twinOf(cfg)
		tk := twin.Hash()
		it := byTwin[tk]
		if it == nil {
			it = &planItem{twin: twin}
			byTwin[tk] = it
			items = append(items, it)
		}
		it.keys = append(it.keys, key)
	}
	return items
}

// runItem produces the result of one attack evaluation or solo run.
func (p *Planner) runItem(ctx context.Context, store, attackStore ResultStore, key string, fail func(error)) {
	p.mu.Lock()
	cfg, isRun := p.byKey[key]
	acfg := p.byAttack[key]
	entry := p.entries[key]
	p.mu.Unlock()
	if ctx.Err() != nil {
		// Fail-fast drain: everything after the first error is
		// skipped, not simulated.
		entry.err = fmt.Errorf("sim: plan aborted: %w", context.Cause(ctx))
		p.finish(entry)
		return
	}
	if !isRun {
		// Attack evaluations record failures per candidate (the
		// search treats them as data) instead of aborting the
		// whole flush.
		att, err := p.runAttackOne(ctx, attackStore, key, acfg)
		if err != nil {
			entry.err = fmt.Errorf("attack %s on %s: %w", acfg.Spec, acfg.Base.Design, err)
		} else {
			entry.att = att
		}
		p.finish(entry)
		return
	}
	// The store tier was consulted when the flush began.
	sys, err := NewSystem(cfg)
	var res Result
	if err == nil {
		res, err = sys.RunContext(ctx, 0)
		sys.Release()
	}
	if err != nil {
		entry.err = runError(cfg, err)
		p.finish(entry)
		fail(entry.err)
		return
	}
	p.executed.Add(1)
	p.save(store, key, res)
	entry.res = res
	p.finish(entry)
}

// runShared runs a shared item and returns the riders that diverged,
// for the caller to queue as solo runs.
func (p *Planner) runShared(ctx context.Context, store ResultStore, it *planItem, fail func(error)) (rerun []string) {
	p.mu.Lock()
	members := make([]Config, len(it.keys))
	entries := make([]*planEntry, len(it.keys))
	for i, key := range it.keys {
		members[i], entries[i] = p.byKey[key], p.entries[key]
	}
	p.mu.Unlock()

	var (
		res  []Result
		rode []bool
		err  = context.Cause(ctx)
	)
	if err != nil {
		err = fmt.Errorf("sim: plan aborted: %w", err)
	} else {
		res, rode, err = rideTwin(ctx, it.twin, members)
	}
	if err != nil {
		for i, entry := range entries {
			entry.err = runError(members[i], err)
			p.finish(entry)
		}
		fail(entries[0].err)
		return nil
	}
	for i, key := range it.keys {
		if !rode[i] {
			p.rerun.Add(1)
			rerun = append(rerun, key)
			continue
		}
		p.executed.Add(1)
		p.shared.Add(1)
		p.save(store, key, res[i])
		entries[i].res = res[i]
		p.finish(entries[i])
	}
	return rerun
}

// runError labels a failed run with its config.
func runError(cfg Config, err error) error {
	return fmt.Errorf("%s/%s (trh %d): %w", cfg.Design, cfg.Workload, cfg.TRH, err)
}

// finish publishes an entry and fires the progress callback.
func (p *Planner) finish(entry *planEntry) {
	close(entry.done)
	done := int(p.completed.Add(1))
	p.mu.Lock()
	total := len(p.entries)
	fn := p.progress
	p.mu.Unlock()
	if fn != nil {
		fn(done, total)
	}
}

// storable reports whether cfg's result goes through the store.
// Oracle-tracking runs bypass it — oracle state does not survive
// serialisation, and serving a security verdict without it would
// silently report "insecure" — and so do command-logging runs.
func storable(store ResultStore, cfg Config) bool {
	return store != nil && !cfg.TrackSecurity && cfg.CommandLogDepth == 0
}

// save persists a simulated result when its config is storable.
func (p *Planner) save(store ResultStore, key string, res Result) {
	if !storable(store, res.Config) {
		return
	}
	data, err := json.Marshal(res)
	if err == nil {
		err = store.Save(key, data)
	}
	if err != nil {
		p.storeErrors.Add(1)
	}
}

// attackRecord is the persisted form of one attack evaluation: the
// config rides along so Load can re-derive the key and reject records
// that do not describe the candidate they were filed under.
type attackRecord struct {
	Config AttackConfig `json:"config"`
	Result AttackResult `json:"result"`
}

// runAttackOne produces one attack candidate's result: store tier
// first, then a real evaluation (persisted back on success). Attack
// runs always carry the oracle, but unlike figure runs their result
// type serialises completely, so they are store-eligible.
func (p *Planner) runAttackOne(ctx context.Context, store ResultStore, key string, a AttackConfig) (AttackResult, error) {
	if store != nil {
		if data, ok := store.Load(key); ok {
			var rec attackRecord
			if err := json.Unmarshal(data, &rec); err == nil &&
				rec.Result.TimeNs > 0 && rec.Config.Hash() == key {
				p.storeHits.Add(1)
				return rec.Result, nil
			}
		}
	}
	att, err := RunAttack(ctx, a)
	if err != nil {
		return AttackResult{}, err
	}
	p.executed.Add(1)
	if store != nil {
		if data, err := json.Marshal(attackRecord{Config: a.normalized(), Result: att}); err == nil {
			if err := store.Save(key, data); err != nil {
				p.storeErrors.Add(1)
			}
		} else {
			p.storeErrors.Add(1)
		}
	}
	return att, nil
}

// GetAttack returns the result of a declared attack candidate,
// blocking until the Flush that owns it completes.
func (p *Planner) GetAttack(a AttackConfig) (AttackResult, error) {
	key := a.Hash()
	p.mu.Lock()
	entry := p.entries[key]
	p.mu.Unlock()
	if entry == nil {
		return AttackResult{}, fmt.Errorf("sim: attack candidate %s was never declared to the planner", a.Spec)
	}
	<-entry.done
	return entry.att, entry.err
}

// decodeResult validates a persisted record: it must unmarshal, look
// like a finished run, and — the load-bearing check — hash back to the
// key it was stored under, so a record can never answer for a config
// it does not describe.
func decodeResult(data []byte, key string) (Result, bool) {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return Result{}, false
	}
	if res.TimeNs <= 0 || res.Config.Hash() != key {
		return Result{}, false
	}
	return res, true
}

// DecodeStoredResult validates a persisted planner record (schema
// StoreSchema) for callers outside the planner, such as the batch
// runner sharing the planner's store namespace.
func DecodeStoredResult(data []byte, key string) (Result, bool) {
	return decodeResult(data, key)
}

// Get returns the result for cfg, blocking until the Flush that owns
// it completes. Calling Get for a config that was never declared is a
// programming error and is reported as one.
func (p *Planner) Get(cfg Config) (Result, error) {
	key := cfg.Hash()
	p.mu.Lock()
	entry := p.entries[key]
	p.mu.Unlock()
	if entry == nil {
		return Result{}, fmt.Errorf("sim: config %s/%s was never declared to the planner", cfg.Design, cfg.Workload)
	}
	<-entry.done
	return entry.res, entry.err
}
