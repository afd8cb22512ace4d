package main

import (
	"sort"
	"sync"
	"sync/atomic"

	"mopac/internal/store"
)

// storeCounts tallies store calls, possibly across several stores.
type storeCounts struct {
	loads, hits, saves atomic.Int64
}

// countingStore wraps a store.Store as both sim.ResultStore and
// service.DiskStore. It counts loads, load hits and saves into counts,
// remembers the keys saved, and, in a traced run, records a span
// around every call. place maps an op name and key to the trace and
// parent span the call belongs to.
type countingStore struct {
	inner  *store.Store
	tr     *tracer
	place  func(op, key string) (trace, parent int)
	counts *storeCounts

	mu    sync.Mutex
	saved []string
}

func openCountingStore(dir, schema string, e env, place func(op, key string) (int, int)) (*countingStore, error) {
	st, err := store.Open(dir, schema, "bench")
	if err != nil {
		return nil, err
	}
	counts := e.stores
	if counts == nil {
		counts = &storeCounts{}
	}
	return &countingStore{inner: st, tr: e.tr, place: place, counts: counts}, nil
}

func (s *countingStore) span(name, key string) int {
	if s.tr == nil {
		return -1
	}
	trace, parent := 0, -1
	if s.place != nil {
		trace, parent = s.place(name, key)
	}
	return s.tr.begin(name, trace, parent)
}

// Load implements sim.ResultStore and service.DiskStore.
func (s *countingStore) Load(key string) ([]byte, bool) {
	id := s.span("store.load", key)
	data, ok := s.inner.Load(key)
	s.tr.end(id)
	s.counts.loads.Add(1)
	if ok {
		s.counts.hits.Add(1)
	}
	return data, ok
}

// Save implements sim.ResultStore and service.DiskStore.
func (s *countingStore) Save(key string, data []byte) error {
	id := s.span("store.save", key)
	err := s.inner.Save(key, data)
	s.tr.end(id)
	s.counts.saves.Add(1)
	if err == nil {
		s.mu.Lock()
		s.saved = append(s.saved, key)
		s.mu.Unlock()
	}
	return err
}

// savedKeys returns the distinct keys saved so far, sorted.
func (s *countingStore) savedKeys() []string {
	s.mu.Lock()
	keys := append([]string(nil), s.saved...)
	s.mu.Unlock()
	sort.Strings(keys)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}
