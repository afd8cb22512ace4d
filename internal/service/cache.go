package service

import (
	"container/list"
	"encoding/json"
	"sync"
	"sync/atomic"

	"mopac/internal/sim"
)

// DiskStore is the optional persistent tier behind the in-memory LRU:
// the same content-addressed byte store the experiment planner uses
// (internal/store), kept as an interface so the service carries no I/O
// dependency. Both tiers share one key space — the canonical
// sim.Config hash from package runkey — and hold run summaries under
// StoreSchema, so a summary saved by this server or by an earlier
// server process serves any of them. The planner's full results live
// in their own schema and are never read here.
type DiskStore interface {
	Load(key string) ([]byte, bool)
	Save(key string, data []byte) error
}

// StoreSchema names the service's persisted record type (run
// summaries), namespaced apart from the planner's full-result records
// under the same store directory.
const StoreSchema = "summary-v1"

// Cache is a bounded LRU of finished run summaries keyed by the
// canonical sim.Config hash, optionally backed by a persistent disk
// tier. Seeded runs are deterministic, so a key fully identifies its
// result and entries never go stale; the LRU bound only caps memory,
// and an LRU eviction costs a disk read rather than a re-simulation.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	disk    DiskStore

	hits       atomic.Int64
	misses     atomic.Int64
	diskHits   atomic.Int64
	diskErrors atomic.Int64
}

type cacheEntry struct {
	key     string
	summary sim.ResultSummary
}

// NewCache returns a cache holding up to max entries (max <= 0 selects
// 256).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 256
	}
	return &Cache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// SetDisk attaches the persistent tier. Call before the cache is
// shared across goroutines.
func (c *Cache) SetDisk(d DiskStore) {
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
}

// Get returns the cached summary for key, recording a hit or miss.
// Memory misses fall through to the disk tier; a disk hit is promoted
// back into the LRU. Disk I/O happens outside the LRU lock, so a slow
// disk never stalls memory-tier lookups.
func (c *Cache) Get(key string) (sim.ResultSummary, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		summary := el.Value.(*cacheEntry).summary
		c.mu.Unlock()
		c.hits.Add(1)
		return summary, true
	}
	d := c.disk
	c.mu.Unlock()
	if d != nil {
		if data, ok := d.Load(key); ok {
			var summary sim.ResultSummary
			// The store already rejects corrupt envelopes; the TimeNs
			// check guards against a valid envelope holding a record of
			// the wrong shape.
			if json.Unmarshal(data, &summary) == nil && summary.TimeNs > 0 {
				c.putMemory(key, summary)
				c.hits.Add(1)
				c.diskHits.Add(1)
				return summary, true
			}
		}
	}
	c.misses.Add(1)
	return sim.ResultSummary{}, false
}

// Put stores a summary in both tiers. Disk write failures are counted,
// never surfaced: losing persistence costs a future recompute, not the
// current response.
func (c *Cache) Put(key string, summary sim.ResultSummary) {
	c.putMemory(key, summary)
	c.mu.Lock()
	d := c.disk
	c.mu.Unlock()
	if d == nil {
		return
	}
	data, err := json.Marshal(summary)
	if err != nil {
		c.diskErrors.Add(1)
		return
	}
	if err := d.Save(key, data); err != nil {
		c.diskErrors.Add(1)
	}
}

// putMemory inserts into the LRU tier, evicting the least recently
// used entry when full.
func (c *Cache) putMemory(key string, summary sim.ResultSummary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).summary = summary
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, summary: summary})
	if c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Hits returns the number of cache hits so far.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cache misses so far.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// DiskHits returns the number of gets served from the disk tier.
func (c *Cache) DiskHits() int64 { return c.diskHits.Load() }

// DiskErrors returns the number of failed disk-tier writes.
func (c *Cache) DiskErrors() int64 { return c.diskErrors.Load() }
