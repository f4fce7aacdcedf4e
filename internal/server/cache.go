package server

import (
	"container/list"
	"sync"

	"diffaudit/internal/core"
)

// resultCache is the decoded-snapshot cache: a byte-capped LRU keyed by
// snapshot content hash, shared by the report, snapshot, and diff read
// paths. A hit hands back the already-materialized *core.ServiceResult —
// zero snapshot decodes, no symbol table rebuilt — which is what turns the warm
// read path from "re-decode per request" into a map lookup.
//
// Entries are charged their encoded snapshot size (store.Meta.Bytes): it
// is known without measuring the decoded graph and tracks it closely
// enough for a bound. Cached results are shared across requests and must
// be treated as immutable by everyone who reads them — the handlers only
// render from them.
//
// Concurrent cold misses for one hash each decode and each put; put keeps
// the first entry, so the cache still holds one result per hash. No
// workload misses one hash concurrently often enough for sharing the
// decode to pay for itself.
type resultCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	order    *list.List // front = most recent
	entries  map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry struct {
	hash  string
	res   *core.ServiceResult
	bytes int64
}

// newResultCache returns a cache bounded at capacity bytes. A zero or
// negative capacity disables caching (every get misses, put is a no-op).
func newResultCache(capacity int64) *resultCache {
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns the cached result for a content hash, or nil.
func (c *resultCache) get(hash string) *core.ServiceResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res
}

// put caches a decoded result under its content hash, charging
// it the encoded snapshot size, and evicts from the cold end until the
// cache fits its capacity again. An entry larger than the whole capacity
// is not cached at all, and a hash already cached keeps its first entry.
func (c *resultCache) put(hash string, res *core.ServiceResult, size int64) {
	if size <= 0 {
		size = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.capacity {
		return
	}
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[hash] = c.order.PushFront(&cacheEntry{hash: hash, res: res, bytes: size})
	c.bytes += size
	for c.bytes > c.capacity {
		el := c.order.Back()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.entries, e.hash)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// cacheStats is the /v1/healthz view of the cache.
type cacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Capacity  int64  `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// stats returns a consistent snapshot of the cache counters.
func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
