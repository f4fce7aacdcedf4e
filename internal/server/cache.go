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
// The cache also owns the decode singleflight: concurrent cold misses
// for the same content hash share one decode instead of performing K. The
// first caller to miss becomes the flight's leader and decodes; everyone
// else who arrives before the leader finishes blocks on the flight and
// shares its outcome — result, staleness flag, and error alike. The
// singleflight works even when caching is disabled (capacity <= 0):
// deduplicating the decodes in flight requires no retention policy.
type resultCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	order    *list.List // front = most recent
	entries  map[string]*list.Element
	inflight map[string]*decodeFlight

	hits, misses, evictions, coalesced uint64
}

// decodeFlight is one in-progress decode. The leader fills res/stale/err
// and then closes done; waiters read the fields only after done closes.
type decodeFlight struct {
	done  chan struct{}
	res   *core.ServiceResult
	stale bool
	err   error
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
		inflight: make(map[string]*decodeFlight),
	}
}

// join enters the singleflight for key: the first caller gets (flight,
// true) and must decode and then finish; later callers get (flight,
// false) and wait on flight.done. Each coalesced waiter bumps the
// coalesced counter — the healthz number that says how many decodes the
// singleflight saved.
func (c *resultCache) join(key string) (*decodeFlight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.inflight[key]; ok {
		c.coalesced++
		return f, false
	}
	f := &decodeFlight{done: make(chan struct{})}
	c.inflight[key] = f
	return f, true
}

// finish publishes the leader's outcome to every waiter and retires the
// flight. Later requests for the key start fresh (normally hitting the
// cache the leader just populated).
func (c *resultCache) finish(key string, f *decodeFlight, res *core.ServiceResult, stale bool, err error) {
	f.res, f.stale, f.err = res, stale, err
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
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

// peek returns the cached result for a content hash, or nil, without
// counting a hit or miss and without touching the eviction order: the
// scrubber's look must not pass for client traffic.
func (c *resultCache) peek(hash string) *core.ServiceResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		return el.Value.(*cacheEntry).res
	}
	return nil
}

// put caches a decoded result under its content hash, charging
// it the encoded snapshot size, and evicts from the cold end until the
// cache fits its capacity again. An entry larger than the whole capacity
// is not cached at all.
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
	// Coalesced counts requests that joined another request's in-flight
	// decode instead of decoding themselves.
	Coalesced uint64 `json:"coalesced"`
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
		Coalesced: c.coalesced,
	}
}
