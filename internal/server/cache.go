package server

import (
	"bytes"
	"container/list"
	"sync"

	"diffaudit/internal/core"
)

// resultCache is the decoded-snapshot cache: a byte-capped LRU keyed by
// snapshot content hash, shared by the report, snapshot, and diff read
// paths. An entry is the decoded *core.ServiceResult and, once some client
// has asked for the snapshot's JSON export with gzip, that export's gzip
// body. A hit hands back both — zero snapshot decodes, no symbol table
// rebuilt, and for a gzip read of the export no render and no deflate.
//
// An entry is charged its encoded snapshot size (store.Meta.Bytes) plus the
// length of its gzip body: the first is known without measuring the
// decoded graph and tracks it closely enough for a bound, the second is
// exact. Cached results and bodies are shared across requests and must be
// treated as immutable by everyone who reads them — the handlers only
// render from the one and write the other. Both are keyed by content hash,
// so neither is ever invalidated; eviction drops them together.
//
// Concurrent cold misses for one hash each decode and each put; put keeps
// the first entry, so the cache still holds one result per hash. No
// workload misses one hash concurrently often enough for sharing the
// decode to pay for itself. Concurrent first gzip reads likewise each
// compress, and attach keeps the first body.
type resultCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	order    *list.List // front = most recent
	entries  map[string]*list.Element

	hits, misses, evictions uint64
	gzEntries               int
	gzBytes                 int64
}

type cacheEntry struct {
	hash  string
	res   *core.ServiceResult
	bytes int64 // the snapshot's encoded size plus len(gz)
	// gz is the gzip body of res's JSON export (nil until attached), and
	// rawLen that export's length, so an identity read inflates into a
	// buffer of exactly the right size.
	gz     []byte
	rawLen int
}

// newResultCache returns a cache bounded at capacity bytes. A zero or
// negative capacity disables caching (every get misses, put and attach are
// no-ops).
func newResultCache(capacity int64) *resultCache {
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns a copy of the cached entry for a content hash, and whether
// there was one.
func (c *resultCache) get(hash string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		c.misses++
		return cacheEntry{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return *el.Value.(*cacheEntry), true
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
	c.evictLocked()
}

// attach stores a copy of gz, the gzip body of the JSON export of the
// result cached under hash, whose identity length is rawLen, and charges
// the entry its length. It is a no-op when the hash is no longer cached,
// when its entry already has a body, or when the body would make the entry
// larger than the whole capacity.
func (c *resultCache) attach(hash string, gz []byte, rawLen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	size := int64(len(gz))
	if e.gz != nil || e.bytes+size > c.capacity {
		return
	}
	e.gz, e.rawLen = bytes.Clone(gz), rawLen
	e.bytes += size
	c.bytes += size
	c.gzEntries++
	c.gzBytes += size
	c.order.MoveToFront(el)
	c.evictLocked()
}

// evictLocked drops entries from the cold end until the cache fits its
// capacity. The caller holds c.mu.
func (c *resultCache) evictLocked() {
	for c.bytes > c.capacity {
		el := c.order.Back()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.entries, e.hash)
		c.bytes -= e.bytes
		if e.gz != nil {
			c.gzEntries--
			c.gzBytes -= int64(len(e.gz))
		}
		c.evictions++
	}
}

// cacheStats is the /v1/healthz view of the cache. GzipEntries counts the
// entries holding a gzip body and GzipBytes those bodies' share of Bytes.
type cacheStats struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Capacity    int64  `json:"capacity"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	GzipEntries int    `json:"gzip_entries"`
	GzipBytes   int64  `json:"gzip_bytes"`
}

// stats returns a consistent snapshot of the cache counters.
func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:     len(c.entries),
		Bytes:       c.bytes,
		Capacity:    c.capacity,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		GzipEntries: c.gzEntries,
		GzipBytes:   c.gzBytes,
	}
}
