package core

import (
	"strings"
	"sync"

	"diffaudit/internal/classifier"
	"diffaudit/internal/flows"
)

// labelCache classifies raw keys through one labeler and remembers the
// answers. A label is a pure function of its key (the classifier is
// deterministic in key and ensemble seed), so every audit of a pipeline
// shares its cache: an audit server keeps one pipeline for its whole life,
// and every job classifies through it.
//
// The cache is FNV-sharded so concurrent workers hit disjoint locks, with
// per-key singleflight so concurrent askers for one key wait on one
// classification. It is bounded by constants: a shard holding
// labelShardCap entries is cleared before it takes another, and a key
// longer than maxCachedKeyBytes is classified but never stored. A stored
// label never changes; a dropped one is recomputed to the same label.
type labelCache struct {
	labeler *classifier.ThresholdLabeler
	shards  [labelShardCount]labelShard
}

// labelShardCount is the number of label-cache shards. 64 comfortably
// exceeds any plausible worker count, making lock collisions rare.
const labelShardCount = 64

// labelShardCap bounds one shard's entries, so the cache never holds more
// than labelShardCount × labelShardCap = 32 768 keys — eight times the
// 3 968 distinct data types the paper finds in 440K requests.
const labelShardCap = 512

// maxCachedKeyBytes is the longest key the cache stores. Data type keys
// are short identifiers; a longer one is classified on every sight, so no
// upload can fill the cache with large keys. Together with labelShardCap
// it bounds the keys a cache holds to 8 MiB.
const maxCachedKeyBytes = 256

type labelShard struct {
	mu       sync.Mutex
	entries  map[string]cachedLabel
	inflight map[string]*labelCall
}

type cachedLabel struct {
	// id is the category's ontology ID, resolved once at classification
	// time so the flow-accumulation inner loop never touches strings.
	id flows.CatID
	ok bool
}

// labelCall is one in-flight classification other workers can wait on.
type labelCall struct {
	done chan struct{}
	cachedLabel
}

// newLabelCache returns an empty cache over the labeler.
func newLabelCache(l *classifier.ThresholdLabeler) *labelCache {
	return &labelCache{labeler: l}
}

// labelShardIndex is FNV-1a over the key, inlined to keep the cache-hit
// path allocation-free.
func labelShardIndex(key string) int {
	const (
		fnvOffset32 = 2166136261
		fnvPrime32  = 16777619
	)
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return int(h % labelShardCount)
}

// label returns the key's category ID, and false when the key is dropped:
// below the confidence threshold, or labelled outside the ontology — a
// hallucinated label, which the paper drops too. classified reports
// whether this call ran the classifier; a key found in the cache, or
// classified meanwhile by a concurrent caller, was reused.
//
// The stored key is a copy: the caller's may be a substring of a record's
// URL or body, which the cache would otherwise pin for its whole life.
func (c *labelCache) label(key string) (id flows.CatID, ok, classified bool) {
	sh := &c.shards[labelShardIndex(key)]
	sh.mu.Lock()
	if e, hit := sh.entries[key]; hit {
		sh.mu.Unlock()
		return e.id, e.ok, false
	}
	if call, waiting := sh.inflight[key]; waiting {
		sh.mu.Unlock()
		<-call.done
		return call.id, call.ok, false
	}
	if sh.entries == nil {
		sh.entries = make(map[string]cachedLabel)
		sh.inflight = make(map[string]*labelCall)
	}
	call := &labelCall{done: make(chan struct{})}
	sh.inflight[key] = call
	sh.mu.Unlock()

	if cat, _, ok := c.labeler.Label(key); ok {
		call.id, call.ok = flows.CategoryID(cat)
	}
	close(call.done)

	sh.mu.Lock()
	if len(key) <= maxCachedKeyBytes {
		if len(sh.entries) >= labelShardCap {
			clear(sh.entries)
		}
		sh.entries[strings.Clone(key)] = call.cachedLabel
	}
	delete(sh.inflight, key)
	sh.mu.Unlock()
	return call.id, call.ok, true
}
