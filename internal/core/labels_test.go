package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"diffaudit/internal/classifier"
	"diffaudit/internal/flows"
)

// shardKeys returns n distinct data-type-like keys that all fall in shard 0
// of the label cache.
func shardKeys(n int) []string {
	bases := []string{"user_id", "gps_lat", "email", "device_model", "age", "birthday", "advertising_id", "city"}
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("%s_%d", bases[i%len(bases)], i); labelShardIndex(k) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestLabelCacheBounded feeds one shard three times its cap of distinct
// keys, twice over. The shard never holds more than labelShardCap entries
// — so the cache never more than labelShardCount × labelShardCap — a key
// over maxCachedKeyBytes is never stored, every answer, first sight or
// after its entry was cleared, is the labeler's own, and every stored key
// is a copy: the keys fed are cut from one string the cache must not pin.
func TestLabelCacheBounded(t *testing.T) {
	labeler := classifier.FinalLabeler()
	c := newLabelCache(labeler)
	src := strings.Join(append(shardKeys(3*labelShardCap), "user_"+strings.Repeat("x", maxCachedKeyBytes)), "&")
	keys := strings.Split(src, "&")
	want := make([]cachedLabel, len(keys))
	for i, k := range keys {
		if cat, _, ok := labeler.Label(k); ok {
			want[i].id, want[i].ok = flows.CategoryID(cat)
		}
	}
	classified := 0
	for pass := 0; pass < 2; pass++ {
		for i, k := range keys {
			id, ok, fresh := c.label(k)
			if fresh {
				classified++
			}
			if (cachedLabel{id, ok}) != want[i] {
				t.Fatalf("pass %d key %q: label (%v, %v), labeler says (%v, %v)", pass, k, id, ok, want[i].id, want[i].ok)
			}
			if n := len(c.shards[0].entries); n > labelShardCap {
				t.Fatalf("pass %d: shard holds %d entries, cap %d", pass, n, labelShardCap)
			}
		}
	}
	if n := len(c.StoredKeys()); n > labelShardCount*labelShardCap {
		t.Fatalf("cache holds %d entries, cap %d", n, labelShardCount*labelShardCap)
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	for _, k := range c.StoredKeys() {
		if len(k) > maxCachedKeyBytes {
			t.Fatalf("cache stores a %d-byte key", len(k))
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(k))); p >= base && p < base+uintptr(len(src)) {
			t.Fatalf("stored key %q points into the string it was cut from", k)
		}
	}
	// Every clear drops what the second pass needs again: it classifies
	// more than none, and the long key is classified on every sight.
	if classified <= len(keys)+1 {
		t.Errorf("%d classifications over two passes of %d keys: the shard was never cleared", classified, len(keys))
	}
}

// TestAuditsThroughClearedCacheMatchFresh audits records that carry more
// distinct keys than a shard holds, three times through one pipeline —
// its cache clearing shard 0 again and again — and requires every result
// to equal a fresh pipeline's.
func TestAuditsThroughClearedCacheMatchFresh(t *testing.T) {
	keys := shardKeys(3 * labelShardCap)
	var recs []RequestRecord
	for len(keys) > 0 {
		n := min(64, len(keys))
		var q []string
		for _, k := range keys[:n] {
			q = append(q, k+"=v")
		}
		keys = keys[n:]
		recs = append(recs, RequestRecord{Trace: flows.Child, Platform: flows.Web, Method: "GET",
			URL: "https://api.quizlet.com/x?" + strings.Join(q, "&"), FQDN: "api.quizlet.com", ConnID: "c"})
	}
	id := ServiceIdentity{Name: "Quizlet", Owner: "Quizlet Inc", FirstPartyESLDs: []string{"quizlet.com"}}
	fresh := NewPipeline().AnalyzeRecords(id, recs)
	want := renderResultArtifacts(fresh)
	shared := NewPipeline()
	for run := 0; run < 3; run++ {
		got := shared.AnalyzeRecords(id, recs)
		if renderResultArtifacts(got) != want || got.DroppedKeys != fresh.DroppedKeys || len(got.RawKeys) != len(fresh.RawKeys) {
			t.Fatalf("run %d through a cleared cache differs from a fresh pipeline's", run)
		}
		if n := len(shared.labels.shards[0].entries); n > labelShardCap {
			t.Fatalf("run %d: shard holds %d entries, cap %d", run, n, labelShardCap)
		}
	}
}
