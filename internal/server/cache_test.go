package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/store"
)

// TestConcurrentColdMissesServeOneEntry releases K readers at one cold
// snapshot hash at the same moment. Misses are not coalesced, so each may
// decode; every reader must still get the warm response byte for byte, no
// request may fail, and the cache must end with one entry for the hash —
// the later puts land in put's existing-entry branch, which keeps the first
// result. Run under -race this is also the check that the concurrent
// decode-and-put paths share nothing unsynchronized.
func TestConcurrentColdMissesServeOneEntry(t *testing.T) {
	srv, ts, job := storeServer(t, Config{Workers: 1})
	path := "/v1/snapshots/" + job.SnapshotHash

	const readers = 8
	before := store.Decodes()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	bodies := make([][]byte, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reader %d: status %d: %s", g, resp.StatusCode, body)
				return
			}
			bodies[g] = body
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	decodes := store.Decodes() - before
	if decodes < 1 || decodes > readers {
		t.Errorf("%d cold readers performed %d decodes, want 1..%d", readers, decodes, readers)
	}
	t.Logf("%d cold readers performed %d decodes", readers, decodes)

	// The storm warmed the cache: the warm read decodes nothing, and every
	// cold body is its bytes.
	before = store.Decodes()
	code, warm := getBody(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("warm read = %d", code)
	}
	if got := store.Decodes() - before; got != 0 {
		t.Errorf("warm read performed %d decodes, want 0", got)
	}
	for g, body := range bodies {
		if !bytes.Equal(body, warm) {
			t.Errorf("reader %d's cold body differs from the warm response", g)
		}
	}

	// One entry for the hash, and putting the hash again keeps it.
	cachedRes := func() *core.ServiceResult {
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		if el, ok := srv.cache.entries[job.SnapshotHash]; ok {
			return el.Value.(*cacheEntry).res
		}
		return nil
	}
	cached := cachedRes()
	stats := srv.cache.stats()
	if cached == nil || stats.Entries != 1 {
		t.Fatalf("cache holds %d entries (hash cached: %v), want exactly the one", stats.Entries, cached != nil)
	}
	srv.cache.put(job.SnapshotHash, &core.ServiceResult{}, stats.Bytes)
	if after := srv.cache.stats(); cachedRes() != cached || after.Entries != 1 || after.Bytes != stats.Bytes {
		t.Errorf("a second put of the hash replaced or duplicated its entry: %d entries, %d bytes (was %d)", after.Entries, after.Bytes, stats.Bytes)
	}
}
