package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/report"
	"diffaudit/internal/synth"
)

// TestConcurrentColdMissesServeOneEntry releases K readers at one cold
// snapshot hash at the same moment. Misses are not coalesced, so each may
// decode; every reader must still get the warm response byte for byte, no
// request may fail, and the cache must end with one entry for the hash —
// the later puts land in put's existing-entry branch, which keeps the first
// result. Run under -race this is also the check that the concurrent
// decode-and-put paths share nothing unsynchronized.
func TestConcurrentColdMissesServeOneEntry(t *testing.T) {
	st := newLoadCounter(t)
	srv, ts, job := storeServer(t, Config{Workers: 1, Store: st})
	path := "/v1/snapshots/" + job.SnapshotHash

	const readers = 8
	before := st.loads()
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
	decodes := st.loads() - before
	if decodes < 1 || decodes > readers {
		t.Errorf("%d cold readers performed %d decodes, want 1..%d", readers, decodes, readers)
	}
	t.Logf("%d cold readers performed %d decodes", readers, decodes)

	// The storm warmed the cache: the warm read decodes nothing, and every
	// cold body is its bytes.
	before = st.loads()
	code, warm := getBody(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("warm read = %d", code)
	}
	if got := st.loads() - before; got != 0 {
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

// TestCacheAttachCharges pins attach's bookkeeping: the body is copied and
// charged to its entry, a second body or one for a hash no longer cached is
// ignored, one that would make its entry outgrow the capacity is refused,
// and evicting the entry frees the body's bytes with it.
func TestCacheAttachCharges(t *testing.T) {
	c := newResultCache(100)
	res := &core.ServiceResult{}
	c.put("a", res, 40)
	gz := bytes.Repeat([]byte{1}, 30)
	c.attach("a", gz, 1000)
	gz[0] = 2 // the cache holds a copy
	c.attach("a", make([]byte, 10), 1000)
	c.attach("missing", make([]byte, 10), 1000)
	if s := c.stats(); s.Bytes != 70 || s.GzipEntries != 1 || s.GzipBytes != 30 {
		t.Fatalf("after one attach: %+v; want 70 bytes, one 30-byte body", s)
	}
	e, ok := c.get("a")
	if !ok || e.res != res || e.rawLen != 1000 || !bytes.Equal(e.gz, bytes.Repeat([]byte{1}, 30)) || e.bytes != 70 {
		t.Fatalf("get(a) = %+v, %v; want the result with its 30-byte body of a 1000-byte export", e, ok)
	}

	// b pushes the cache past its capacity: a, the colder entry, goes and
	// takes its body with it.
	c.put("b", res, 40)
	c.put("c", res, 40)
	if s := c.stats(); s.Entries != 2 || s.Bytes != 80 || s.GzipEntries != 0 || s.GzipBytes != 0 || s.Evictions != 1 {
		t.Fatalf("after evicting a: %+v; want b and c, 80 bytes, no body", s)
	}
	// A body that would make c larger than the whole cache is not kept.
	c.attach("c", make([]byte, 61), 1000)
	if s := c.stats(); s.Bytes != 80 || s.GzipEntries != 0 {
		t.Fatalf("an oversized body was attached: %+v", s)
	}
	if e, _ := c.get("c"); e.gz != nil {
		t.Fatal("an oversized body was attached to c")
	}
}

// TestGzipBodyAttached follows one stored snapshot through the cache:
// identity reads never attach a body; the first gzip read attaches the
// default-level gzip of the export and charges it to the entry; later gzip
// reads of either route write the attached bytes as they are, and identity
// reads inflate them to the export — with the same ETags, no decode, and
// healthz reporting the body.
func TestGzipBodyAttached(t *testing.T) {
	svc := synth.Generate(synth.Config{Scale: 0.002}).Services[0]
	res := core.NewPipeline().AnalyzeRecords(svc.Identity(), svc.Records())
	st := newLoadCounter(t)
	meta, err := st.Put("job-7", res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.ExportJSON([]*core.ServiceResult{res})
	if err != nil {
		t.Fatal(err)
	}
	wantGz := referenceGzip(t, want)
	srv := newServer(t, Config{Store: st})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	snapshot, reportJSON := "/v1/snapshots/"+meta.Hash, "/v1/jobs/job-7/report.json"
	etags := map[string]string{snapshot: `"` + meta.Hash + `"`, reportJSON: `"` + meta.Hash + `"`}
	read := func(path, enc string, want []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", enc)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s (%s): status %d, err %v", path, enc, resp.StatusCode, err)
		}
		if !bytes.Equal(body, want) || resp.ContentLength != int64(len(want)) {
			t.Errorf("%s (%s): %d bytes, Content-Length %d; want the %d-byte body", path, enc, len(body), resp.ContentLength, len(want))
		}
		if etag := resp.Header.Get("ETag"); etag != etags[path] {
			t.Errorf("%s (%s): ETag %s, want %s", path, enc, etag, etags[path])
		}
	}

	for i := 0; i < 2; i++ {
		read(snapshot, "identity", want)
		read(reportJSON, "identity", want)
	}
	if s := srv.cache.stats(); s.Entries != 1 || s.Bytes != int64(meta.Bytes) || s.GzipEntries != 0 || s.GzipBytes != 0 {
		t.Fatalf("after identity reads the cache is %+v; want one entry of %d bytes and no gzip body", s, meta.Bytes)
	}

	read(reportJSON, "gzip", wantGz)
	if s := srv.cache.stats(); s.GzipEntries != 1 || s.GzipBytes != int64(len(wantGz)) || s.Bytes != int64(meta.Bytes)+int64(len(wantGz)) {
		t.Fatalf("after a gzip read the cache is %+v; want one %d-byte body charged on top of %d", s, len(wantGz), meta.Bytes)
	}

	before := st.loads()
	read(snapshot, "gzip", wantGz)
	read(snapshot, "identity", want)
	read(reportJSON, "identity", want)
	if d := st.loads() - before; d != 0 {
		t.Errorf("warm reads performed %d decodes", d)
	}

	// A hit serves the attached body and neither renders nor compresses:
	// swap in the best-speed gzip of a marked copy of the export, and the
	// next gzip read sends those bytes and the next identity read the
	// marked copy.
	marked := bytes.Clone(want)
	marked[0] = '['
	var probe bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&probe, gzip.BestSpeed)
	zw.Write(marked)
	zw.Close()
	srv.cache.mu.Lock()
	srv.cache.entries[meta.Hash].Value.(*cacheEntry).gz = probe.Bytes()
	srv.cache.mu.Unlock()
	read(snapshot, "gzip", probe.Bytes())
	read(snapshot, "identity", marked)

	code, body := getBody(t, ts, "/v1/healthz")
	var health struct {
		Cache map[string]any `json:"cache"`
	}
	if err := json.Unmarshal(body, &health); code != http.StatusOK || err != nil {
		t.Fatalf("healthz = %d, %v", code, err)
	}
	if health.Cache["gzip_entries"] != 1.0 || health.Cache["gzip_bytes"] != float64(len(wantGz)) {
		t.Errorf("healthz cache = %v; want gzip_entries 1, gzip_bytes %d", health.Cache, len(wantGz))
	}
}
