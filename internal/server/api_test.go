package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/report"
	"diffaudit/internal/store"
)

// get performs a GET and returns the full response (caller closes Body).
func get(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getWithHeader is get with one request header set.
func getWithHeader(t *testing.T, ts *httptest.Server, path, header, value string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(header, value)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// testStore opens a snapshot store over a fresh directory that the test
// removes.
func testStore(t testing.TB) *store.Snapshots {
	t.Helper()
	st, err := store.OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// testConfig fills in what every server needs and cfg leaves unset: a
// snapshot store and a journal directory, each fresh and removed with the
// test.
func testConfig(t testing.TB, cfg Config) Config {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = testStore(t)
	}
	if cfg.JournalDir == "" {
		cfg.JournalDir = filepath.Join(t.TempDir(), "journal")
	}
	return cfg
}

// storeServer boots a server through testConfig with one finished job and
// returns the server, test listener, and the job.
func storeServer(t *testing.T, cfg Config) (*Server, *httptest.Server, Job) {
	t.Helper()
	srv := New(testConfig(t, cfg))
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	job := runJob(t, ts, map[string][2]string{
		"child": {"child.har", string(childHAR(t))},
		"name":  {"", "Quizlet"},
	})
	return srv, ts, job
}

// TestV1RouteTable is the golden route-table test: every route answers
// under /v1 and only there — the unprefixed paths of the pre-versioning
// API are gone, not aliased.
func TestV1RouteTable(t *testing.T) {
	_, ts, job := storeServer(t, Config{})

	for _, path := range []string{
		"/jobs",
		"/jobs/" + job.ID,
		"/jobs/" + job.ID + "/report.json",
		"/jobs/" + job.ID + "/report.csv",
		"/snapshots",
		"/snapshots/1",
		"/diff?from=1&to=1",
		"/personas",
		"/healthz",
	} {
		if code, body := getBody(t, ts, "/v1"+path); code != http.StatusOK {
			t.Errorf("GET /v1%s = %d: %s", path, code, body)
		}
	}
	if code, _ := getBody(t, ts, "/jobs"); code != http.StatusNotFound {
		t.Errorf("GET /jobs (unprefixed) = %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/audit", "multipart/form-data; boundary=x", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /audit (unprefixed) = %d, want 404", resp.StatusCode)
	}

	// POST /v1/audits rejects an empty body and answers an accepted upload
	// with the job's /v1 URL.
	resp, err = http.Post(ts.URL+"/v1/audits", "multipart/form-data; boundary=x", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /v1/audits (empty) = %d, want 400", resp.StatusCode)
	}
	resp = submit(t, ts, map[string][2]string{
		"child": {"child.har", string(childHAR(t))},
		"name":  {"", "Quizlet"},
	})
	accepted := decodeJob(t, resp)
	if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusAccepted || loc != "/v1/jobs/"+accepted.ID {
		t.Errorf("submit = %d, Location %q, want 202 and /v1/jobs/%s", resp.StatusCode, loc, accepted.ID)
	}
	wait(t, ts, accepted.ID)
}

// TestErrorEnvelope pins the one error shape every handler emits:
// {"error":{"code","message"}} with the documented typed codes, plus
// retry_after on 503s.
func TestErrorEnvelope(t *testing.T) {
	_, ts, _ := storeServer(t, Config{})

	decodeEnvelope := func(t *testing.T, body []byte) apiErrorBody {
		t.Helper()
		var envelope struct {
			Error apiErrorBody `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Fatalf("error body is not the envelope: %v: %s", err, body)
		}
		if envelope.Error.Code == "" || envelope.Error.Message == "" {
			t.Fatalf("envelope missing code or message: %s", body)
		}
		return envelope.Error
	}

	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/jobs/nope", http.StatusNotFound, "not_found"},
		{"/v1/jobs/nope/report.json", http.StatusNotFound, "not_found"},
		{"/v1/jobs?limit=zero", http.StatusBadRequest, "invalid_request"},
		{"/v1/diff?from=1", http.StatusBadRequest, "invalid_request"},
		{"/v1/diff?from=1&to=1&format=csv", http.StatusBadRequest, "invalid_request"},
		{"/v1/diff?from=1&to=1&personas=ghost", http.StatusBadRequest, "invalid_request"},
		{"/v1/diff?from=99&to=1", http.StatusNotFound, "not_found"},
		{"/v1/snapshots/99", http.StatusNotFound, "not_found"},
		{"/v1/snapshots?cursor=xyz", http.StatusBadRequest, "invalid_request"},
		{"/v1/jobs?cursor=xyz", http.StatusBadRequest, "invalid_request"},
	} {
		code, body := getBody(t, ts, tc.path)
		if code != tc.status {
			t.Errorf("GET %s = %d, want %d: %s", tc.path, code, tc.status, body)
			continue
		}
		if e := decodeEnvelope(t, body); e.Code != tc.code {
			t.Errorf("GET %s code = %q, want %q", tc.path, e.Code, tc.code)
		}
	}

	// The 503 envelope carries retry_after, mirroring the Retry-After
	// header the chaos suite already pins.
	srv3 := New(testConfig(t, Config{}))
	ts3 := httptest.NewServer(srv3)
	defer ts3.Close()
	srv3.Close()
	resp := submit(t, ts3, map[string][2]string{"child": {"c.har", "{}"}})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after close = %d, want 503", resp.StatusCode)
	}
	e := decodeEnvelope(t, body)
	if e.Code != "unavailable" || e.RetryAfter < 1 {
		t.Errorf("503 envelope = %+v, want code=unavailable with retry_after", e)
	}
}

// TestPagination covers the listing contract on /v1/jobs and
// /v1/snapshots: stable order, limit cuts with next_cursor, cursor
// resumes past the last item, empty pages beyond the end, and the
// unpaginated default staying the legacy full listing.
func TestPagination(t *testing.T) {
	_, ts, _ := storeServer(t, Config{Workers: 1})
	// Two more jobs → three jobs, three snapshots.
	for i := 0; i < 2; i++ {
		runJob(t, ts, map[string][2]string{
			"child": {"child.har", string(childHAR(t))},
			"name":  {"", "Quizlet"},
		})
	}

	type jobsPage struct {
		Jobs       []Job  `json:"jobs"`
		NextCursor string `json:"next_cursor"`
	}
	readJobs := func(path string) jobsPage {
		t.Helper()
		code, body := getBody(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		var page jobsPage
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	full := readJobs("/v1/jobs")
	if len(full.Jobs) != 3 || full.NextCursor != "" {
		t.Fatalf("unpaginated jobs = %d items, cursor %q; want 3 items, no cursor", len(full.Jobs), full.NextCursor)
	}
	page1 := readJobs("/v1/jobs?limit=2")
	if len(page1.Jobs) != 2 || page1.NextCursor != page1.Jobs[1].ID {
		t.Fatalf("page1 = %d items, cursor %q", len(page1.Jobs), page1.NextCursor)
	}
	page2 := readJobs("/v1/jobs?limit=2&cursor=" + page1.NextCursor)
	if len(page2.Jobs) != 1 || page2.NextCursor != "" {
		t.Fatalf("page2 = %d items, cursor %q; want the final item, no cursor", len(page2.Jobs), page2.NextCursor)
	}
	if page1.Jobs[0].ID != full.Jobs[0].ID || page2.Jobs[0].ID != full.Jobs[2].ID {
		t.Error("paginated walk visits jobs out of order")
	}
	// Cursor past the end: empty page, not an error.
	if end := readJobs("/v1/jobs?limit=2&cursor=" + full.Jobs[2].ID); len(end.Jobs) != 0 || end.NextCursor != "" {
		t.Errorf("past-end page = %d items, cursor %q; want empty", len(end.Jobs), end.NextCursor)
	}

	type snapsPage struct {
		Snapshots  []store.Meta `json:"snapshots"`
		NextCursor string       `json:"next_cursor"`
	}
	readSnaps := func(path string) snapsPage {
		t.Helper()
		code, body := getBody(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		var page snapsPage
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		return page
	}
	sFull := readSnaps("/v1/snapshots")
	if len(sFull.Snapshots) != 3 || sFull.NextCursor != "" {
		t.Fatalf("unpaginated snapshots = %d, cursor %q", len(sFull.Snapshots), sFull.NextCursor)
	}
	sPage1 := readSnaps("/v1/snapshots?limit=2")
	if len(sPage1.Snapshots) != 2 || sPage1.NextCursor != "2" {
		t.Fatalf("snapshots page1 = %d items, cursor %q; want 2 items, cursor 2", len(sPage1.Snapshots), sPage1.NextCursor)
	}
	sPage2 := readSnaps("/v1/snapshots?limit=2&cursor=" + sPage1.NextCursor)
	if len(sPage2.Snapshots) != 1 || sPage2.Snapshots[0].Seq != 3 || sPage2.NextCursor != "" {
		t.Fatalf("snapshots page2 = %+v", sPage2)
	}
	if end := readSnaps("/v1/snapshots?limit=1&cursor=999"); len(end.Snapshots) != 0 || end.NextCursor != "" {
		t.Errorf("past-end snapshots page = %+v", end)
	}
}

// rerunStore stores the next queued result under the looked-up job ID
// right after every job lookup: a recovered re-run of the same job landing
// mid-request, at the worst moment.
type rerunStore struct {
	store.Store
	mu     sync.Mutex
	reruns []*core.ServiceResult
}

func (r *rerunStore) JobSnapshot(jobID string) (store.Meta, bool) {
	meta, ok := r.Store.JobSnapshot(jobID)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.reruns) > 0 {
		r.Store.Put(jobID, r.reruns[0])
		r.reruns = r.reruns[1:]
	}
	return meta, ok
}

// TestReportETagNamesItsBody: the report endpoints resolve the job's
// snapshot once per request, so however re-runs of the job ID interleave
// with requests, a response's ETag is the content hash of the snapshot its
// body renders — never one snapshot's validator on another's bytes.
func TestReportETagNamesItsBody(t *testing.T) {
	st := &rerunStore{Store: testStore(t)}
	srv, ts, job := storeServer(t, Config{Store: st})
	results := []*core.ServiceResult{nil, nil, nil}
	results[0], _ = srv.Result(job.ID)
	for i, url := range []string{"https://api.quizlet.com/v1/profile?user_id=u123", "https://stats.g.doubleclick.net/collect?advertising_id=adid9"} {
		rerun := runJob(t, ts, map[string][2]string{"child": {"c.har", deltaHAR(t, url)}, "name": {"", "Quizlet"}})
		results[i+1], _ = srv.Result(rerun.ID)
	}
	exports := map[string][]byte{} // ETag → the export of the content it names
	for _, res := range results {
		data, err := report.ExportJSON([]*core.ServiceResult{res})
		if err != nil {
			t.Fatal(err)
		}
		exports[`"`+store.Hash(store.EncodeResult(res))+`"`] = data
	}
	if len(exports) != 3 {
		t.Fatalf("want three distinct contents, got %d", len(exports))
	}

	// job-99 is in the store only (an evicted job); its re-runs land during
	// the first two requests.
	if _, err := st.Put("job-99", results[0]); err != nil {
		t.Fatal(err)
	}
	st.reruns = results[1:]
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp := get(t, ts, "/v1/jobs/job-99/report.json")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, exports[etag]) {
			t.Fatalf("request %d: status %d, ETag %s does not name the body served", i, resp.StatusCode, etag)
		}
		seen[etag] = true
	}
	if len(seen) != 3 {
		t.Errorf("three requests across two re-runs served %d distinct snapshots, want 3 (newest at resolve time)", len(seen))
	}
}

// TestETagAndConditionalGet pins the cache semantics: cacheable GETs
// carry a strong content-hash ETag, If-None-Match answers 304 with no
// body, the CSV and JSON representations never validate against each
// other, and a snapshot fetched by its full hash is immutable-cacheable.
func TestETagAndConditionalGet(t *testing.T) {
	_, ts, job := storeServer(t, Config{})

	report := get(t, ts, "/v1/jobs/"+job.ID+"/report.json")
	body, _ := io.ReadAll(report.Body)
	report.Body.Close()
	etag := report.Header.Get("ETag")
	wantETag := `"` + job.SnapshotHash + `"`
	if etag != wantETag {
		t.Fatalf("report ETag = %q, want %q", etag, wantETag)
	}
	if cc := report.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("report Cache-Control = %q, want no-cache", cc)
	}
	if len(body) == 0 {
		t.Fatal("empty report body")
	}

	cond := getWithHeader(t, ts, "/v1/jobs/"+job.ID+"/report.json", "If-None-Match", etag)
	condBody, _ := io.ReadAll(cond.Body)
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified || len(condBody) != 0 {
		t.Fatalf("conditional GET = %d with %d body bytes, want 304 empty", cond.StatusCode, len(condBody))
	}
	if cond.Header.Get("ETag") != etag {
		t.Error("304 dropped the ETag")
	}

	// Weak-comparison: a proxy-weakened validator still matches.
	weak := getWithHeader(t, ts, "/v1/jobs/"+job.ID+"/report.json", "If-None-Match", "W/"+etag)
	weak.Body.Close()
	if weak.StatusCode != http.StatusNotModified {
		t.Errorf("weak validator = %d, want 304", weak.StatusCode)
	}

	// A stale validator re-serves the entity.
	stale := getWithHeader(t, ts, "/v1/jobs/"+job.ID+"/report.json", "If-None-Match", `"deadbeef"`)
	staleBody, _ := io.ReadAll(stale.Body)
	stale.Body.Close()
	if stale.StatusCode != http.StatusOK || !bytes.Equal(staleBody, body) {
		t.Errorf("stale validator = %d, body equal=%v", stale.StatusCode, bytes.Equal(staleBody, body))
	}

	// CSV is a different representation of the same snapshot: different
	// ETag, and the JSON validator must not 304 it.
	csv := get(t, ts, "/v1/jobs/"+job.ID+"/report.csv")
	csv.Body.Close()
	csvETag := csv.Header.Get("ETag")
	if csvETag == "" || csvETag == etag {
		t.Errorf("csv ETag = %q (json %q); want distinct", csvETag, etag)
	}
	cross := getWithHeader(t, ts, "/v1/jobs/"+job.ID+"/report.csv", "If-None-Match", etag)
	cross.Body.Close()
	if cross.StatusCode != http.StatusOK {
		t.Errorf("csv GET with json validator = %d, want 200", cross.StatusCode)
	}

	// Snapshot by sequence revalidates; by full hash it is immutable.
	bySeq := get(t, ts, "/v1/snapshots/1")
	bySeq.Body.Close()
	if cc := bySeq.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("snapshot-by-seq Cache-Control = %q", cc)
	}
	byHash := get(t, ts, "/v1/snapshots/"+job.SnapshotHash)
	byHash.Body.Close()
	if cc := byHash.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("snapshot-by-hash Cache-Control = %q, want immutable", cc)
	}
	if byHash.Header.Get("ETag") != etag {
		t.Errorf("snapshot ETag = %q, want %q", byHash.Header.Get("ETag"), etag)
	}

	// Diff ETags: derived from both hashes, varying by personas/format.
	diff := get(t, ts, "/v1/diff?from=1&to=1")
	diff.Body.Close()
	diffETag := diff.Header.Get("ETag")
	if diffETag == "" {
		t.Fatal("diff has no ETag")
	}
	cond304 := getWithHeader(t, ts, "/v1/diff?from=1&to=1", "If-None-Match", diffETag)
	cond304.Body.Close()
	if cond304.StatusCode != http.StatusNotModified {
		t.Errorf("conditional diff = %d, want 304", cond304.StatusCode)
	}
	filtered := get(t, ts, "/v1/diff?from=1&to=1&personas=child")
	filtered.Body.Close()
	if filtered.Header.Get("ETag") == diffETag {
		t.Error("persona-filtered diff shares the unfiltered ETag")
	}
}

// TestWarmPathsPerformZeroDecodes is the decode-counter acceptance test:
// once a snapshot's result is in the decoded-snapshot cache, repeat
// report/snapshot/diff reads perform zero snapshot decodes, and a 304
// performs zero decodes even on a cold cache.
func TestWarmPathsPerformZeroDecodes(t *testing.T) {
	// MaxJobs: 1 forces eviction of the finished job when the next one
	// lands, so report reads must go through the store — the live-job
	// path serves from job memory and would never decode anything.
	_, ts, first := storeServer(t, Config{Workers: 1, MaxJobs: 1})
	runJob(t, ts, map[string][2]string{
		"child": {"child.har", string(childHAR(t))},
		"name":  {"", "Quizlet"},
	})
	if code, _ := getBody(t, ts, "/v1/jobs/"+first.ID); code != http.StatusNotFound {
		t.Fatalf("job %s still live; eviction did not happen", first.ID)
	}

	// Cold 304: the validator is served from metadata alone.
	etag := `"` + first.SnapshotHash + `"`
	before := store.Decodes()
	cond := getWithHeader(t, ts, "/v1/jobs/"+first.ID+"/report.json", "If-None-Match", etag)
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("cold conditional GET = %d, want 304", cond.StatusCode)
	}
	if got := store.Decodes() - before; got != 0 {
		t.Errorf("cold 304 performed %d decodes, want 0", got)
	}

	// First full read decodes exactly once and warms the cache.
	before = store.Decodes()
	if code, _ := getBody(t, ts, "/v1/jobs/"+first.ID+"/report.json"); code != http.StatusOK {
		t.Fatal("evicted report not served")
	}
	if got := store.Decodes() - before; got != 1 {
		t.Errorf("cold read performed %d decodes, want 1", got)
	}

	// Warm reads across every read path: zero decodes.
	before = store.Decodes()
	for _, path := range []string{
		"/v1/jobs/" + first.ID + "/report.json",
		"/v1/jobs/" + first.ID + "/report.csv",
		"/v1/snapshots/" + first.SnapshotHash,
		"/v1/diff?from=1&to=1",
		"/v1/diff?from=1&to=1&personas=child",
	} {
		if code, body := getBody(t, ts, path); code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
	}
	if got := store.Decodes() - before; got != 0 {
		t.Errorf("warm reads performed %d decodes, want 0", got)
	}
}

// TestFilteredDiffFillsCache pins what replaced partial materialization:
// /v1/diff?personas=child over two different snapshots, served cold and
// then warm, is both times byte-identical to the facade's render of
// LongitudinalFiltered over the two full results; the cold request decodes
// each side once and leaves both in the cache, so the warm one decodes
// nothing.
func TestFilteredDiffFillsCache(t *testing.T) {
	srv, ts, _ := storeServer(t, Config{Workers: 1})
	runJob(t, ts, map[string][2]string{
		"child": {"after.har", deltaHAR(t,
			"https://api.quizlet.com/v1/profile?user_id=u123",
			"https://stats.g.doubleclick.net/collect?advertising_id=adid9")},
		"name": {"", "Quizlet"},
	})
	from, _, err := srv.cfg.Store.Get("1")
	if err != nil {
		t.Fatal(err)
	}
	to, _, err := srv.cfg.Store.Get("2")
	if err != nil {
		t.Fatal(err)
	}
	diff := core.LongitudinalFiltered(from, to, map[string]bool{flows.Child.String(): true})
	if len(diff.Personas) != 1 || len(diff.Personas[0].Added)+len(diff.Personas[0].Removed) == 0 {
		t.Fatalf("reference diff compares %d personas with no delta; the test needs one persona and a real delta", len(diff.Personas))
	}
	want, err := report.ExportDiffJSON(diff)
	if err != nil {
		t.Fatal(err)
	}

	for _, pass := range []struct {
		name    string
		decodes uint64
	}{{"cold", 2}, {"warm", 0}} {
		before := store.Decodes()
		code, got := getBody(t, ts, "/v1/diff?from=1&to=2&personas=child")
		if code != http.StatusOK {
			t.Fatalf("%s filtered diff = %d: %s", pass.name, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s filtered diff differs from the facade render", pass.name)
		}
		if n := store.Decodes() - before; n != pass.decodes {
			t.Errorf("%s filtered diff performed %d decodes, want %d", pass.name, n, pass.decodes)
		}
		if stats := srv.cache.stats(); stats.Entries != 2 {
			t.Errorf("after the %s filtered diff the cache holds %d results, want both sides", pass.name, stats.Entries)
		}
	}
}

// TestHealthzCacheStats checks the cache surface on /v1/healthz: hits and
// misses move as the read path warms.
func TestHealthzCacheStats(t *testing.T) {
	_, ts, first := storeServer(t, Config{Workers: 1, MaxJobs: 1})
	runJob(t, ts, map[string][2]string{
		"child": {"child.har", string(childHAR(t))},
		"name":  {"", "Quizlet"},
	})

	readStats := func() cacheStats {
		t.Helper()
		code, body := getBody(t, ts, "/v1/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
		var health struct {
			Cache cacheStats `json:"cache"`
		}
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatal(err)
		}
		return health.Cache
	}

	if stats := readStats(); stats.Capacity != DefaultCacheBytes {
		t.Errorf("cache capacity = %d, want default %d", stats.Capacity, DefaultCacheBytes)
	}
	getBody(t, ts, "/v1/jobs/"+first.ID+"/report.json") // miss + fill
	getBody(t, ts, "/v1/jobs/"+first.ID+"/report.json") // hit
	stats := readStats()
	if stats.Misses == 0 || stats.Hits == 0 || stats.Entries == 0 {
		t.Errorf("cache stats after warm read = %+v; want movement", stats)
	}
}
