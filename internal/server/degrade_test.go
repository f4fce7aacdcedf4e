// Graceful-degradation chaos suite: a corrupt snapshot failing only its
// own reads, journal-deferred writes after a failed persist, sustained
// overload at multiples of queue capacity, Close racing in-flight
// uploads, and the healthz load gauges. Everything here runs under -race
// in CI's chaos job.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"diffaudit/internal/faults"
	"diffaudit/internal/store"
)

// apiErr decodes the JSON error envelope (failing the test on any other
// body shape — a degraded server must never emit plain text).
func apiErr(t *testing.T, body []byte) apiErrorBody {
	t.Helper()
	var e struct {
		Error apiErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
		t.Fatalf("not an error envelope: %q (%v)", body, err)
	}
	return e.Error
}

// TestCorruptSnapshotFaultStaysLocal pins that a snapshot which fails
// to load fails only the requests for it: however often a corrupt file
// is read, a healthy snapshot in the same store still serves and the
// next upload still persists. Across a restart the corrupt file stops
// resolving (404, unlisted) but stays on disk byte for byte, and its
// sequence stays claimed.
func TestCorruptSnapshotFaultStaysLocal(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts, first := storeServer(t, Config{Workers: 1, Store: st, CacheBytes: -1})
	second := runJob(t, ts, quizletParts(t))
	// Both jobs have the same content, so a hash would resolve to the
	// newest copy: address each by its sequence.
	if first.SnapshotSeq == 0 || second.SnapshotSeq == 0 || first.SnapshotSeq == second.SnapshotSeq {
		t.Fatalf("snapshot seqs = %d, %d; want two distinct", first.SnapshotSeq, second.SnapshotSeq)
	}

	path := filepath.Join(dir, fmt.Sprintf("%012d.snap", first.SnapshotSeq))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 8; i++ {
		code, body := getBody(t, ts, fmt.Sprintf("/v1/snapshots/%d", first.SnapshotSeq))
		if code != http.StatusInternalServerError {
			t.Fatalf("corrupt read %d = %d: %s", i+1, code, body)
		}
		if e := apiErr(t, body); e.Code != codeInternal {
			t.Fatalf("corrupt read %d envelope = %+v", i+1, e)
		}
	}

	if code, body := getBody(t, ts, fmt.Sprintf("/v1/snapshots/%d", second.SnapshotSeq)); code != http.StatusOK {
		t.Fatalf("healthy read after corrupt reads = %d: %s", code, body)
	}
	fresh := runJob(t, ts, quizletParts(t))
	if fresh.SnapshotSeq == 0 || fresh.SnapshotError != "" {
		t.Fatalf("upload after corrupt reads = %+v, want a persisted snapshot", fresh)
	}

	// Restart over the same directory: the rescan skips the corrupt file.
	srv.Close()
	st2, err := store.OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2, next := storeServer(t, Config{Workers: 1, Store: st2, CacheBytes: -1})
	code, body := getBody(t, ts2, fmt.Sprintf("/v1/snapshots/%d", first.SnapshotSeq))
	if code != http.StatusNotFound {
		t.Fatalf("corrupt read after restart = %d: %s", code, body)
	}
	if e := apiErr(t, body); e.Code != codeNotFound {
		t.Errorf("corrupt read after restart envelope = %+v", e)
	}
	code, body = getBody(t, ts2, "/v1/snapshots")
	var listing struct {
		Snapshots []store.Meta `json:"snapshots"`
	}
	if err := json.Unmarshal(body, &listing); code != http.StatusOK || err != nil {
		t.Fatalf("/v1/snapshots after restart = %d (%v): %s", code, err, body)
	}
	for _, m := range listing.Snapshots {
		if m.Seq == first.SnapshotSeq {
			t.Errorf("/v1/snapshots after restart lists corrupt sequence %d", m.Seq)
		}
	}
	if len(listing.Snapshots) != 3 {
		t.Errorf("/v1/snapshots after restart lists %d snapshots, want the 3 intact ones", len(listing.Snapshots))
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Errorf("corrupt file not kept byte for byte across the restart (%v)", err)
	}
	if next.SnapshotSeq <= fresh.SnapshotSeq {
		t.Errorf("upload after restart got sequence %d, want above %d", next.SnapshotSeq, fresh.SnapshotSeq)
	}
}

// TestFailedSnapshotStaysJournaled pins the deferred-write contract: a
// job whose snapshot fails to persist still finishes with its result in
// memory and keeps its journal record, so a restart re-runs it and
// persists the snapshot the failure swallowed — writes queue, they do
// not vanish.
func TestFailedSnapshotStaysJournaled(t *testing.T) {
	defer faults.Reset()
	faults.Set("store.write", faults.Plan{Err: errors.New("volume detached"), Count: -1})

	dir := t.TempDir()
	st, err := store.OpenFSStore(dir + "/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, Store: st, JournalDir: dir + "/journal"}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	resp := submit(t, ts, quizletParts(t))
	done := wait(t, ts, decodeJob(t, resp).ID)
	if done.State != JobDone || !strings.Contains(done.SnapshotError, "volume detached") || done.SnapshotSeq != 0 {
		t.Fatalf("job = %+v, want done with a failed snapshot", done)
	}
	// Nothing was stored, but the in-memory result still serves.
	if metas, _ := st.List(); len(metas) != 0 {
		t.Fatalf("store has %d snapshots during outage, want 0", len(metas))
	}
	if code, _ := getBody(t, ts, "/v1/jobs/"+done.ID+"/report.json"); code != http.StatusOK {
		t.Errorf("report after failed persist = %d, want 200 from memory", code)
	}
	ts.Close()
	srv.Close()

	// Fault cleared + restart: the journal re-runs the job and the snapshot
	// finally lands, under the same job ID.
	faults.Reset()
	st2, err := store.OpenFSStore(dir + "/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st2
	srv2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if metas, _ := st2.List(); len(metas) == 1 && metas[0].JobID == done.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deferred snapshot never persisted after restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOverloadNoHangs is the sustained-overload acceptance: with the
// pipeline wedged and the queue full, a burst of submits at twice the
// system's total capacity all complete promptly — every rejection an
// enveloped 503 with a retry hint, zero hung connections.
func TestOverloadNoHangs(t *testing.T) {
	gate := make(chan struct{})
	srv := New(testConfig(t, Config{Workers: 1, QueueDepth: 2, NewPipeline: stalledPipeline(gate)}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	parts := quizletParts(t)
	first := decodeJob(t, submit(t, ts, parts))
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		if int(srv.busy.Load()) == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = first
	for i := 0; i < 2; i++ { // fill the queue
		if resp := submit(t, ts, parts); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queue fill %d: %d", i, resp.StatusCode)
		}
	}

	// 2× the system's capacity (1 running + 2 queued), concurrently.
	var body bytes.Buffer
	ctype := newMultipart(t, &body, parts)
	payload := body.Bytes()
	client := &http.Client{Timeout: 15 * time.Second}
	const burst = 6
	type outcome struct {
		status int
		retry  string
		body   []byte
		err    error
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/v1/audits", ctype, bytes.NewReader(payload))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- outcome{status: resp.StatusCode, retry: resp.Header.Get("Retry-After"), body: b}
		}()
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Fatalf("request hung or failed: %v", r.err)
		}
		if r.status != http.StatusServiceUnavailable {
			t.Errorf("overload submit = %d, want 503", r.status)
			continue
		}
		if r.retry == "" {
			t.Error("503 without Retry-After")
		}
		if e := apiErr(t, r.body); e.Code != codeUnavailable || e.RetryAfter < 1 {
			t.Errorf("503 envelope = %+v", e)
		}
	}

	close(gate)
	srv.Close()
}

// TestCloseRacesInflightUploads: uploads racing Server.Close each end in
// exactly one of two states — accepted (202) and drained to a terminal
// job, or rejected with the shutdown 503 envelope. No hung connection,
// and the journal holds no leftover record for any of them.
func TestCloseRacesInflightUploads(t *testing.T) {
	jdir := t.TempDir()
	srv, err := Open(testConfig(t, Config{Workers: 2, QueueDepth: 32, JournalDir: jdir}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var body bytes.Buffer
	ctype := newMultipart(t, &body, quizletParts(t))
	payload := body.Bytes()
	client := &http.Client{Timeout: 15 * time.Second}

	const inflight = 12
	accepted := make(chan string, inflight)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := client.Post(ts.URL+"/v1/audits", ctype, bytes.NewReader(payload))
			if err != nil {
				t.Errorf("upload racing Close hung/failed: %v", err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var job Job
				if err := json.Unmarshal(b, &job); err != nil {
					t.Errorf("202 body: %v", err)
					return
				}
				accepted <- job.ID
			case http.StatusServiceUnavailable:
				if e := apiErr(t, b); e.Code != codeUnavailable || e.RetryAfter < 1 {
					t.Errorf("shutdown 503 envelope = %+v", e)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Error("shutdown 503 without Retry-After")
				}
			default:
				t.Errorf("upload racing Close = %d: %s", resp.StatusCode, b)
			}
		}()
	}
	close(start)
	// Close mid-burst: some uploads land before, some after.
	time.Sleep(5 * time.Millisecond)
	srv.Close()
	wg.Wait()
	close(accepted)

	// Every accepted job was drained to a terminal state before Close
	// returned — a 202 is a promise even during shutdown.
	for id := range accepted {
		job, ok := srv.lookup(id)
		if !ok {
			t.Errorf("accepted job %s vanished", id)
			continue
		}
		srv.mu.Lock()
		state := job.State
		srv.mu.Unlock()
		if !state.Terminal() {
			t.Errorf("accepted job %s left %s after Close", id, state)
		}
	}

	// The journal settled: accepted jobs completed (records removed),
	// rejected ones were rolled back — a fresh server over the same
	// journal recovers nothing. (Partial records would re-run here.)
	srv2, err := Open(testConfig(t, Config{Workers: 1, JournalDir: jdir}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	h := healthSnapshot(t, ts2)
	if h["jobs"].(float64) != 0 || h["recovering"].(float64) != 0 {
		t.Errorf("journal not settled after Close: jobs=%v recovering=%v", h["jobs"], h["recovering"])
	}
}

// TestHealthLoadGauges pins the healthz overload gauges: live queue
// depth vs capacity, busy workers, and total in-flight jobs — and the
// deprecated breaker, retrying and scrub constants, which keep the shape
// a server without those mechanisms always reported.
func TestHealthLoadGauges(t *testing.T) {
	gate := make(chan struct{})
	srv := New(testConfig(t, Config{Workers: 1, QueueDepth: 4, NewPipeline: stalledPipeline(gate)}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	parts := quizletParts(t)
	submit(t, ts, parts).Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for int(srv.busy.Load()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	submit(t, ts, parts).Body.Close() // sits in the queue behind the wedge

	h := healthSnapshot(t, ts)
	want := map[string]float64{
		"queue_depth": 1, "queue_capacity": 4,
		"workers": 1, "workers_busy": 1, "jobs_inflight": 2,
	}
	for k, v := range want {
		if got, _ := h[k].(float64); got != v {
			t.Errorf("healthz %s = %v, want %v", k, h[k], v)
		}
	}
	if _, ok := h["admission"].(map[string]any); !ok {
		t.Errorf("healthz admission section missing: %+v", h["admission"])
	}
	wantBreaker := map[string]any{
		"state": "disabled", "failure_rate": 0.0, "window": 0.0, "window_filled": 0.0,
		"trips": 0.0, "stale_served": 0.0, "short_circuits": 0.0,
	}
	if !reflect.DeepEqual(h["breaker"], wantBreaker) {
		t.Errorf("healthz breaker = %+v, want %+v", h["breaker"], wantBreaker)
	}
	if got, ok := h["retrying"].(float64); !ok || got != 0 {
		t.Errorf("healthz retrying = %v, want the deprecated constant 0", h["retrying"])
	}
	zero := map[string]any{"scanned": 0.0, "corrupt": 0.0, "repaired": 0.0, "quarantined": 0.0}
	wantScrub := map[string]any{"passes": 0.0, "last": zero, "total": zero}
	if !reflect.DeepEqual(h["scrub"], wantScrub) {
		t.Errorf("healthz scrub = %+v, want %+v", h["scrub"], wantScrub)
	}

	close(gate)
	srv.Close()
}
