// The fault-injection (chaos) suite: every injection point the faults
// package exposes in the serving path, driven end to end over HTTP —
// panicking workers, failed snapshot writes, journal write failures, job
// deadlines, and overload — asserting the server degrades the way
// DESIGN.md promises and never wedges a worker.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"diffaudit/internal/faults"
	"diffaudit/internal/flows"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/synth"
)

// quizletParts is a small known-service upload (skips the identity-guess
// pass, so tests that count injection firings see only the audit stream).
func quizletParts(t *testing.T) map[string][2]string {
	t.Helper()
	return map[string][2]string{
		"child": {"child.har", string(childHAR(t))},
		"name":  {"", "Quizlet"},
	}
}

// TestWorkerPanicRecovery: an audit that panics fails its own job with
// the panic value and stack attached — and the same worker (Workers: 1)
// keeps serving: the next job completes normally.
func TestWorkerPanicRecovery(t *testing.T) {
	defer faults.Reset()
	faults.Set("worker.panic", faults.Plan{Panic: "chaos monkey", On: 1})

	srv := New(testConfig(t, Config{Workers: 1}))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := submit(t, ts, quizletParts(t))
	job := decodeJob(t, resp)
	failed := wait(t, ts, job.ID)
	if failed.State != JobFailed {
		t.Fatalf("panicked job = %+v, want failed", failed)
	}
	for _, wantFrag := range []string{"audit panicked", "chaos monkey", "goroutine"} {
		if !strings.Contains(failed.Error, wantFrag) {
			t.Errorf("failed.Error missing %q:\n%s", wantFrag, failed.Error)
		}
	}

	// The injection is spent; the single worker must still be alive.
	next := runJob(t, ts, quizletParts(t))
	if next.State != JobDone {
		t.Fatalf("post-panic job = %+v", next)
	}
}

// TestPCAPStreamPanicContained: a panic inside one stream's decode, on a
// goroutine of the capture's decode window, reaches the audit's own
// goroutine and fails the job as a contained panic, stack attached; the
// worker serves the next job.
func TestPCAPStreamPanicContained(t *testing.T) {
	defer faults.Reset()
	capt, err := synth.Generate(synth.Config{Scale: 0.01}).Service("Quizlet").EmitPCAP(flows.Child)
	if err != nil {
		t.Fatal(err)
	}
	var pcapData bytes.Buffer
	if err := pcapio.WritePcapng(&pcapData, capt); err != nil {
		t.Fatal(err)
	}
	faults.Set("pcap.stream", faults.Plan{Panic: "stream decoder blew up", On: 2})

	srv := New(testConfig(t, Config{Workers: 1}))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	failed := wait(t, ts, decodeJob(t, submit(t, ts, map[string][2]string{
		"child": {"c.pcapng", pcapData.String()},
		"name":  {"", "Quizlet"},
	})).ID)
	if failed.State != JobFailed {
		t.Fatalf("panicked job = %+v, want failed", failed)
	}
	for _, wantFrag := range []string{"audit panicked", "stream decoder blew up", "stream decode goroutine"} {
		if !strings.Contains(failed.Error, wantFrag) {
			t.Errorf("failed.Error missing %q:\n%s", wantFrag, failed.Error)
		}
	}
	if next := runJob(t, ts, quizletParts(t)); next.State != JobDone {
		t.Fatalf("post-panic job = %+v", next)
	}
}

// TestPermanentStorePutFails: a failed snapshot write is not retried —
// the audit result survives in memory with SnapshotError set (the
// existing snapshot-failure semantics), and exactly one write was tried.
func TestPermanentStorePutFails(t *testing.T) {
	defer faults.Reset()
	faults.Set("store.write", faults.Plan{Err: errors.New("volume detached"), Count: -1})

	srv := New(testConfig(t, Config{Workers: 1}))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := submit(t, ts, quizletParts(t))
	job := decodeJob(t, resp)
	done := wait(t, ts, job.ID)
	if done.State != JobDone || !strings.Contains(done.SnapshotError, "volume detached") || done.SnapshotSeq != 0 {
		t.Fatalf("job = %+v, want done with SnapshotError", done)
	}
	if got := faults.Calls("store.write"); got != 1 {
		t.Errorf("store.write attempts = %d, want 1 (failed writes must not retry)", got)
	}
	// The in-memory result still serves.
	code, _ := getBody(t, ts, "/v1/jobs/"+job.ID+"/report.json")
	if code != http.StatusOK {
		t.Errorf("report after snapshot failure: %d", code)
	}
}

// TestJobTimeoutFreesWorker is the no-wedged-workers acceptance test:
// with injected per-batch decode latency, a job that blows through
// Config.JobTimeout lands in the "timeout" state (409 on its report),
// and the same single worker picks up and completes the next job.
func TestJobTimeoutFreesWorker(t *testing.T) {
	defer faults.Reset()
	// Three stream batches (600 records) × 50ms injected latency against
	// a 75ms deadline: boundary checks at t≈0, ≥50ms, ≥100ms — the third
	// is past the deadline regardless of scheduling.
	faults.Set("decode.slow", faults.Plan{Delay: 50 * time.Millisecond, Count: -1})

	urls := make([]string, 600)
	for i := range urls {
		urls[i] = fmt.Sprintf("https://api.quizlet.com/v1/item?i=%d", i)
	}
	slowParts := map[string][2]string{
		"child": {"slow.har", deltaHAR(t, urls...)},
		"name":  {"", "Quizlet"},
	}

	srv := New(testConfig(t, Config{Workers: 1, JobTimeout: 75 * time.Millisecond}))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := submit(t, ts, slowParts)
	job := decodeJob(t, resp)
	timedOut := wait(t, ts, job.ID)
	if timedOut.State != JobTimedOut || !strings.Contains(timedOut.Error, "job timeout") {
		t.Fatalf("job = %+v, want state %q", timedOut, JobTimedOut)
	}
	code, body := getBody(t, ts, "/v1/jobs/"+job.ID+"/report.json")
	if code != http.StatusConflict || !strings.Contains(string(body), "timed out") {
		t.Errorf("timed-out report fetch = %d: %s", code, body)
	}

	// Worker freed at the batch boundary: with the latency cleared, the
	// next job on the same worker must finish well inside the deadline.
	faults.Reset()
	next := runJob(t, ts, quizletParts(t))
	if next.State != JobDone {
		t.Fatalf("post-timeout job = %+v", next)
	}
}

// TestOverloadRetryAfter: both 503 paths (queue full, shutting down)
// carry a Retry-After header so clients back off instead of failing.
func TestOverloadRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	srv := New(testConfig(t, Config{Workers: 1, QueueDepth: 1, NewPipeline: stalledPipeline(gate)}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	parts := quizletParts(t)
	first := decodeJob(t, submit(t, ts, parts))
	// Wait until the worker owns job 1, so the next submit occupies the
	// queue slot deterministically.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("first job never started running")
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jb Job
		json.NewDecoder(resp.Body).Decode(&jb)
		resp.Body.Close()
		if jb.State == JobRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp := submit(t, ts, parts); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %d", resp.StatusCode)
	}

	resp := submit(t, ts, parts)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overload submit = %d, Retry-After=%q; want 503 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	close(gate)
	srv.Close() // drains the queued job

	// The shutdown 503 carries the hint too.
	resp = submit(t, ts, parts)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shutdown submit = %d, Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
}

// TestSubmitJournalWriteFailure: when the journal cannot record a job,
// the upload is rejected (500) after one attempt rather than accepted
// without durability, and its staged files are released.
func TestSubmitJournalWriteFailure(t *testing.T) {
	defer faults.Reset()
	faults.Set("journal.write", faults.Plan{Err: errors.New("journal volume detached"), Count: -1})

	jdir := t.TempDir()
	srv, err := Open(testConfig(t, Config{Workers: 1, JournalDir: jdir}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := submit(t, ts, quizletParts(t))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit with dead journal = %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()
	if got := faults.Calls("journal.write"); got != 1 {
		t.Errorf("journal.write attempts = %d, want 1 (failed writes must not retry)", got)
	}

	// No job, no record, and — once the handler's deferred cleanup runs —
	// no staged files.
	code, body := getBody(t, ts, "/v1/jobs")
	if code != http.StatusOK || !strings.Contains(string(body), `"jobs":[]`) {
		t.Errorf("jobs after rejected submit = %d: %s", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		left, err := os.ReadDir(srv.journal.staging())
		if err != nil {
			t.Fatal(err)
		}
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("staged files not cleaned after journal failure: %d left", len(left))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// soakHAR is a capture of n requests, each to a hostname (and eSLD) that
// run r of a soak test has to itself, all carrying the same query keys.
func soakHAR(t *testing.T, r, n int) string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("https://www.soak-%d-%d.example/c?user_id=u&email=e@x.example", r, i)
	}
	return deltaHAR(t, urls...)
}

// liveHeap returns HeapAlloc after two collections, the second for what
// the first one's finalizers released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoakUploadsBoundedMemory: what a server keeps per capture is bounded
// by its configuration — MaxJobs results, CacheBytes of decoded snapshots —
// and not by how many distinct hostnames strangers have uploaded. 40
// uploads of 250 never-seen hostnames each (10 000 in all), their jobs
// evicted and their snapshots read once, must leave the live heap within
// 2 MiB of what it was after the first upload. Process-wide symbol tables
// kept about 1 KB per hostname, some 10 MB here.
func TestSoakUploadsBoundedMemory(t *testing.T) {
	const (
		uploads  = 40
		hosts    = 250
		marginMB = 2
	)
	srv := New(testConfig(t, Config{Workers: 1, MaxJobs: 2, CacheBytes: 64 << 10}))
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	upload := func(r int) {
		job := runJob(t, ts, map[string][2]string{"child": {"c.har", soakHAR(t, r, hosts)}, "name": {"", "Soak"}})
		if code, _ := getBody(t, ts, "/v1/snapshots/"+job.SnapshotHash); code != http.StatusOK {
			t.Fatalf("snapshot of upload %d: %d", r, code)
		}
	}
	upload(0) // classifier, block lists and label cache are built by the first job
	before := liveHeap()
	for r := 1; r <= uploads; r++ {
		upload(r)
	}
	after := liveHeap()
	t.Logf("live heap %.2f → %.2f MiB over %d uploads of %d fresh hostnames", float64(before)/(1<<20), float64(after)/(1<<20), uploads, hosts)
	if grown := int64(after) - int64(before); grown > marginMB<<20 {
		t.Errorf("live heap grew %.1f MiB, want at most %d MiB", float64(grown)/(1<<20), marginMB)
	}
}
