// Unit and chaos tests for the deadline-aware load shedder, plus the
// hot-path benchmark the CI bench gate tracks.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"diffaudit/internal/faults"
)

// TestAdmissionEWMA pins the estimate math: the EWMA converges toward
// observed service times, and the queue-wait estimate is jobs-ahead
// divided over the workers, one EWMA each.
func TestAdmissionEWMA(t *testing.T) {
	var a admission
	if got := a.estimateWait(10, 2); got != 0 {
		t.Errorf("estimate with no history = %v, want 0 (admit optimistically)", got)
	}
	a.observe(800 * time.Millisecond)
	if got := time.Duration(a.ewmaNanos.Load()); got != 800*time.Millisecond {
		t.Errorf("first observation = %v, want 800ms (seeds the EWMA)", got)
	}
	// Repeated faster jobs pull the estimate down, weight 1/8 per step.
	for i := 0; i < 40; i++ {
		a.observe(100 * time.Millisecond)
	}
	ewma := time.Duration(a.ewmaNanos.Load())
	if ewma < 100*time.Millisecond || ewma > 120*time.Millisecond {
		t.Errorf("converged EWMA = %v, want ~100ms", ewma)
	}

	// 5 queued over 2 workers = 3 waves of one EWMA each.
	want := 3 * ewma
	if got := a.estimateWait(5, 2); got != want {
		t.Errorf("estimateWait(5,2) = %v, want %v", got, want)
	}
	if got := a.estimateWait(0, 2); got != 0 {
		t.Errorf("estimateWait(0,2) = %v, want 0", got)
	}
	// Negative and zero observations are ignored, not folded in.
	a.observe(-time.Second)
	if got := time.Duration(a.ewmaNanos.Load()); got != ewma {
		t.Errorf("EWMA moved on a negative observation: %v", got)
	}
}

// TestAdmissionShedsOnDeadline: with a job deadline configured and the
// "admit.slow" fault modeling an unbounded backlog, uploads are shed
// with the 503 envelope (adaptive hint) before any body is read —
// and admitted again the moment the backlog clears.
func TestAdmissionShedsOnDeadline(t *testing.T) {
	defer faults.Reset()
	srv := newServer(t, Config{Workers: 1, JobTimeout: time.Second})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	faults.Set("admit.slow", faults.Plan{Err: errors.New("backlog"), Count: -1})
	resp := submit(t, ts, quizletParts(t))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed submit = %d, Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var e struct {
		Error struct {
			Code       string `json:"code"`
			Message    string `json:"message"`
			RetryAfter int    `json:"retry_after"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.Error.Code != codeUnavailable || !strings.Contains(e.Error.Message, "load shed") || e.Error.RetryAfter != 300 {
		t.Fatalf("shed envelope = %+v, want retry_after 300 for a saturated wait", e.Error)
	}

	// healthz counts the shed.
	h := healthSnapshot(t, ts)
	adm, _ := h["admission"].(map[string]any)
	if adm == nil || adm["shed"].(float64) != 1 {
		t.Errorf("healthz admission = %+v, want shed=1", h["admission"])
	}

	// Backlog cleared: the same upload is admitted and completes.
	faults.Reset()
	if done := runJob(t, ts, quizletParts(t)); done.State != JobDone {
		t.Fatalf("post-shed job = %+v", done)
	}
}

// TestQueueWaitDoesNotCountAgainstJobTimeout: the job deadline is armed
// when a worker starts the job, not when the upload is admitted. A job
// that waits behind a stalled worker for longer than JobTimeout still gets
// its whole deadline once it runs, and finishes.
func TestQueueWaitDoesNotCountAgainstJobTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	stallAudits(t, gate)
	srv := newServer(t, Config{Workers: 1, JobTimeout: timeout})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	parts := map[string][2]string{"child": {"c.har", deltaHAR(t, "https://www.quizlet.com/q?user_id=u")}}
	var queued []Job
	for i := 0; i < 2; i++ {
		resp := submit(t, ts, parts)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		queued = append(queued, decodeJob(t, resp))
	}
	time.Sleep(2 * timeout)
	var second Job
	if code, body := getBody(t, ts, "/v1/jobs/"+queued[1].ID); code != http.StatusOK || json.Unmarshal(body, &second) != nil || second.State != JobQueued {
		t.Fatalf("second job after %v behind the stalled worker = %d %s, want queued", 2*timeout, code, body)
	}
	release()
	if done := wait(t, ts, queued[1].ID); done.State != JobDone {
		t.Fatalf("job that queued past JobTimeout = %+v, want done", done)
	}
}

// TestAdmissionNoDeadlineNeverSheds: without a JobTimeout there is no
// deadline to protect, so even an "infinite" backlog estimate must not
// reject uploads — the bounded queue is the only backpressure.
func TestAdmissionNoDeadlineNeverSheds(t *testing.T) {
	defer faults.Reset()
	faults.Set("admit.slow", faults.Plan{Err: errors.New("backlog"), Count: -1})
	srv := newServer(t, Config{Workers: 1}) // no deadline
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if done := runJob(t, ts, quizletParts(t)); done.State != JobDone {
		t.Fatalf("job without deadline = %+v, want done", done)
	}
}

// newMultipart writes parts into buf and returns the Content-Type.
func newMultipart(t *testing.T, buf *bytes.Buffer, parts map[string][2]string) string {
	t.Helper()
	mw := multipart.NewWriter(buf)
	for field, fc := range parts {
		if fc[0] == "" {
			if err := mw.WriteField(field, fc[1]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		fw, err := mw.CreateFormFile(field, fc[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(fw, fc[1]); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return mw.FormDataContentType()
}

// TestRetryAfterAdaptive: the 503 hint tracks the backlog estimate —
// floor 1s when idle, the estimated wait when loaded, capped at 5min.
func TestRetryAfterAdaptive(t *testing.T) {
	srv := newServer(t, Config{Workers: 1})
	defer srv.Close()
	if got := retryAfterHint(srv.backlogWait()); got != 1 {
		t.Errorf("idle hint = %d, want 1", got)
	}
	// Simulate history: a monster EWMA. The queue is empty so the
	// estimate stays 0 → floor 1; a loaded estimate is clamped below.
	srv.admission.ewmaNanos.Store(int64(time.Hour))
	if got := srv.admission.estimateWait(4, 1); got != 4*time.Hour {
		t.Errorf("estimateWait = %v, want 4h", got)
	}
	if got := retryAfterHint(srv.backlogWait()); got != 1 {
		t.Errorf("hint with empty queue = %d, want 1", got)
	}
}

// TestRetryAfterHintFloorCap pins retryAfterHint's bounds: zero and
// sub-second estimates floor at 1s, mid-range estimates round up to
// whole seconds, and anything past five minutes caps at 300 — the same
// hint every 503 path derives from one hoisted backlog estimate.
func TestRetryAfterHintFloorCap(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want int
	}{
		{0, 1},
		{10 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{90 * time.Second, 90},
		{300 * time.Second, 300},
		{301 * time.Second, 300},
		{time.Hour, 300},
		{time.Duration(math.MaxInt64), 300},
	}
	for _, c := range cases {
		if got := retryAfterHint(c.wait); got != c.want {
			t.Errorf("retryAfterHint(%v) = %d, want %d", c.wait, got, c.want)
		}
	}
}

// BenchmarkAdmissionCheck measures the disarmed per-upload admission
// decision — one injection-point load, a channel length, and two atomic
// loads. This is on every POST /v1/audits; it must stay allocation-free
// and well under a microsecond.
func BenchmarkAdmissionCheck(b *testing.B) {
	srv := newServer(b, Config{Workers: 2, JobTimeout: time.Second})
	defer srv.Close()
	srv.admission.ewmaNanos.Store(int64(50 * time.Millisecond))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if shed, _ := srv.shouldShed(); shed {
			b.Fatal("idle server shed")
		}
	}
}
