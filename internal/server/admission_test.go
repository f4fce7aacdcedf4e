// Unit and chaos tests for the upload admission gates: the deadline-
// aware load shedder and the per-client rate limiter, plus the
// hot-path benchmarks the CI bench gate tracks.
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
	srv := New(Config{Workers: 1, TempDir: t.TempDir(), JobTimeout: time.Second})
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

// TestAdmissionNoDeadlineNeverSheds: without a JobTimeout there is no
// deadline to protect, so even an "infinite" backlog estimate must not
// reject uploads — the bounded queue is the only backpressure.
func TestAdmissionNoDeadlineNeverSheds(t *testing.T) {
	defer faults.Reset()
	faults.Set("admit.slow", faults.Plan{Err: errors.New("backlog"), Count: -1})
	srv := New(Config{Workers: 1, TempDir: t.TempDir()}) // no deadline
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if done := runJob(t, ts, quizletParts(t)); done.State != JobDone {
		t.Fatalf("job without deadline = %+v, want done", done)
	}
}

// TestRateLimiterBuckets pins the token-bucket mechanics directly:
// burst, refill, per-key isolation, and the 429 header material.
func TestRateLimiterBuckets(t *testing.T) {
	l := newRateLimiter(10, 2) // 10/s, burst 2

	if v := l.take("a"); !v.ok || v.limit != 2 {
		t.Fatalf("first take = %+v", v)
	}
	if v := l.take("a"); !v.ok {
		t.Fatalf("burst take = %+v", v)
	}
	v := l.take("a")
	if v.ok {
		t.Fatal("third immediate take admitted past the burst")
	}
	if v.resetSeconds < 1 {
		t.Errorf("resetSeconds = %d, want >= 1", v.resetSeconds)
	}
	if l.limitedCount() != 1 {
		t.Errorf("limitedCount = %d, want 1", l.limitedCount())
	}
	// Another client has its own bucket.
	if v := l.take("b"); !v.ok {
		t.Errorf("independent client limited: %+v", v)
	}
	// Refill: back-date the bucket instead of sleeping.
	l.mu.Lock()
	l.buckets["a"].last = l.buckets["a"].last.Add(-time.Second)
	l.mu.Unlock()
	if v := l.take("a"); !v.ok {
		t.Errorf("take after refill window = %+v", v)
	}

	rec := httptest.NewRecorder()
	rateVerdict{limit: 2, remaining: 0, resetSeconds: 3}.writeHeaders(rec)
	for h, want := range map[string]string{
		"RateLimit-Limit": "2", "RateLimit-Remaining": "0",
		"RateLimit-Reset": "3", "Retry-After": "3",
	} {
		if got := rec.Header().Get(h); got != want {
			t.Errorf("%s = %q, want %q", h, got, want)
		}
	}

	// Disabled configurations are nil and always admit.
	if l := newRateLimiter(0, 5); l != nil {
		t.Error("rate 0 built a limiter")
	}
	var nilL *rateLimiter
	if v := nilL.take("x"); !v.ok || nilL.limitedCount() != 0 {
		t.Errorf("nil limiter verdict = %+v", v)
	}
}

// TestRateLimiterBoundedClients: the bucket map cannot grow without
// bound under client-ID churn.
func TestRateLimiterBoundedClients(t *testing.T) {
	l := newRateLimiter(1, 1)
	var key [8]byte
	for i := 0; i < 3*maxClients; i++ {
		for j, b := 0, i; j < len(key); j, b = j+1, b>>4 {
			key[j] = 'a' + byte(b&0xF)
		}
		l.take(string(key[:]))
	}
	l.mu.Lock()
	n := len(l.buckets)
	l.mu.Unlock()
	if n > maxClients {
		t.Errorf("bucket map grew to %d, cap is %d", n, maxClients)
	}
}

// TestRateLimit429 drives the limiter over HTTP: a client that exceeds
// its budget draws 429s with the envelope code and RateLimit headers,
// while a distinctly identified client sails through.
func TestRateLimit429(t *testing.T) {
	// Effectively no refill within the test; burst of 2 per client.
	srv := New(Config{Workers: 1, TempDir: t.TempDir(), RateLimit: 0.001, RateBurst: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(clientID string) *http.Response {
		t.Helper()
		var buf bytes.Buffer
		mw := newMultipart(t, &buf, quizletParts(t))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/audits", &buf)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", mw)
		req.Header.Set("X-Client-ID", clientID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for i := 0; i < 2; i++ {
		resp := post("tenant-a")
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i+1, resp.StatusCode)
		}
	}
	resp := post("tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit = %d, want 429", resp.StatusCode)
	}
	for _, h := range []string{"RateLimit-Limit", "RateLimit-Remaining", "RateLimit-Reset", "Retry-After"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("429 missing %s header", h)
		}
	}
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.Error.Code != codeRateLimited {
		t.Errorf("429 code = %q, want %q", e.Error.Code, codeRateLimited)
	}

	// A different client ID is a different bucket.
	other := post("tenant-b")
	other.Body.Close()
	if other.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant = %d, want 202", other.StatusCode)
	}

	h := healthSnapshot(t, ts)
	adm, _ := h["admission"].(map[string]any)
	if adm == nil || adm["rate_limited"].(float64) < 1 {
		t.Errorf("healthz admission = %+v, want rate_limited >= 1", h["admission"])
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

// TestClientKey: header identity wins, else the remote host without its
// ephemeral port.
func TestClientKey(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/audits", nil)
	r.RemoteAddr = "198.51.100.7:40312"
	if got := clientKey(r); got != "198.51.100.7" {
		t.Errorf("clientKey = %q, want bare host", got)
	}
	r.Header.Set("X-Client-ID", "tenant-a")
	if got := clientKey(r); got != "tenant-a" {
		t.Errorf("clientKey with header = %q", got)
	}
}

// TestRetryAfterAdaptive: the 503 hint tracks the backlog estimate —
// floor 1s when idle, the estimated wait when loaded, capped at 5min.
func TestRetryAfterAdaptive(t *testing.T) {
	srv := New(Config{Workers: 1, TempDir: t.TempDir()})
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
	srv := New(Config{Workers: 2, TempDir: b.TempDir(), JobTimeout: time.Second})
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

// BenchmarkRateLimiter measures the disarmed (nil-limiter) fast path —
// the cost every deployment without -rate-limit pays per upload.
func BenchmarkRateLimiter(b *testing.B) {
	var l *rateLimiter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := l.take("client"); !v.ok {
			b.Fatal("nil limiter rejected")
		}
	}
}

// BenchmarkRateLimiterArmed measures an active bucket take (mutex + map
// + clock read) — the per-upload cost when -rate-limit is set.
func BenchmarkRateLimiterArmed(b *testing.B) {
	l := newRateLimiter(1e12, 1<<30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := l.take("client"); !v.ok {
			b.Fatal("unlimited bucket rejected")
		}
	}
}
