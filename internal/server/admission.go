// Deadline-aware admission control and per-client rate limiting: the
// first of the server's overload defenses, sitting in front of the
// multipart reader so a request that cannot be served is shed before a
// single body byte is read.
//
// Admission control estimates how long a new upload would wait in the
// queue from a rolling per-job service-time EWMA (observed at job
// completion) and the current queue depth. When the server runs with a
// job deadline (Config.JobTimeout), it refuses uploads whose estimated
// queue wait exceeds that deadline, with 503 and an *adaptive*
// Retry-After derived from the same estimate. The deadline does not
// start until a worker picks the job up (run arms it), so queue wait
// never counts against it: a job admitted behind a long backlog waits the
// backlog out and then still gets its full JobTimeout. The shed is a
// bound on queue wait, not a guard against jobs that would time out.
//
// The rate limiter is a classic token bucket per client, keyed by the
// X-Client-ID header when present (trusted deployments can hand out
// stable IDs) and the remote address otherwise. It exists so one
// misbehaving uploader degrades into 429s for itself instead of queue
// pressure for everyone. Disabled by default (Config.RateLimit == 0);
// the disarmed check is a nil-receiver test.
//
// Both gates are exercised by the chaos suite; the "admit.slow"
// injection point forces the wait estimate past any deadline so tests
// (and operators rehearsing runbooks) can drive the shed path on demand.
package server

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diffaudit/internal/faults"
)

// admission tracks the rolling service-time estimate and shed counters.
// All fields are atomics: the estimate is read on every upload and
// written on every job completion, and neither side may contend.
type admission struct {
	// ewmaNanos is the exponentially weighted moving average of per-job
	// service time (worker occupancy: audit + snapshot persistence), in
	// nanoseconds. Zero until the first job completes — with no history
	// the server admits optimistically rather than guessing.
	ewmaNanos atomic.Int64
	// shed counts uploads rejected because the estimated queue wait
	// exceeded the job deadline.
	shed atomic.Uint64
}

// observe folds one completed job's service time into the EWMA with
// weight 1/8 — new enough to track load shifts within a few jobs, old
// enough that one outlier does not whipsaw the estimate.
func (a *admission) observe(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := a.ewmaNanos.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
			if next <= 0 {
				next = 1
			}
		}
		if a.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// estimateWait predicts how long a newly accepted upload would sit in
// the queue: the jobs ahead of it, divided across the workers, each
// costing one EWMA service time. Zero when there is no history yet.
func (a *admission) estimateWait(queued, workers int) time.Duration {
	ewma := a.ewmaNanos.Load()
	if ewma == 0 || workers <= 0 || queued <= 0 {
		return 0
	}
	waves := (queued + workers - 1) / workers
	if int64(waves) > math.MaxInt64/ewma {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(int64(waves) * ewma)
}

// estimatedWait is the server's view of the admission estimate: current
// queue depth against the worker pool. The "admit.slow" injection point
// models a backlog whose wait exceeds any deadline, so tests can force
// the shed path without building a real backlog.
func (s *Server) estimatedWait() time.Duration {
	if err := faults.Inject("admit.slow"); err != nil {
		return time.Duration(math.MaxInt64)
	}
	return s.admission.estimateWait(len(s.queue), s.cfg.Workers)
}

// shouldShed reports whether a new upload must be rejected because its
// estimated queue wait already exceeds the job deadline, along with the
// wait estimate that decided it. Servers without a deadline never shed
// here — the bounded queue is their only backpressure.
func (s *Server) shouldShed() (bool, time.Duration) {
	if s.cfg.JobTimeout <= 0 {
		return false, 0
	}
	wait := s.estimatedWait()
	return wait > s.cfg.JobTimeout, wait
}

// backlogWait is the one EWMA-and-queue-depth read a 503's Retry-After
// hint derives from. Handlers that also need the estimate for a decision
// (the deadline shed) read it once and thread the value through
// unavailableAfter rather than calling this again.
func (s *Server) backlogWait() time.Duration {
	return s.admission.estimateWait(len(s.queue), s.cfg.Workers)
}

// retryAfterHint converts a backlog estimate into the Retry-After hint
// every 503 path shares: rounded up to whole seconds — roughly when one
// queue slot should free up — floored at one second (clients must not
// hot-loop) and capped at five minutes (past that the hint is guesswork).
func retryAfterHint(wait time.Duration) int {
	// Capped before rounding: rounding a saturated estimate up would
	// overflow to a negative wait.
	const maxHint = 300
	if wait > maxHint*time.Second {
		return maxHint
	}
	return max(int((wait+time.Second-1)/time.Second), 1)
}

// admit runs the pre-body gates in order — per-client rate limit, then
// deadline-aware shed — writing the full error response and returning
// false when the upload must not proceed. It runs before the multipart
// reader touches the body, so a shed upload costs the server a header
// parse, not a gigabyte of staging I/O.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if verdict := s.limiter.take(clientKey(r)); !verdict.ok {
		verdict.writeHeaders(w)
		apiError(w, http.StatusTooManyRequests, codeRateLimited,
			"client %q is over its upload rate limit; retry in %ds", clientKey(r), verdict.resetSeconds)
		return false
	}
	if shed, wait := s.shouldShed(); shed {
		s.admission.shed.Add(1)
		// The hint reuses the estimate that decided the shed — no second
		// EWMA read, so message and Retry-After describe the same backlog.
		s.unavailableAfter(w, "estimated queue wait "+wait.Round(time.Second).String()+
			" exceeds the "+s.cfg.JobTimeout.String()+" job deadline; load shed", wait)
		return false
	}
	return true
}

// clientKey identifies the client a rate-limit bucket belongs to: the
// X-Client-ID header when the deployment hands out IDs, otherwise the
// remote host (without the ephemeral port, so one client's connections
// share a bucket).
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// rateLimiter is a per-client token bucket map. A nil limiter is the
// disarmed configuration: take answers yes without locking, timing, or
// allocating — the production fast path when -rate-limit is unset.
type rateLimiter struct {
	rate  float64 // tokens replenished per second
	burst float64 // bucket capacity

	mu      sync.Mutex
	buckets map[string]*bucket

	limited atomic.Uint64 // total 429s, for healthz
}

// bucket is one client's token state. last is a monotonic-ish wall
// reading; only differences are used.
type bucket struct {
	tokens float64
	last   time.Time
}

// maxClients bounds the bucket map so an attacker rotating client IDs
// cannot grow server memory without bound; beyond it, idle buckets are
// swept and, at worst, the oldest entries are dropped (a dropped bucket
// refills to burst — forgiving, never over-blocking).
const maxClients = 4096

// newRateLimiter builds a limiter from the configured rate and burst.
// rate <= 0 disables limiting entirely (nil limiter).
func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if burst <= 0 {
		// Default burst: 2× the sustained rate, at least one request —
		// short spikes pass, sustained abuse does not.
		b = math.Max(1, 2*rate)
	}
	return &rateLimiter{rate: rate, burst: b, buckets: make(map[string]*bucket)}
}

// rateVerdict is one take decision plus the header material a 429 needs.
type rateVerdict struct {
	ok           bool
	limit        int // bucket capacity
	remaining    int // whole tokens left
	resetSeconds int // seconds until a token is available
}

// take spends one token from key's bucket, lazily refilling from the
// elapsed time since the last take. A nil limiter always admits.
func (l *rateLimiter) take(key string) rateVerdict {
	if l == nil {
		return rateVerdict{ok: true}
	}
	now := time.Now()
	l.mu.Lock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxClients {
			l.sweepLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	v := rateVerdict{limit: int(l.burst)}
	if b.tokens >= 1 {
		b.tokens--
		v.ok = true
		v.remaining = int(b.tokens)
		l.mu.Unlock()
		return v
	}
	v.resetSeconds = int(math.Ceil((1 - b.tokens) / l.rate))
	if v.resetSeconds < 1 {
		v.resetSeconds = 1
	}
	l.mu.Unlock()
	l.limited.Add(1)
	return v
}

// sweepLocked evicts idle buckets (full again, or untouched for a
// minute) and, if none qualify, arbitrary ones — the map must stay
// bounded even under adversarial key churn. Callers hold l.mu.
func (l *rateLimiter) sweepLocked(now time.Time) {
	for k, b := range l.buckets {
		refilled := math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		if refilled >= l.burst || now.Sub(b.last) > time.Minute {
			delete(l.buckets, k)
		}
	}
	for k := range l.buckets {
		if len(l.buckets) < maxClients {
			break
		}
		delete(l.buckets, k)
	}
}

// writeHeaders stamps the draft-RFC RateLimit response headers plus
// Retry-After on a 429, so limited clients know their budget and when
// to come back.
func (v rateVerdict) writeHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set("RateLimit-Limit", strconv.Itoa(v.limit))
	h.Set("RateLimit-Remaining", strconv.Itoa(v.remaining))
	h.Set("RateLimit-Reset", strconv.Itoa(v.resetSeconds))
	h.Set("Retry-After", strconv.Itoa(v.resetSeconds))
}

// limitedCount reports the total 429s a (possibly nil) limiter has
// answered, for healthz.
func (l *rateLimiter) limitedCount() uint64 {
	if l == nil {
		return 0
	}
	return l.limited.Load()
}
