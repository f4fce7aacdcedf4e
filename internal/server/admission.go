// Deadline-aware admission control: the one overload defense in front
// of the multipart reader, so an upload that cannot be served in time is
// shed before a single body byte is read.
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
// There is no per-client rate limit: the server treats every uploader
// alike, and the bounded queue's 503 is its backpressure. Per-client
// limits belong in a fronting proxy, which knows who its clients are.
//
// The chaos suite exercises the shed; the "admit.slow" injection point
// forces the wait estimate past any deadline so tests (and operators
// rehearsing runbooks) can drive the shed path on demand.
package server

import (
	"math"
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
