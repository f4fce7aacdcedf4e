// Package faults makes failure a first-class, testable input to the
// audit server through named injection points (Inject): call sites on
// the server's durable paths — journal writes, snapshot writes, stream
// decoding, worker execution — declare where a fault could strike. In
// production every point is a zero-cost no-op (one atomic load, no
// allocation); tests arm a point with a Plan to return an error, inject
// latency, hold the call until released, or panic, optionally firing only
// on the Nth call. The chaos suite drives the full upload→journal→snapshot
// path this way and proves the server times out or fails jobs with a
// classified state instead of wedging or losing work. The server does not
// retry: an injected error takes the same one-attempt failure path a real
// one would.
//
// The registry is process-global on purpose: injection points are
// scattered across packages (server, store, core) and tests arm them by
// name without plumbing a handle through every layer — the same shape as
// runtime fault-injection hooks in production systems, where the no-op
// fast path is the only thing the hot path ever sees.
package faults

import (
	"sync"
	"sync/atomic"
	"time"
)

// Plan programs one injection point. The zero value fires once, on the
// first call, doing nothing visible — set Wait, Err, Delay, or Panic to
// give the firing an effect.
type Plan struct {
	// Wait, when non-nil, blocks a firing call until the channel is
	// closed, before any Delay, Panic or Err: a test holds the guarded
	// operation mid-flight for as long as it needs (a worker frozen
	// mid-audit). Only closing Wait releases the call: Reset and Clear
	// disarm the point for later calls but leave a blocked one blocked.
	Wait <-chan struct{}
	// Err is returned by Inject when the point fires, as if the guarded
	// operation had failed with it.
	Err error
	// Delay is slept before returning (latency injection — a slow disk, a
	// stalled decode). Combines with Err/Panic.
	Delay time.Duration
	// Panic, when non-empty, panics with this message from inside the
	// injection point — the "audit code blew up" case worker containment
	// must survive.
	Panic string
	// On is the 1-based call number the point first fires at; 0 means the
	// first call. Calls before On pass through untouched.
	On int
	// Count bounds how many calls fire once On is reached: 0 means one,
	// negative means every call from On onward.
	Count int
}

// point tracks one armed injection point.
type point struct {
	plan  Plan
	calls int
	fired int
}

var (
	// armed short-circuits Inject when no point is programmed anywhere —
	// the production fast path is this single atomic load.
	armed  atomic.Bool
	mu     sync.Mutex
	points = map[string]*point{}
)

// Set arms the named injection point with a plan, replacing any previous
// plan and resetting its call counters. Tests should pair Set with a
// deferred Reset.
func Set(name string, p Plan) {
	mu.Lock()
	points[name] = &point{plan: p}
	mu.Unlock()
	armed.Store(true)
}

// Clear disarms one injection point.
func Clear(name string) {
	mu.Lock()
	delete(points, name)
	empty := len(points) == 0
	mu.Unlock()
	if empty {
		armed.Store(false)
	}
}

// Reset disarms every injection point and restores the zero-cost path.
func Reset() {
	mu.Lock()
	points = map[string]*point{}
	mu.Unlock()
	armed.Store(false)
}

// Calls reports how many times the named point has been reached since it
// was armed — the chaos tests assert attempt counts with it. Returns 0
// for unarmed points.
func Calls(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if pt := points[name]; pt != nil {
		return pt.calls
	}
	return 0
}

// Inject is the call-site hook. Production: unarmed points return nil
// after one atomic load. Armed points count the call and, when the plan
// says so, wait, sleep, panic, or return the planned error — in that
// order, so a Delay+Err plan models a slow failure and a Delay-only plan a
// slow success.
func Inject(name string) error {
	if !armed.Load() {
		return nil
	}
	return inject(name)
}

// inject is the armed slow path, split out so Inject stays inlinable.
func inject(name string) error {
	mu.Lock()
	pt := points[name]
	if pt == nil {
		mu.Unlock()
		return nil
	}
	pt.calls++
	on := pt.plan.On
	if on <= 0 {
		on = 1
	}
	count := pt.plan.Count
	if count == 0 {
		count = 1
	}
	fire := pt.calls >= on && (count < 0 || pt.fired < count)
	if fire {
		pt.fired++
	}
	plan := pt.plan
	mu.Unlock()
	if !fire {
		return nil
	}
	if plan.Wait != nil {
		<-plan.Wait
	}
	if plan.Delay > 0 {
		time.Sleep(plan.Delay)
	}
	if plan.Panic != "" {
		panic("faults: injected panic at " + name + ": " + plan.Panic)
	}
	return plan.Err
}
