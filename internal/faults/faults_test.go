package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestInjectDisabledIsNoOp: the production path — nothing armed — returns
// nil for any name and counts nothing.
func TestInjectDisabledIsNoOp(t *testing.T) {
	Reset()
	if err := Inject("store.write"); err != nil {
		t.Fatalf("unarmed Inject = %v", err)
	}
	if n := Calls("store.write"); n != 0 {
		t.Fatalf("unarmed Calls = %d", n)
	}
}

// TestInjectErrorPlan: an armed point returns its error, once by default,
// and keeps counting calls afterwards.
func TestInjectErrorPlan(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Set("p", Plan{Err: boom})
	if err := Inject("p"); err != boom {
		t.Fatalf("first call = %v, want boom", err)
	}
	if err := Inject("p"); err != nil {
		t.Fatalf("second call = %v, want nil (Count defaults to 1)", err)
	}
	if n := Calls("p"); n != 2 {
		t.Fatalf("Calls = %d, want 2", n)
	}
	// Other points stay unarmed.
	if err := Inject("q"); err != nil {
		t.Fatalf("unarmed sibling = %v", err)
	}
}

// TestInjectOnAndCount: On delays the first firing, Count bounds firings,
// negative Count fires forever.
func TestInjectOnAndCount(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Set("p", Plan{Err: boom, On: 2, Count: 2})
	got := []bool{Inject("p") != nil, Inject("p") != nil, Inject("p") != nil, Inject("p") != nil}
	want := []bool{false, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d fired=%v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}

	Set("always", Plan{Err: boom, Count: -1})
	for i := 0; i < 5; i++ {
		if Inject("always") == nil {
			t.Fatalf("Count=-1 call %d did not fire", i+1)
		}
	}
}

// TestInjectDelay: a latency plan sleeps before returning.
func TestInjectDelay(t *testing.T) {
	defer Reset()
	Set("slow", Plan{Delay: 30 * time.Millisecond, Count: -1})
	start := time.Now()
	if err := Inject("slow"); err != nil {
		t.Fatalf("delay-only plan returned %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("Inject returned after %v, want ≥30ms", d)
	}
}

// TestInjectPanic: a panic plan panics from inside Inject with the point
// name in the message — what worker containment recovers from.
func TestInjectPanic(t *testing.T) {
	defer Reset()
	Set("worker.panic", Plan{Panic: "chaos"})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "worker.panic") || !strings.Contains(msg, "chaos") {
			t.Fatalf("panic message = %q", msg)
		}
	}()
	Inject("worker.panic")
}

// TestClearAndReset: Clear disarms one point, Reset disarms everything.
func TestClearAndReset(t *testing.T) {
	boom := errors.New("boom")
	Set("a", Plan{Err: boom, Count: -1})
	Set("b", Plan{Err: boom, Count: -1})
	Clear("a")
	if err := Inject("a"); err != nil {
		t.Fatalf("cleared point fired: %v", err)
	}
	if err := Inject("b"); err == nil {
		t.Fatal("sibling was disarmed by Clear")
	}
	Reset()
	if err := Inject("b"); err != nil {
		t.Fatalf("Reset left a point armed: %v", err)
	}
}

// BenchmarkInjectDisabled pins the production cost of an unarmed point:
// one atomic load, zero allocations.
func BenchmarkInjectDisabled(b *testing.B) {
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Inject("store.write"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInjectWait: a firing call blocks until Wait is closed and then takes
// the rest of its plan; On and Count still pick the calls that fire, a
// call that does not fire passes straight through while another is
// blocked, and Reset leaves a blocked call blocked.
func TestInjectWait(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	gate := make(chan struct{})
	Set("p", Plan{Wait: gate, Err: boom, On: 2})
	if err := Inject("p"); err != nil {
		t.Fatalf("call 1 (before On) = %v, want nil", err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- Inject("p") }()
	for Calls("p") < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := Inject("p"); err != nil {
		t.Fatalf("call 3 (past Count) = %v, want nil", err)
	}
	Reset()
	select {
	case err := <-blocked:
		t.Fatalf("call 2 returned %v before Wait was closed", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := Inject("p"); err != nil {
		t.Fatalf("after Reset = %v, want nil", err)
	}
	close(gate)
	if err := <-blocked; err != boom {
		t.Fatalf("call 2 after Wait closed = %v, want boom", err)
	}
}
