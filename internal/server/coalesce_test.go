package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"diffaudit/internal/faults"
	"diffaudit/internal/store"
)

// TestDecodeFlightJoinFinish pins the singleflight mechanics at the unit
// level: one leader per key, every later joiner coalesces and shares the
// leader's published outcome, and a finished key starts a fresh flight.
func TestDecodeFlightJoinFinish(t *testing.T) {
	c := newResultCache(1 << 20)

	f, leader := c.join("h")
	if !leader {
		t.Fatal("first join is not the leader")
	}
	f2, leader2 := c.join("h")
	if leader2 {
		t.Fatal("second join elected a second leader")
	}
	if f2 != f {
		t.Fatal("joiner got a different flight")
	}
	// A different hash is its own flight.
	fv, leaderV := c.join("g")
	if !leaderV {
		t.Fatal("distinct key did not start its own flight")
	}
	c.finish("g", fv, nil, false, nil)

	done := make(chan struct{})
	go func() {
		<-f2.done
		close(done)
	}()
	c.finish("h", f, nil, true, nil)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never released")
	}
	if !f2.stale {
		t.Error("waiter did not see the leader's stale flag")
	}
	if got := c.stats().Coalesced; got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
	// The flight is retired: the key elects a new leader.
	f3, leader3 := c.join("h")
	if !leader3 {
		t.Fatal("retired key did not elect a new leader")
	}
	c.finish("h", f3, nil, false, nil)
}

// TestColdReadStormCoalescesToOneDecode is the coalescing acceptance
// test: K concurrent cold readers of one snapshot hash perform exactly 1
// snapshot decode between them. The snapshot.decode injection point
// holds the flight leader mid-decode long enough that every other reader
// joins the flight instead of racing past it; healthz then reports the
// joiners in the cache's coalesced counter.
func TestColdReadStormCoalescesToOneDecode(t *testing.T) {
	_, ts, job := storeServer(t, Config{Workers: 1})

	faults.Set("snapshot.decode", faults.Plan{Delay: 300 * time.Millisecond, Count: -1})
	defer faults.Reset()

	const readers = 8
	path := "/v1/snapshots/" + job.SnapshotHash
	before := store.Decodes()
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	bodies := make([][]byte, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
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
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 1; g < readers; g++ {
		if !bytes.Equal(bodies[g], bodies[0]) {
			t.Fatalf("reader %d saw a different body", g)
		}
	}
	if got := store.Decodes() - before; got != 1 {
		t.Errorf("%d concurrent cold readers performed %d decodes, want exactly 1", readers, got)
	}

	// The joiners show up in healthz.
	code, health := getBody(t, ts, "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var h struct {
		Cache cacheStats `json:"cache"`
	}
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatal(err)
	}
	if h.Cache.Coalesced != readers-1 {
		t.Errorf("healthz cache.coalesced = %d, want %d", h.Cache.Coalesced, readers-1)
	}

	// The storm warmed the cache: repeat reads decode nothing.
	faults.Reset()
	before = store.Decodes()
	if code, _ := getBody(t, ts, path); code != http.StatusOK {
		t.Fatal("warm read failed")
	}
	if got := store.Decodes() - before; got != 0 {
		t.Errorf("warm read performed %d decodes, want 0", got)
	}
}
