package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"diffaudit/internal/flows"
)

// generatorSource fabricates records on the fly — nothing is ever held in
// a backing slice, so residency observed by the pipeline is entirely its
// own batching.
type generatorSource struct {
	n, i int
}

func (g *generatorSource) Next() (RequestRecord, error) {
	if g.i >= g.n {
		return RequestRecord{}, io.EOF
	}
	i := g.i
	g.i++
	traces := flows.BuiltinPersonas()
	return RequestRecord{
		Trace:    traces[i%len(traces)],
		Platform: flows.Platform(i % 2),
		Method:   "GET",
		URL:      fmt.Sprintf("https://api.quizlet.com/v1/x?user_id=u%d&gps_lat=1.5&os=android", i%97),
		FQDN:     "api.quizlet.com",
		ConnID:   fmt.Sprintf("c%d", i%7),
	}, nil
}

// TestAnalyzeStreamMatchesAnalyzeRecords checks the streaming entry point
// against the in-memory one field by field, at one worker and at several.
func TestAnalyzeStreamMatchesAnalyzeRecords(t *testing.T) {
	id := ServiceIdentity{Name: "Quizlet", Owner: "Quizlet Inc", FirstPartyESLDs: []string{"quizlet.com"}}
	recs := parallelTestRecords(1200)

	base := NewPipeline()
	base.Workers = 1
	want := base.AnalyzeRecords(id, recs)

	for _, workers := range []int{1, 2, 6} {
		pipe := NewPipeline()
		pipe.Workers = workers
		got, err := pipe.AnalyzeStream(id, SliceSource(recs))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertResultsEqual(t, workers, want, got)
	}
}

// assertResultsEqual compares every field of two service results.
func assertResultsEqual(t *testing.T, workers int, want, got *ServiceResult) {
	t.Helper()
	if want.Packets != got.Packets || want.TCPFlows != got.TCPFlows || want.DroppedKeys != got.DroppedKeys {
		t.Fatalf("workers=%d: counters diverge: want %d/%d/%d got %d/%d/%d", workers,
			want.Packets, want.TCPFlows, want.DroppedKeys, got.Packets, got.TCPFlows, got.DroppedKeys)
	}
	for _, m := range []struct {
		name      string
		want, got map[string]bool
	}{
		{"Domains", want.Domains, got.Domains},
		{"ESLDs", want.ESLDs, got.ESLDs},
		{"RawKeys", want.RawKeys, got.RawKeys},
	} {
		if len(m.want) != len(m.got) {
			t.Fatalf("workers=%d: %s size diverges: %d vs %d", workers, m.name, len(m.want), len(m.got))
		}
		for k := range m.want {
			if !m.got[k] {
				t.Fatalf("workers=%d: %s: %q missing", workers, m.name, k)
			}
		}
	}
	for _, tc := range flows.BuiltinPersonas() {
		wf, gf := want.ByTrace[tc].Flows(), got.ByTrace[tc].Flows()
		if len(wf) != len(gf) {
			t.Fatalf("workers=%d trace %v: %d flows vs %d", workers, tc, len(wf), len(gf))
		}
		for i := range wf {
			if wf[i].Key() != gf[i].Key() {
				t.Fatalf("workers=%d trace %v flow %d: %q vs %q", workers, tc, i, wf[i].Key(), gf[i].Key())
			}
			if want.ByTrace[tc].Platforms(wf[i]) != got.ByTrace[tc].Platforms(gf[i]) {
				t.Fatalf("workers=%d trace %v flow %q: platform masks diverge", workers, tc, wf[i].Key())
			}
		}
	}
}

// TestAnalyzeStreamConstantMemory is the memory-bound contract: peak batch
// residency must not grow with stream length. Records are generated on the
// fly, so the only buffering is the pipeline's own.
func TestAnalyzeStreamConstantMemory(t *testing.T) {
	id := ServiceIdentity{Name: "Quizlet", Owner: "Quizlet Inc", FirstPartyESLDs: []string{"quizlet.com"}}

	for _, workers := range []int{1, 4} {
		peak := func(n int) int32 {
			pipe := NewPipeline()
			pipe.Workers = workers
			_, stats, err := pipe.analyzeStream(context.Background(), id, false, &generatorSource{n: n})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			return stats.peakBatches
		}

		// The bound is a constant of the pipeline configuration. A
		// 10×-longer stream could admit 10× the batches if residency scaled
		// with input; both runs staying under the same constant proves it
		// does not.
		bound := int32(workers + streamQueueDepth + 1)
		small := peak(40 * streamBatchSize)
		large := peak(400 * streamBatchSize) // 10× the records
		if small > bound {
			t.Fatalf("workers=%d: peak residency %d exceeds bound %d at 40 batches", workers, small, bound)
		}
		if large > bound {
			t.Fatalf("workers=%d: peak residency %d exceeds bound %d at 400 batches (scaled with input)", workers, large, bound)
		}
	}
}

// failingSource errors mid-stream.
type failingSource struct {
	gen  generatorSource
	stop int
	err  error
}

func (f *failingSource) Next() (RequestRecord, error) {
	if f.gen.i >= f.stop {
		return RequestRecord{}, f.err
	}
	return f.gen.Next()
}

// TestAnalyzeStreamSourceError checks a mid-stream source failure is
// surfaced (not swallowed as a truncated result) at one worker and at four.
func TestAnalyzeStreamSourceError(t *testing.T) {
	id := ServiceIdentity{Name: "Quizlet"}
	wantErr := errors.New("disk on fire")
	for _, workers := range []int{1, 4} {
		pipe := NewPipeline()
		pipe.Workers = workers
		src := &failingSource{gen: generatorSource{n: 10000}, stop: 700, err: wantErr}
		res, err := pipe.AnalyzeStream(id, src)
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
		if res != nil {
			t.Fatalf("workers=%d: partial result returned alongside error", workers)
		}
	}
}

// panickingSource panics mid-stream, as a decoder bug on crafted input
// would.
type panickingSource struct {
	gen  generatorSource
	stop int
}

func (p *panickingSource) Next() (RequestRecord, error) {
	if p.gen.i >= p.stop {
		panic("decoder bug")
	}
	return p.gen.Next()
}

// TestAnalyzeStreamSourcePanic: a panic in the source reaches the caller,
// and once the caller recovers it, none of the job's workers is left
// running.
func TestAnalyzeStreamSourcePanic(t *testing.T) {
	before := runtime.NumGoroutine()
	pipe := NewPipeline()
	pipe.Workers = 4
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the source's panic did not reach the caller")
			}
		}()
		pipe.AnalyzeStream(ServiceIdentity{Name: "Quizlet"}, &panickingSource{gen: generatorSource{n: 10000}, stop: 3*streamBatchSize + 5})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the panic, %d before", n, before)
	}
}

// TestMultiSource checks concatenation order and exhaustion.
func TestMultiSource(t *testing.T) {
	a := parallelTestRecords(3)
	b := parallelTestRecords(2)
	src := MultiSource(SliceSource(a), SliceSource(nil), SliceSource(b))
	var got []RequestRecord
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if len(got) != 5 {
		t.Fatalf("records = %d, want 5", len(got))
	}
	if got[0].URL != a[0].URL || got[3].URL != b[0].URL {
		t.Error("concatenation order broken")
	}
}
