// The concurrency-identity suite's cross-package half: the in-package
// half (TestPooledWriterEquivalence) proves raw pooled scratch reuse
// never changes an output byte; this half proves the same through the
// snapshot codec, whose every decode draws index scratch from the pools.
// It lives in wire's test directory as an external package because the
// property under test is the wire pools' — store is just the heaviest
// concurrent consumer — and store cannot be imported from package wire
// itself.
package wire_test

import (
	"bytes"
	"sync"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/store"
	"diffaudit/internal/synth"
)

// TestParallelSectionDecodeIdentity (named for the section-decode pool
// that once ran inside one decode) decodes one multi-persona snapshot from
// many goroutines at once — concurrent cold readers of the server, each in
// DecodeResult over pooled scratch — and requires every result to
// re-encode to the original bytes. Run under -race this also proves the
// decode path shares no mutable scratch across goroutines.
func TestParallelSectionDecodeIdentity(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.01})
	st := ds.Service("Quizlet")
	res := core.NewPipeline().AnalyzeRecords(st.Identity(), st.Records())
	enc := store.EncodeResult(res)
	if len(res.Personas()) < 2 {
		t.Fatalf("need >=2 personas so each decode draws scratch repeatedly, have %d", len(res.Personas()))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := store.DecodeResult(enc)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(store.EncodeResult(got), enc) {
					t.Error("concurrent decode changed the canonical encoding")
					return
				}
			}
		}()
	}
	wg.Wait()
}
