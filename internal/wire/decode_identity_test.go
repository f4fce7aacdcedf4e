// Concurrent decode identity through the snapshot codec, the heaviest
// consumer of wire.Reader. It is an external test package because store
// cannot be imported from package wire itself.
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
// DecodeResult — and requires every result to re-encode to the original
// bytes. Run under -race this also proves the decode path shares no
// mutable state across goroutines.
func TestParallelSectionDecodeIdentity(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.01})
	st := ds.Service("Quizlet")
	res := core.NewPipeline().AnalyzeRecords(st.Identity(), st.Records())
	enc := store.EncodeResult(res)
	if len(res.Personas()) < 2 {
		t.Fatalf("need >=2 personas so each decode walks several flow sections, have %d", len(res.Personas()))
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
