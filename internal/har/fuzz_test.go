package har_test

import (
	"bytes"
	"testing"

	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/synth"
)

// FuzzStreamDecoder: on any input the one HAR decoder never panics, ends
// in a single terminal result (an error or io.EOF) that every later Next
// repeats, and never yields more entries than the input has bytes.
func FuzzStreamDecoder(f *testing.F) {
	// A synthetic capture cut to its first few entries: real field shapes
	// at a size the mutator can work with.
	ds := synth.Generate(synth.Config{Scale: 0.01, Personas: []synth.PersonaPlan{{Persona: flows.Child}}})
	h := ds.Service("YouTube").EmitHAR(flows.Child)
	h.Log.Entries = h.Log.Entries[:4]
	doc, err := h.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	f.Add([]byte(har.ChromeDevToolsHAR))
	for _, doc := range har.StreamErrorCases {
		f.Add([]byte(doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d := har.NewStreamDecoder(bytes.NewReader(data))
		var err error
		for n := 0; err == nil; n++ {
			if n > len(data) {
				t.Fatalf("%d entries out of %d bytes", n, len(data))
			}
			_, err = d.Next()
		}
		for i := 0; i < 3; i++ {
			if _, again := d.Next(); again != err {
				t.Fatalf("terminal result did not stick: %v, then %v", err, again)
			}
		}
	})
}
