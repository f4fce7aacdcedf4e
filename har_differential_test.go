package diffaudit_test

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diffaudit"
	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/synth"
)

// TestHARDecoderDifferential checks the one HAR decoder against
// encoding/json over the whole document, for every synthetic service's
// captures at two scales: the streamed entries equal the reference's
// Log.Entries, and LoadHARFile's records equal FromHAR over the reference.
func TestHARDecoderDifferential(t *testing.T) {
	auditor := diffaudit.New()
	dir := t.TempDir()
	for _, scale := range []float64{0.002, 0.01} {
		for _, st := range synth.Generate(synth.Config{Scale: scale}).Services {
			for _, trace := range flows.BuiltinPersonas() {
				path := filepath.Join(dir, "capture.har")
				if err := st.EmitHAR(trace).WriteFile(path); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var ref har.HAR
				if err := json.Unmarshal(data, &ref); err != nil {
					t.Fatal(err)
				}

				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				var streamed []har.Entry
				d := har.NewStreamDecoder(f)
				for {
					e, err := d.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("scale %v %s %v: %v", scale, st.Spec.Name, trace, err)
					}
					streamed = append(streamed, *e)
				}
				f.Close()
				if !reflect.DeepEqual(streamed, ref.Log.Entries) {
					t.Fatalf("scale %v %s %v: streamed entries differ from json.Unmarshal (%d vs %d)",
						scale, st.Spec.Name, trace, len(streamed), len(ref.Log.Entries))
				}

				recs, err := auditor.LoadHARFile(path, trace)
				if err != nil {
					t.Fatal(err)
				}
				if want := core.FromHAR(&ref, trace, flows.Web); !reflect.DeepEqual(recs, want) {
					t.Fatalf("scale %v %s %v: LoadHARFile records differ from FromHAR over the reference (%d vs %d)",
						scale, st.Spec.Name, trace, len(recs), len(want))
				}
			}
		}
	}
}
