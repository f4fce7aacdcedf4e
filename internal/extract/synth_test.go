package extract_test

import (
	"slices"
	"testing"

	"diffaudit/internal/extract"
	"diffaudit/internal/synth"
)

// Every record of the six synthetic services yields, from AppendKeys, the
// reference's non-header keys as a multiset.
func TestAppendKeysMatchesReferenceOnSynth(t *testing.T) {
	for _, scale := range []float64{0.01, 0.3} {
		n := 0
		for _, st := range synth.Generate(synth.Config{Scale: scale}).Services {
			for _, rec := range st.Records() {
				req := extract.RequestView{URL: rec.URL, Cookies: rec.Cookies, BodyMIME: rec.BodyMIME, Body: rec.Body}
				var want []string
				for _, kv := range extract.Extract(req, nil, extract.MaxDepth) {
					if kv.Source != extract.SourceHeader {
						want = append(want, kv.Key)
					}
				}
				got := extract.AppendKeys(nil, req)
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("scale %v, %s %s: AppendKeys %q, reference %q", scale, st.Spec.Name, rec.URL, got, want)
				}
				n++
			}
		}
		if n == 0 {
			t.Fatalf("scale %v: no records", scale)
		}
	}
}
