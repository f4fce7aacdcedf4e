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
// Log.Entries, and each of LoadHARFile's records carries its reference
// entry's request: method, URL, host, cookies, body and MIME type.
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
				if len(recs) != len(ref.Log.Entries) {
					t.Fatalf("scale %v %s %v: %d records from %d entries",
						scale, st.Spec.Name, trace, len(recs), len(ref.Log.Entries))
				}
				for i, rec := range recs {
					if want := requestOf(&ref.Log.Entries[i]); !reflect.DeepEqual(requestOfRecord(rec), want) {
						t.Fatalf("scale %v %s %v: record %d = %+v, reference request %+v",
							scale, st.Spec.Name, trace, i, requestOfRecord(rec), want)
					}
					if rec.Trace != trace || rec.Platform != flows.Web || rec.Repeat != 1 {
						t.Fatalf("scale %v %s %v: record %d provenance %v/%v/%d",
							scale, st.Spec.Name, trace, i, rec.Trace, rec.Platform, rec.Repeat)
					}
				}
			}
		}
	}
}

// harRequest is what an audit reads of one request.
type harRequest struct {
	Method, URL, Host, MIME, Body string
	Cookies                       [][2]string
}

// requestOf reads a reference entry's request fields.
func requestOf(e *har.Entry) harRequest {
	r := harRequest{Method: e.Request.Method, URL: e.Request.URL, Host: e.Request.Host()}
	if pd := e.Request.PostData; pd != nil {
		r.MIME, r.Body = pd.MimeType, pd.Text
	}
	for _, c := range e.Request.Cookies {
		r.Cookies = append(r.Cookies, [2]string{c.Name, c.Value})
	}
	return r
}

// requestOfRecord reads the same fields off a decoded record.
func requestOfRecord(rec core.RequestRecord) harRequest {
	r := harRequest{Method: rec.Method, URL: rec.URL, Host: rec.FQDN, MIME: rec.BodyMIME, Body: string(rec.Body)}
	for _, c := range rec.Cookies {
		r.Cookies = append(r.Cookies, [2]string{c.Name, c.Value})
	}
	return r
}
