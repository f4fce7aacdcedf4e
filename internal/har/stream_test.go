package har

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func streamSampleHAR() *HAR {
	h := New()
	h.Log.Pages = []Page{{ID: "page_1", Title: "https://example.com/"}}
	for i := 0; i < 3; i++ {
		h.Append(Entry{
			Pageref:         "page_1",
			StartedDateTime: time.Date(2023, 10, 2, 15, 0, i, 0, time.UTC),
			Time:            12.5,
			Connection:      "7",
			Request: Request{
				Method:      "POST",
				URL:         "https://api.example.com/v1/events?uid=42",
				HTTPVersion: "HTTP/1.1",
				Headers:     []NV{{Name: "Host", Value: "api.example.com"}},
				Cookies:     []Cookie{{Name: "sid", Value: "abc"}},
				PostData:    &PostData{MimeType: "application/json", Text: `{"k":"v"}`},
			},
			Response: Response{Status: 200, StatusText: "OK", Content: Content{Size: 2, MimeType: "application/json"}},
		})
	}
	return h
}

// drain collects every entry from a stream decoder.
func drain(t *testing.T, d *StreamDecoder) []Entry {
	t.Helper()
	var out []Entry
	for {
		e, err := d.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, *e)
	}
}

// unmarshalHAR is the reference decoder the stream decoder is checked
// against: encoding/json over the whole document.
func unmarshalHAR(t *testing.T, data []byte) *HAR {
	t.Helper()
	var h HAR
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	return &h
}

func TestStreamDecoderMatchesUnmarshal(t *testing.T) {
	data, err := streamSampleHAR().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed := unmarshalHAR(t, data)
	d := NewStreamDecoder(bytes.NewReader(data))
	got := drain(t, d)
	if !reflect.DeepEqual(got, parsed.Log.Entries) {
		t.Errorf("streamed entries differ from json.Unmarshal\n got %+v\nwant %+v", got, parsed.Log.Entries)
	}
	if d.Version() != "1.2" {
		t.Errorf("version = %q", d.Version())
	}
	if d.Creator().Name != "diffaudit" {
		t.Errorf("creator = %+v", d.Creator())
	}
}

// TestStreamDecoderFieldOrder proves the decoder is insensitive to log
// member order, including version trailing the entries array.
func TestStreamDecoderFieldOrder(t *testing.T) {
	doc := `{"log":{"entries":[{"request":{"method":"GET","url":"https://a.example/"}}],` +
		`"pages":[{"id":"p"}],"version":"1.2","creator":{"name":"x","version":"0"}}}`
	d := NewStreamDecoder(strings.NewReader(doc))
	got := drain(t, d)
	if len(got) != 1 || got[0].Request.Method != "GET" {
		t.Fatalf("entries = %+v", got)
	}
	if d.Version() != "1.2" {
		t.Errorf("trailing version not captured: %q", d.Version())
	}
}

// streamErrorCases are documents the decoder must refuse.
var streamErrorCases = map[string]string{
	"invalid json":        `{`,
	"empty":               ``,
	"missing version":     `{"log":{"entries":[]}}`,
	"unsupported version": `{"log":{"version":"2.0","entries":[]}}`,
	"truncated":           `{"log":{"version":"1.2","entries":[{"request":`,
	"not json":            `got 99 problems`,
	"duplicate entries":   `{"log":{"version":"1.2","entries":[],"entries":[]}}`,
	"trailing junk":       `{"log":{"version":"1.2","entries":[]}} junk`,
	"trailing document":   `{"log":{"version":"1.2","entries":[]}}{"log":{"version":"9"}}`,
	"trailing value":      `{"log":{"version":"1.2","entries":[]}}` + "\n0\n",
}

func TestStreamDecoderErrors(t *testing.T) {
	for name, doc := range streamErrorCases {
		d := NewStreamDecoder(strings.NewReader(doc))
		var err error
		for err == nil {
			_, err = d.Next()
		}
		if err == io.EOF {
			t.Errorf("%s: accepted", name)
		}
		// The error must stick.
		if _, err2 := d.Next(); err2 != err && err != io.EOF {
			t.Errorf("%s: error did not stick: %v vs %v", name, err2, err)
		}
	}
}

// TestStreamDecoderEmptyEntries confirms a log with no entries member and
// one with an empty array both yield zero entries.
func TestStreamDecoderEmptyEntries(t *testing.T) {
	for _, doc := range []string{
		`{"log":{"version":"1.2","creator":{"name":"x","version":"0"}}}`,
		`{"log":{"version":"1.2","entries":[]}}`,
	} {
		d := NewStreamDecoder(strings.NewReader(doc))
		if got := drain(t, d); len(got) != 0 {
			t.Errorf("%s: entries = %d", doc, len(got))
		}
	}
}

// TestStreamDecoderLargeDocument verifies the decoder handles a document
// bigger than any single read and preserves entry order.
func TestStreamDecoderLargeDocument(t *testing.T) {
	h := New()
	for i := 0; i < 500; i++ {
		h.Append(Entry{Request: Request{Method: "GET", URL: "https://example.com/", Headers: []NV{{Name: "X-I", Value: string(rune('a' + i%26))}}}})
	}
	data, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(iotest.OneByteReader(bytes.NewReader(data)))
	got := drain(t, d)
	if len(got) != 500 {
		t.Fatalf("entries = %d", len(got))
	}
	for i, e := range got {
		if e.Request.Headers[0].Value != string(rune('a'+i%26)) {
			t.Fatalf("entry %d out of order", i)
		}
	}
}

// TestStreamDecoderRoundTripJSON confirms streamed entries re-marshal to
// the same JSON as the json.Unmarshal reference's (no field loss through
// the Entry decode).
func TestStreamDecoderRoundTripJSON(t *testing.T) {
	data, err := streamSampleHAR().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed := unmarshalHAR(t, data)
	d := NewStreamDecoder(bytes.NewReader(data))
	streamed := drain(t, d)
	a, _ := json.Marshal(parsed.Log.Entries)
	b, _ := json.Marshal(streamed)
	if !bytes.Equal(a, b) {
		t.Error("re-marshaled entries differ between json.Unmarshal and stream decode")
	}
}
