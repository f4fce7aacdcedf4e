package har

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func sampleHAR() *HAR {
	h := New()
	h.Append(Entry{
		StartedDateTime: time.Date(2023, 10, 2, 15, 4, 5, 0, time.UTC),
		Time:            12.5,
		Request: Request{
			Method:      "POST",
			URL:         "https://www.duolingo.com/2017-06-30/users?fields=id",
			HTTPVersion: "HTTP/1.1",
			Headers: []NV{
				{Name: "Host", Value: "www.duolingo.com"},
				{Name: "Content-Type", Value: "application/json"},
			},
			QueryString: []NV{{Name: "fields", Value: "id"}},
			Cookies:     []Cookie{{Name: "session", Value: "abc123"}},
			PostData: &PostData{
				MimeType: "application/json",
				Text:     `{"age":12,"username":"kid1"}`,
			},
			BodySize: 28,
		},
		Response: Response{
			Status:      200,
			StatusText:  "OK",
			HTTPVersion: "HTTP/1.1",
			Content:     Content{Size: 2, MimeType: "application/json", Text: "{}"},
		},
	})
	return h
}

// TestRoundTrip: what Marshal writes, the stream decoder reads back whole.
func TestRoundTrip(t *testing.T) {
	h := sampleHAR()
	data, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(bytes.NewReader(data))
	got := New()
	got.Log.Entries = drain(t, d)
	got.Log.Version, got.Log.Creator = d.Version(), d.Creator()
	if !reflect.DeepEqual(h, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestFileRoundTrip(t *testing.T) {
	h := sampleHAR()
	path := filepath.Join(t.TempDir(), "trace.har")
	if err := h.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := drain(t, NewStreamDecoder(f))
	if len(got) != 1 {
		t.Fatalf("entries = %d, want 1", len(got))
	}
	if got[0].Request.URL != h.Log.Entries[0].Request.URL {
		t.Error("URL not preserved")
	}
}

// TestReadStream: a reader that fails mid-document fails the decode with
// its own error — never a clean io.EOF over the entries read so far.
func TestReadStream(t *testing.T) {
	data, _ := streamSampleHAR().Marshal()
	boom := errors.New("disk on fire")
	for _, cut := range []int{0, 40, len(data) / 2, len(data) - 3} {
		d := NewStreamDecoder(io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(boom)))
		var err error
		for err == nil {
			_, err = d.Next()
		}
		if !errors.Is(err, boom) {
			t.Errorf("cut at %d: err = %v, want the reader's error", cut, err)
		}
	}
}

func TestRequestHost(t *testing.T) {
	cases := []struct {
		url, hostHeader, want string
	}{
		{"https://www.roblox.com/games", "", "www.roblox.com"},
		{"https://Metrics.Roblox.com:443/e", "", "metrics.roblox.com"},
		{"http://quizlet.com?x=1", "", "quizlet.com"},
		{"", "fallback.example.com", "fallback.example.com"},
		{"https://tiktok.com#frag", "", "tiktok.com"},
		{"https://user:pw@tracker.example/x", "", "tracker.example"},
		{"https://user@Tracker.example:8443/", "", "tracker.example"},
		{"https://a@b@tracker.example/?next=x@y", "", "tracker.example"},
		{"https://[2001:db8::1]:443/p", "", "2001:db8::1"},
		{"https://[2001:DB8::1]/p", "", "2001:db8::1"},
		{"", "Fallback.example.com:8080", "fallback.example.com"},
	}
	for _, c := range cases {
		r := Request{URL: c.url}
		if c.hostHeader != "" {
			r.Headers = []NV{{Name: "host", Value: c.hostHeader}}
		}
		if got := r.Host(); got != c.want {
			t.Errorf("Host(%q) = %q, want %q", c.url, got, c.want)
		}
	}
}

func TestRequestHeader(t *testing.T) {
	r := Request{Headers: []NV{
		{Name: "Content-Type", Value: "application/json"},
		{Name: "X-Custom", Value: "a"},
		{Name: "x-custom", Value: "b"},
	}}
	if got := r.Header("content-type"); got != "application/json" {
		t.Errorf("Header(content-type) = %q", got)
	}
	if got := r.Header("X-CUSTOM"); got != "a" {
		t.Errorf("Header(X-CUSTOM) = %q, want first match", got)
	}
	if got := r.Header("missing"); got != "" {
		t.Errorf("Header(missing) = %q", got)
	}
}

// chromeDevToolsHAR is a trimmed document as exported by Chrome DevTools,
// with fields this library does not model.
const chromeDevToolsHAR = `{
  "log": {
    "version": "1.2",
    "creator": {"name": "WebInspector", "version": "537.36"},
    "pages": [{"startedDateTime":"2023-10-02T15:04:05.000Z","id":"page_1","title":"https://quizlet.com"}],
    "entries": [{
      "_initiator": {"type": "script"},
      "_priority": "High",
      "startedDateTime": "2023-10-02T15:04:05.123Z",
      "time": 45.2,
      "request": {
        "method": "GET",
        "url": "https://ads.pubmatic.com/AdServer/js/pug?rnd=123",
        "httpVersion": "http/2.0",
        "headers": [{"name": "User-Agent", "value": "Mozilla/5.0"}],
        "queryString": [{"name": "rnd", "value": "123"}],
        "cookies": [],
        "headersSize": -1,
        "bodySize": 0
      },
      "response": {
        "status": 200, "statusText": "", "httpVersion": "http/2.0",
        "headers": [], "cookies": [],
        "content": {"size": 0, "mimeType": "image/gif"},
        "redirectURL": "", "headersSize": -1, "bodySize": 0,
        "_transferSize": 120
      },
      "cache": {},
      "timings": {"blocked": 1, "dns": -1, "connect": -1, "send": 0, "wait": 40, "receive": 4}
    }]
  }
}
`

func TestChromeDevToolsCompatibility(t *testing.T) {
	d := NewStreamDecoder(strings.NewReader(chromeDevToolsHAR))
	entries := drain(t, d)
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Request.Host() != "ads.pubmatic.com" {
		t.Errorf("host = %q", e.Request.Host())
	}
	if !strings.HasPrefix(e.Request.URL, "https://ads.pubmatic.com/") {
		t.Errorf("url = %q", e.Request.URL)
	}
	if e.Request.QueryString[0].Name != "rnd" {
		t.Error("query string not parsed")
	}
	if d.Version() != "1.2" || d.Creator().Name != "WebInspector" {
		t.Errorf("log metadata = %q %+v", d.Version(), d.Creator())
	}
}
