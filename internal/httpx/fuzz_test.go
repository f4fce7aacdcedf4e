package httpx_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"diffaudit/internal/httpx"
	"diffaudit/internal/synth"
)

// minRequest is the shortest stream one request can consume: a request
// line of a method, an empty target and a bare protocol, then the blank
// line that ends the head, each line ended by a bare LF.
const minRequest = len("GET  HTTP/\n\n")

// chunkedHead opens a POST whose body is chunked.
const chunkedHead = "POST /e HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"

// edgeStreams are streams at the parser's limits, with the error each must
// end in.
var edgeStreams = []struct {
	name, in string
	want     error
}{
	{"empty", "", nil},
	{"shortest request", "GET  HTTP/\r\n\r\n", nil},
	{"shortest request, bare LF", "GET  HTTP/\n\n", nil},
	// The largest chunk size a 32-bit parse accepts: a well-formed size
	// the stream is far too short to hold.
	{"chunk size 7fffffff", chunkedHead + "7fffffff\r\nabc", httpx.ErrIncomplete},
	// One past it: the size itself is refused, however much follows.
	{"chunk size 80000000", chunkedHead + "80000000\r\nabc\r\n0\r\n\r\n", httpx.ErrMalformed},
	{"negative chunk size", chunkedHead + "-1\r\n", httpx.ErrMalformed},
	{"content-length past the stream", "POST / HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\nab", httpx.ErrIncomplete},
	{"negative content-length", "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", httpx.ErrMalformed},
	// RFC 9112 numbers are bare digits: strconv's signs are refused, a
	// leading zero is not. A "-0" chunk would otherwise end the body early.
	{"content-length +5", "POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nabcde", httpx.ErrMalformed},
	{"content-length -0", "POST / HTTP/1.1\r\nContent-Length: -0\r\n\r\n", httpx.ErrMalformed},
	{"content-length 05", "POST / HTTP/1.1\r\nContent-Length: 05\r\n\r\nabcde", nil},
	// RFC 9112 §6.3, as net/http.ReadRequest reads it: repeats of one
	// value are that value, differing values make the message invalid.
	{"content-length repeated", "POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc", nil},
	{"content-length 3 then 5", "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde", httpx.ErrMalformed},
	{"chunk size +a", chunkedHead + "+a\r\n0123456789\r\n0\r\n\r\n", httpx.ErrMalformed},
	{"chunk size -0", chunkedHead + "-0\r\n\r\n", httpx.ErrMalformed},
	{"chunk size 05", chunkedHead + "05\r\nabcde\r\n0\r\n\r\n", nil},
}

func TestParseStreamEdges(t *testing.T) {
	for _, tc := range edgeStreams {
		if _, err := httpx.ParseStream([]byte(tc.in)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// stdlibStreams are the line-level choices where a parser could part from
// net/http.ReadRequest, one row per choice made. Each is one request, and
// ParseStream must read it as ReadRequest does: refuse it, or accept it
// with the same request line, headers, host and body.
var stdlibStreams = []struct{ name, in string }{
	// obs-fold (RFC 9112 §5.2): a line that opens with SP or HTAB continues
	// the field before it, joined by one space.
	{"obs-fold", "GET /p HTTP/1.1\r\nHost: x\r\nCookie: a=1;\r\n \t b=2\r\nX-Id: u\r\n\r\n"},
	// ... and the first field line has nothing to continue.
	{"obs-fold first header", "GET /p HTTP/1.1\r\n b: c\r\nHost: x\r\n\r\n"},
	// Bare LF (RFC 9112 §2.2) ends a line, alone or mixed with CRLF.
	{"bare LF", "POST /e?q=1 HTTP/1.1\nHost: x\nContent-Length: 3\n\nabc"},
	{"bare LF mixed", "GET /p HTTP/1.1\r\nHost: x\nCookie: a=1\r\n\r\n"},
}

func TestParseStreamMatchesReadRequest(t *testing.T) {
	for _, tc := range stdlibStreams {
		got, err := httpx.ParseStream([]byte(tc.in))
		want, werr := http.ReadRequest(bufio.NewReader(strings.NewReader(tc.in)))
		if werr != nil {
			if !errors.Is(err, httpx.ErrMalformed) {
				t.Errorf("%s: net/http refuses (%v), ParseStream err = %v, want ErrMalformed", tc.name, werr, err)
			}
			continue
		}
		if err != nil || len(got) != 1 {
			t.Errorf("%s: net/http accepts, ParseStream = %d requests, err %v", tc.name, len(got), err)
			continue
		}
		r := got[0]
		if r.Method != want.Method || r.Target != want.RequestURI || r.Proto != want.Proto || r.Host() != want.Host {
			t.Errorf("%s: request %q %q %q host %q, net/http %q %q %q host %q", tc.name,
				r.Method, r.Target, r.Proto, r.Host(), want.Method, want.RequestURI, want.Proto, want.Host)
		}
		for name, vals := range want.Header {
			if v := r.Get(name); v != vals[0] {
				t.Errorf("%s: %s = %q, net/http %q", tc.name, name, v, vals[0])
			}
		}
		if body, err := io.ReadAll(want.Body); err != nil || string(r.Body) != string(body) {
			t.Errorf("%s: body %q, net/http %q (%v)", tc.name, r.Body, body, err)
		}
	}
}

// synthStreams renders each synthetic service's first three requests as
// the keep-alive stream a client sends over one connection, and again with
// their bodies chunked. Short seeds keep the fuzzer's minimization quick.
func synthStreams(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, st := range synth.Generate(synth.Config{Scale: 0.002}).Services {
		var plain, chunked strings.Builder
		for i, r := range st.Requests {
			if i == 3 {
				break
			}
			var body []byte
			if len(r.Body) > 0 {
				var err error
				if body, err = json.Marshal(r.Body); err != nil {
					t.Fatal(err)
				}
			}
			req := &httpx.Request{
				Method:  r.Method,
				Target:  strings.TrimPrefix(r.URL(), "https://"+r.FQDN),
				Headers: []httpx.Header{{Name: "Host", Value: r.FQDN}},
				Body:    body,
			}
			plain.Write(req.Encode())
			chunked.WriteString(r.Method + " " + req.Target + " HTTP/1.1\r\nHost: " + r.FQDN + "\r\nTransfer-Encoding: chunked\r\n\r\n")
			if len(body) > 0 {
				chunked.WriteString(strconv.FormatInt(int64(len(body)), 16) + "\r\n" + string(body) + "\r\n")
			}
			chunked.WriteString("0\r\n\r\n")
		}
		out = append(out, []byte(plain.String()), []byte(chunked.String()))
	}
	return out
}

// FuzzParseStream walks arbitrary bytes through the request parser. It
// must never panic, every error is ErrIncomplete or ErrMalformed, and what
// it returns is bounded by the input: each request consumes at least
// minRequest bytes, and the bodies are bytes of the input.
//
//	go test -run '^$' -fuzz FuzzParseStream ./internal/httpx
func FuzzParseStream(f *testing.F) {
	for _, s := range synthStreams(f) {
		if _, err := httpx.ParseStream(s); err != nil {
			f.Fatalf("synthetic stream does not parse: %v", err)
		}
		f.Add(s)
	}
	for _, tc := range edgeStreams {
		f.Add([]byte(tc.in))
	}
	for _, tc := range stdlibStreams {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := httpx.ParseStream(data)
		if err != nil && !errors.Is(err, httpx.ErrIncomplete) && !errors.Is(err, httpx.ErrMalformed) {
			t.Fatalf("error %v is neither ErrIncomplete nor ErrMalformed", err)
		}
		if len(reqs)*minRequest > len(data) {
			t.Fatalf("%d requests from %d bytes", len(reqs), len(data))
		}
		body := 0
		for _, r := range reqs {
			body += len(r.Body)
		}
		if body > len(data) {
			t.Fatalf("%d body bytes from %d input bytes", body, len(data))
		}
	})
}
