package httpx_test

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"diffaudit/internal/httpx"
	"diffaudit/internal/synth"
)

// minRequest is the shortest stream one request can consume: a request
// line of a method, an empty target and a bare protocol, then the blank
// line that ends the head.
const minRequest = len("GET  HTTP/\r\n\r\n")

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
