package httpx_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/textproto"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"diffaudit/internal/domains"
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
	// A Content-Length that is no number is refused beside a chunked body
	// too, as net/http refuses it since Go 1.23 (Go 1.22 ignored it).
	{"chunked beside a bad content-length", "POST /p HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nContent-Length: x\r\n\r\n0\r\n\r\n", httpx.ErrMalformed},
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
	// A fold onto an empty value does not start it with a space; a fold
	// of nothing but whitespace leaves one at the end.
	{"obs-fold onto empty value", "GET /p HTTP/1.1\r\nHost: x\r\nX-A:\r\n b\r\nX-B: c\r\n \r\n\r\n"},
	// Only SP and HTAB are trimmed off a field value (RFC 9110 §5.5).
	{"no-break spaces kept", "GET /p HTTP/1.1\r\nHost: x\r\nX-A: \xc2\xa0v\xc2\xa0\r\n\r\n"},
	// RFC 9112 §3.2: a second Host makes the request invalid; an
	// absolute-form target names the host whatever Host says (§3.2.2),
	// and a URL in an origin-form target's query does not.
	{"host twice", "GET /p HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n"},
	{"absolute-form target", "GET http://a.example/p?q=1 HTTP/1.1\r\nHost: b.example\r\n\r\n"},
	{"URL in an origin-form query", "GET /p?to=https://c.example/ HTTP/1.1\r\nHost: b.example\r\n\r\n"},
	{"URL in an origin-form query, no path", "GET /p?r=https://x.example/ HTTP/1.1\r\nHost: b.example\r\n\r\n"},
	// An absolute-form target names its host only when it has one after
	// the scheme and any userinfo.
	{"absolute-form target without a host", "GET http:///p HTTP/1.1\r\nHost: b.example\r\n\r\n"},
	{"absolute-form target with only userinfo", "GET http://u@/p HTTP/1.1\r\nHost: b.example\r\n\r\n"},
	// RFC 9112 §6: an empty Content-Length is invalid; Transfer-Encoding
	// is one "chunked" field from HTTP/1.1 on, and ignored before it.
	{"empty content-length", "POST /p HTTP/1.1\r\nHost: x\r\nContent-Length: \r\n\r\n"},
	{"transfer-encoding gzip", "POST /p HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\nContent-Length: 3\r\n\r\nabc"},
	{"transfer-encoding twice", "POST /p HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"},
	{"HTTP/1.0 ignores transfer-encoding", "POST /p HTTP/1.0\r\nHost: x\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\nabc"},
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
		if u := r.URL(); u != wantURL(want) {
			t.Errorf("%s: URL %q, net/http %q", tc.name, u, wantURL(want))
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

// repeatStreams are keep-alive streams whose requests repeat their heads.
var repeatStreams = []string{
	// Heads that repeat byte for byte, with bodies that differ.
	strings.Repeat("POST /e?v=1 HTTP/1.1\r\nHost: x.example\r\nCookie: a=1; b=2\r\nContent-Length: 3\r\n\r\nabc", 2) +
		"POST /e?v=1 HTTP/1.1\r\nHost: x.example\r\nCookie: a=1; b=2\r\nContent-Length: 3\r\n\r\nxyz",
	// Chunked bodies of different lengths under one head.
	chunkedHead + "3\r\nabc\r\n0\r\n\r\n" + chunkedHead + "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n" + chunkedHead + "0\r\n\r\n",
	// An obs-fold head, repeated.
	strings.Repeat("GET /p HTTP/1.1\r\nHost: x\r\nCookie: a=1;\r\n \t b=2\r\n\r\n", 3),
	// A repeated head, then the same head cut short, then its body.
	strings.Repeat("GET /a HTTP/1.1\r\nHost: x\r\n\r\n", 2) + "GET /a HTTP/1.1\r\nHost: x\r\n",
	strings.Repeat("POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd", 2) + "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nab",
	// The same head ended by CRLF and by a bare LF: one parse serves both.
	"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /a HTTP/1.1\r\nHost: x\r\n\n",
}

// FuzzReaderMatchesLoneRequests holds the Reader's reuse of a repeated
// head to a fresh parse: each request a stream yields is what its own
// bytes yield alone, a request reported as repeated has the head of the
// one before it, and the bytes the stream ends on, alone, end the same
// way.
//
//	go test -run '^$' -fuzz FuzzReaderMatchesLoneRequests ./internal/httpx
func FuzzReaderMatchesLoneRequests(f *testing.F) {
	for _, s := range repeatStreams {
		f.Add([]byte(s))
	}
	for _, s := range synthStreams(f) {
		f.Add(s)
	}
	for _, tc := range edgeStreams {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := httpx.NewReader(data)
		var prev httpx.Request
		for i := 0; ; i++ {
			rest := data[len(data)-rd.Len():]
			req, repeated, err := rd.Next()
			if err == io.EOF {
				if len(rest) != 0 {
					t.Fatalf("io.EOF with %d bytes left", len(rest))
				}
				return
			}
			if err != nil {
				alone, aerr := httpx.ParseStream(rest)
				for _, sentinel := range []error{httpx.ErrIncomplete, httpx.ErrMalformed} {
					if errors.Is(err, sentinel) != errors.Is(aerr, sentinel) {
						t.Fatalf("request %d: stream ends in %v, its rest alone in %v", i, err, aerr)
					}
				}
				if len(alone) != 0 {
					t.Fatalf("request %d: stream ends in %v, its rest alone reads %d requests", i, err, len(alone))
				}
				return
			}
			alone, aerr := httpx.ParseStream(rest[:len(rest)-rd.Len()])
			if aerr != nil || len(alone) != 1 || !reflect.DeepEqual(alone[0], req) {
				t.Fatalf("request %d: stream reads %+v, its bytes alone %+v (err %v)", i, req, alone, aerr)
			}
			if repeated {
				head, prevHead := req, prev
				head.Body, prevHead.Body = nil, nil
				if i == 0 || !reflect.DeepEqual(head, prevHead) {
					t.Fatalf("request %d: repeated head %+v after %+v", i, head, prevHead)
				}
			}
			prev = req
		}
	})
}

// readRequest reads one request with net/http.ReadRequest, body included.
func readRequest(data []byte) (*http.Request, []byte, error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, nil, err
	}
	return req, body, nil
}

// FuzzParseStreamMatchesReadRequest holds ParseStream's first request to
// net/http.ReadRequest on the same bytes. Within compared (below), the
// parser refuses what ReadRequest refuses, and what ReadRequest accepts it
// reads to the same method, target, protocol, host, header values and
// body — except an extension method, which it refuses.
//
//	go test -run '^$' -fuzz FuzzParseStreamMatchesReadRequest ./internal/httpx
func FuzzParseStreamMatchesReadRequest(f *testing.F) {
	for _, s := range synthStreams(f) {
		f.Add(s)
	}
	for _, tc := range stdlibStreams {
		f.Add([]byte(tc.in))
	}
	for _, tc := range edgeStreams {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !compared(data) {
			return
		}
		reqs, err := httpx.ParseStream(data)
		want, body, werr := readRequest(data)
		switch {
		case werr != nil:
			if len(reqs) > 0 {
				t.Fatalf("net/http refuses (%v), ParseStream reads %+v", werr, reqs[0])
			}
			return
		case !knownMethods[want.Method]:
			if len(reqs) > 0 || !errors.Is(err, httpx.ErrMalformed) {
				t.Fatalf("extension method %q: ParseStream = %d requests, err %v, want ErrMalformed", want.Method, len(reqs), err)
			}
			return
		case len(reqs) == 0:
			t.Fatalf("net/http accepts, ParseStream refuses: %v", err)
		}
		r := reqs[0]
		if r.Method != want.Method || r.Target != want.RequestURI || r.Proto != want.Proto {
			t.Fatalf("request line %q %q %q, net/http %q %q %q", r.Method, r.Target, r.Proto, want.Method, want.RequestURI, want.Proto)
		}
		if r.Host() != domains.Hostname(want.Host) {
			t.Fatalf("host %q, net/http %q", r.Host(), want.Host)
		}
		if host, u := r.HostURL(); host != r.Host() || u != r.URL() || u != wantURL(want) {
			t.Fatalf("host and URL %q %q, URL %q, net/http %q", host, u, r.URL(), wantURL(want))
		}
		for name, vals := range want.Header {
			if v := r.Get(name); v != vals[0] && !(name == "Cache-Control" && v == "") {
				t.Fatalf("%s = %q, net/http %q", name, v, vals[0])
			}
		}
		for _, h := range r.Headers {
			switch textproto.CanonicalMIMEHeaderKey(h.Name) {
			case "Host", "Transfer-Encoding", "Content-Length":
				// ReadRequest moves these out of its header map.
			default:
				if got := want.Header.Get(h.Name); r.Get(h.Name) != got {
					t.Fatalf("%s = %q, net/http %q", h.Name, r.Get(h.Name), got)
				}
			}
		}
		if !bytes.Equal(r.Body, body) {
			t.Fatalf("body %q, net/http %q", r.Body, body)
		}
	})
}

// wantURL is the URL of a request as net/http.ReadRequest reads it: a
// target that names its own host is the URL as sent, and any other is
// appended to https:// and the host (see domains.Hostname), an IPv6 one in
// brackets.
func wantURL(req *http.Request) string {
	if req.URL.Host != "" {
		return req.RequestURI
	}
	host := domains.Hostname(req.Host)
	if strings.Contains(host, ":") {
		host = "[" + host + "]"
	}
	return "https://" + host + req.RequestURI
}

// knownMethods are the methods ParseStream reads (RFC 9110 §9 and PATCH);
// net/http also takes any other token.
var knownMethods = map[string]bool{
	"GET": true, "POST": true, "PUT": true, "DELETE": true, "HEAD": true,
	"OPTIONS": true, "PATCH": true, "CONNECT": true, "TRACE": true,
}

// compared reports whether a stream falls where ParseStream is held to
// net/http.ReadRequest. Outside it the parser is lenient on purpose — a
// capture is audited for the data it sends, not validated — or net/http's
// reading changed between the Go releases the project builds with:
//   - the request line must be "method target HTTP/d.d", the target one
//     url.ParseRequestURI accepts, and the method not CONNECT (an
//     authority-form tunnel carries no request to audit);
//   - every field line must be a fold, or a token name, a colon and a value
//     of HTAB, SP, VCHAR and obs-text;
//   - a chunked body must frame every chunk as bare hex digits, CRLF, data,
//     CRLF, and end in "0" CRLF CRLF with no trailer, and come with no
//     Content-Length that is not a number: net/http's reading of chunk
//     extensions, whitespace, trailers, bare-LF chunk lines and a bad
//     Content-Length beside a chunked body differs between releases.
func compared(data []byte) bool {
	head, body, ok := splitHead(data)
	if !ok {
		return true // no head end: both must refuse
	}
	lines := strings.Split(head, "\n")
	for i := range lines {
		lines[i] = strings.TrimSuffix(lines[i], "\r")
	}
	method, rest, ok1 := strings.Cut(lines[0], " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || method == "CONNECT" || !httpVersion(proto) {
		return false
	}
	if _, err := url.ParseRequestURI(target); err != nil {
		return false
	}
	chunked, badLength := false, false
	for _, line := range lines[1:] {
		if line[0] == ' ' || line[0] == '\t' {
			if !fieldValue(line) {
				return false
			}
			continue
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok || !token(name) || !fieldValue(value) {
			return false
		}
		chunked = chunked || strings.EqualFold(name, "Transfer-Encoding")
		if strings.EqualFold(name, "Content-Length") {
			_, err := strconv.ParseUint(strings.Trim(value, " \t"), 10, 63)
			badLength = badLength || err != nil
		}
	}
	return !chunked || !badLength && plainChunks(body)
}

// splitHead cuts a stream at the blank line ending its first head, a line
// ending in LF or CRLF.
func splitHead(data []byte) (head string, body []byte, ok bool) {
	for off := 0; ; {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return "", nil, false
		}
		off += nl + 1
		switch {
		case bytes.HasPrefix(data[off:], []byte("\n")):
			return string(data[:off-1]), data[off+1:], true
		case bytes.HasPrefix(data[off:], []byte("\r\n")):
			return string(data[:off-1]), data[off+2:], true
		}
	}
}

func httpVersion(proto string) bool {
	return len(proto) == len("HTTP/1.1") && strings.HasPrefix(proto, "HTTP/") &&
		'0' <= proto[5] && proto[5] <= '9' && proto[6] == '.' && '0' <= proto[7] && proto[7] <= '9'
}

// token reports whether s is an RFC 9110 token.
func token(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return true
}

// fieldValue reports whether every byte of s is HTAB, SP, VCHAR or
// obs-text.
func fieldValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != '\t' && (c < 0x20 || c == 0x7f) {
			return false
		}
	}
	return true
}

// plainChunks reports whether a chunked body is framed in bare hex sizes
// and CRLFs only, up to a last chunk with no trailer. A body that ends
// early is plain as far as it goes.
func plainChunks(body []byte) bool {
	for {
		nl := bytes.Index(body, []byte("\r\n"))
		if nl < 0 {
			return bytes.IndexByte(body, '\n') < 0 && hexDigits(body)
		}
		size, err := strconv.ParseUint(string(body[:nl]), 16, 31)
		if err != nil || !hexDigits(body[:nl]) {
			return false
		}
		body = body[nl+2:]
		if size == 0 {
			return len(body) < 2 || bytes.HasPrefix(body, []byte("\r\n"))
		}
		if uint64(len(body)) < size+2 {
			return true
		}
		if !bytes.HasPrefix(body[size:], []byte("\r\n")) {
			return false
		}
		body = body[size+2:]
	}
}

func hexDigits(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}
