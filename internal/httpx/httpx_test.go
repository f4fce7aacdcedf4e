package httpx

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleGet(t *testing.T) {
	stream := []byte("GET /search?q=math HTTP/1.1\r\nHost: quizlet.com\r\nUser-Agent: test\r\n\r\n")
	reqs, err := ParseStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 {
		t.Fatalf("requests = %d", len(reqs))
	}
	r := reqs[0]
	if r.Method != "GET" || r.Target != "/search?q=math" || r.Proto != "HTTP/1.1" {
		t.Errorf("request line: %+v", r)
	}
	if r.Host() != "quizlet.com" {
		t.Errorf("host = %q", r.Host())
	}
	if r.URL() != "https://quizlet.com/search?q=math" {
		t.Errorf("url = %q", r.URL())
	}
}

func TestParsePostWithBody(t *testing.T) {
	body := `{"username":"kid1","age":12}`
	stream := []byte("POST /users HTTP/1.1\r\nHost: www.duolingo.com\r\nContent-Type: application/json\r\nContent-Length: " +
		itoa(len(body)) + "\r\n\r\n" + body)
	reqs, err := ParseStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if string(reqs[0].Body) != body {
		t.Errorf("body = %q", reqs[0].Body)
	}
}

func itoa(n int) string { return strings.TrimSpace(strings.Repeat("", 0)) + fmtInt(n) }

func fmtInt(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestParsePipelined(t *testing.T) {
	stream := []byte(
		"GET /a HTTP/1.1\r\nHost: x.com\r\n\r\n" +
			"POST /b HTTP/1.1\r\nHost: x.com\r\nContent-Length: 2\r\n\r\nhi" +
			"GET /c HTTP/1.1\r\nHost: x.com\r\n\r\n")
	reqs, err := ParseStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("requests = %d, want 3", len(reqs))
	}
	if reqs[1].Method != "POST" || string(reqs[1].Body) != "hi" {
		t.Errorf("middle request: %+v", reqs[1])
	}
	if reqs[2].Target != "/c" {
		t.Errorf("last target = %q", reqs[2].Target)
	}
}

func TestParseChunked(t *testing.T) {
	stream := []byte("POST /e HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n" +
		"GET /after HTTP/1.1\r\nHost: x\r\n\r\n")
	reqs, err := ParseStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("requests = %d", len(reqs))
	}
	if string(reqs[0].Body) != "Wikipedia" {
		t.Errorf("chunked body = %q", reqs[0].Body)
	}
	if reqs[1].Target != "/after" {
		t.Error("request after chunked body lost")
	}
}

func TestParseChunkedWithExtensionAndTrailer(t *testing.T) {
	stream := []byte("POST /e HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"3;ext=1\r\nabc\r\n0\r\nX-Trailer: v\r\n\r\n")
	reqs, err := ParseStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if string(reqs[0].Body) != "abc" {
		t.Errorf("body = %q", reqs[0].Body)
	}
}

func TestParseIncomplete(t *testing.T) {
	// Headers cut off.
	if _, err := ParseStream([]byte("GET / HTTP/1.1\r\nHost: x\r\n")); !errors.Is(err, ErrIncomplete) {
		t.Errorf("cut headers: %v", err)
	}
	// Body cut off after a complete request.
	stream := []byte("GET /a HTTP/1.1\r\nHost: x\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
	reqs, err := ParseStream(stream)
	if !errors.Is(err, ErrIncomplete) {
		t.Errorf("err = %v", err)
	}
	if len(reqs) != 1 || reqs[0].Target != "/a" {
		t.Errorf("salvaged requests = %+v", reqs)
	}
}

func TestParseMalformed(t *testing.T) {
	for _, in := range []string{
		"NOTAMETHOD / HTTP/1.1\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n",
		"\x16\x03\x03\x00\x05hello", // TLS bytes
	} {
		if _, err := ParseStream([]byte(in)); err == nil {
			t.Errorf("ParseStream(%q) succeeded", in)
		}
	}
}

func TestHeaderAccessors(t *testing.T) {
	r := &Request{Headers: []Header{
		{Name: "Host", Value: "Example.COM:443"},
		{Name: "Cookie", Value: "sid=abc; theme=dark; empty"},
		{Name: "X-Dup", Value: "first"},
		{Name: "x-dup", Value: "second"},
	}}
	if r.Host() != "example.com" {
		t.Errorf("host = %q", r.Host())
	}
	if r.Get("X-DUP") != "first" {
		t.Error("Get should return first match")
	}
	var cookies []Header
	for raw := r.Get("Cookie"); ; {
		name, value, rest, ok := NextCookie(raw)
		if !ok {
			break
		}
		cookies, raw = append(cookies, Header{Name: name, Value: value}), rest
	}
	if len(cookies) != 3 || cookies[0].Name != "sid" || cookies[0].Value != "abc" {
		t.Errorf("cookies = %+v", cookies)
	}
	if cookies[2].Name != "empty" || cookies[2].Value != "" {
		t.Errorf("valueless cookie = %+v", cookies[2])
	}
	for _, raw := range []string{"", ";", " ; ;  "} {
		if _, _, _, ok := NextCookie(raw); ok {
			t.Errorf("cookie header %q yields a cookie", raw)
		}
	}
}

// TestRequestHost: the Host header names the destination without
// userinfo, port or IPv6 brackets, and URL puts the brackets back.
func TestRequestHost(t *testing.T) {
	cases := []struct{ header, want, url string }{
		{"Example.COM:443", "example.com", "https://example.com/p"},
		{"tracker.example", "tracker.example", "https://tracker.example/p"},
		{"user:pw@tracker.example", "tracker.example", "https://tracker.example/p"},
		{"user@Tracker.example:8443", "tracker.example", "https://tracker.example/p"},
		{"[2001:db8::1]:443", "2001:db8::1", "https://[2001:db8::1]/p"},
		{"[2001:DB8::1]", "2001:db8::1", "https://[2001:db8::1]/p"},
		{"2001:db8::1", "2001:db8::1", "https://[2001:db8::1]/p"},
		{"", "", "https:///p"},
	}
	for _, c := range cases {
		r := &Request{Target: "/p", Headers: []Header{{Name: "Host", Value: c.header}}}
		if got := r.Host(); got != c.want {
			t.Errorf("Host(%q) = %q, want %q", c.header, got, c.want)
		}
		if got := r.URL(); got != c.url {
			t.Errorf("URL with Host %q = %q, want %q", c.header, got, c.url)
		}
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	orig := &Request{
		Method: "POST",
		Target: "/v1/events?sdk=1",
		Headers: []Header{
			{Name: "Host", Value: "events.duolingo.com"},
			{Name: "Content-Type", Value: "application/json"},
		},
		Body: []byte(`{"event":"lesson_start"}`),
	}
	reqs, err := ParseStream(orig.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got := reqs[0]
	if got.Method != orig.Method || got.Target != orig.Target || !bytes.Equal(got.Body, orig.Body) {
		t.Errorf("round trip: %+v", got)
	}
	if got.Get("Content-Length") == "" {
		t.Error("Content-Length not added")
	}
}

func TestAbsoluteFormURL(t *testing.T) {
	r := &Request{Method: "GET", Target: "http://proxy.example/x", Proto: "HTTP/1.1"}
	if r.URL() != "http://proxy.example/x" {
		t.Errorf("absolute form url = %q", r.URL())
	}
}

// Property: Encode→ParseStream is the identity on method/target/body for
// any printable body.
func TestEncodeParseProperty(t *testing.T) {
	f := func(body []byte, seed uint8) bool {
		methodsList := []string{"GET", "POST", "PUT", "DELETE", "PATCH"}
		r := &Request{
			Method:  methodsList[int(seed)%len(methodsList)],
			Target:  "/p" + fmtInt(int(seed)),
			Headers: []Header{{Name: "Host", Value: "h.example"}},
			Body:    body,
		}
		reqs, err := ParseStream(r.Encode())
		if err != nil || len(reqs) != 1 {
			return false
		}
		got := reqs[0]
		if len(body) == 0 {
			return len(got.Body) == 0 && got.Method == r.Method
		}
		return bytes.Equal(got.Body, body) && got.Method == r.Method && got.Target == r.Target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestReaderRepeatedHeads: a head byte-identical to the one before it is
// reported as repeated and shares that head's parse, whatever its body;
// any other head is parsed afresh.
func TestReaderRepeatedHeads(t *testing.T) {
	head := "POST /e HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n"
	stream := head + "ab" + head + "cd" + "POST /e HTTP/1.1\r\nHost: y\r\nContent-Length: 2\r\n\r\nef" + head + "gh"
	rd := NewReader([]byte(stream))
	var got []Request
	for _, want := range []bool{false, true, false, false} {
		req, repeated, err := rd.Next()
		if err != nil || repeated != want {
			t.Fatalf("request %d: repeated %v, err %v; want %v", len(got), repeated, err, want)
		}
		got = append(got, req)
	}
	if _, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after the last request: %v, want io.EOF", err)
	}
	if &got[0].Headers[0] != &got[1].Headers[0] || &got[0].Headers[0] == &got[3].Headers[0] {
		t.Error("a repeated head does not share its parse, or a head that is not repeated does")
	}
	for i, body := range []string{"ab", "cd", "ef", "gh"} {
		if string(got[i].Body) != body {
			t.Errorf("request %d body %q, want %q", i, got[i].Body, body)
		}
	}
}
