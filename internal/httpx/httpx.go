// Package httpx parses HTTP/1.x requests out of reassembled (and, for TLS
// flows, decrypted) client→server byte streams. The DiffAudit pipeline only
// audits outgoing data, so responses are never parsed; a stream may carry
// multiple requests over one connection (keep-alive), each of which becomes
// a separate outgoing request record.
package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"diffaudit/internal/domains"
)

// Request is one parsed outgoing HTTP request. The requests a Reader
// yields for byte-identical heads share one parse: their Method, Target,
// Proto and Headers are the same strings and the same slice, so no request
// may be modified.
type Request struct {
	Method  string
	Target  string // origin-form path+query, or absolute-form URL
	Proto   string // "HTTP/1.1"
	Headers []Header
	Body    []byte
}

// Header is an ordered header field.
type Header struct {
	Name, Value string
}

// Get returns the first header value with the given name, case-insensitive.
func (r *Request) Get(name string) string {
	for _, h := range r.Headers {
		if strings.EqualFold(h.Name, name) {
			return h.Value
		}
	}
	return ""
}

// absolute reports whether the target is in absolute form and names its
// own host (RFC 9112 §3.2.2), as net/http.ReadRequest reads it: a scheme,
// "://", and an authority with a host after any userinfo. Origin form
// starts with "/" and has no scheme, so a URL in its query names nothing.
func (r *Request) absolute() bool {
	scheme, rest, ok := strings.Cut(r.Target, "://")
	if !ok || !isScheme(scheme) {
		return false
	}
	if i := strings.IndexAny(rest, "/?"); i >= 0 {
		rest = rest[:i]
	}
	return rest[strings.LastIndexByte(rest, '@')+1:] != ""
}

// isScheme reports whether s is a URI scheme: a letter, then letters,
// digits, "+", "-" or "." (RFC 3986 §3.1).
func isScheme(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		case i > 0 && ('0' <= c && c <= '9' || c == '+' || c == '-' || c == '.'):
		default:
			return false
		}
	}
	return s != ""
}

// Host returns the host the request is for (see domains.Hostname): an
// absolute-form target's own, otherwise the Host header's (RFC 9112
// §3.2.2, as net/http.ReadRequest reads it).
func (r *Request) Host() string {
	if r.absolute() {
		return domains.Hostname(r.Target)
	}
	return domains.Hostname(r.Get("Host"))
}

// URL reconstructs the full request URL, assuming https for port-less hosts
// (all audited traffic is TLS).
func (r *Request) URL() string {
	_, url := r.HostURL()
	return url
}

// HostURL returns Host and URL together, deriving the host once: an
// absolute-form target is the URL as sent, any other target is appended to
// the host.
func (r *Request) HostURL() (host, url string) {
	host = r.Host()
	if r.absolute() {
		return host, r.Target
	}
	if strings.Contains(host, ":") {
		return host, "https://[" + host + "]" + r.Target
	}
	return host, "https://" + host + r.Target
}

// NextCookie cuts the first name=value pair off a Cookie header value,
// skipping empty pairs; ok is false once none is left. The name and value
// are substrings of raw, so walking a header allocates nothing.
func NextCookie(raw string) (name, value, rest string, ok bool) {
	for raw != "" {
		var part string
		part, raw, _ = strings.Cut(raw, ";")
		if part = strings.TrimSpace(part); part != "" {
			name, value, _ = strings.Cut(part, "=")
			return name, value, raw, true
		}
	}
	return "", "", "", false
}

// Errors returned by the parser.
var (
	ErrIncomplete = errors.New("httpx: incomplete request at end of stream")
	ErrMalformed  = errors.New("httpx: malformed request")
)

var methods = map[string]bool{
	"GET": true, "POST": true, "PUT": true, "DELETE": true, "HEAD": true,
	"OPTIONS": true, "PATCH": true, "CONNECT": true, "TRACE": true,
}

// ParseStream extracts consecutive requests from a client→server stream.
// A trailing incomplete request yields the requests parsed so far along
// with ErrIncomplete; a stream that does not start with a request line
// yields ErrMalformed.
func ParseStream(stream []byte) ([]Request, error) {
	var out []Request
	rd := NewReader(stream)
	for {
		req, _, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, req)
	}
}

// Reader walks the requests of one client→server stream in order, without
// holding them. A keep-alive connection mostly repeats its last request, so
// the Reader keeps the last head it parsed: a head byte-identical to it is
// not parsed again, and its request shares that parse (see Request). Only
// the body is framed anew.
type Reader struct {
	rest []byte
	last head
	err  error
}

// head is one parsed request head: its bytes, the request it opens less
// the body, and how the body is framed.
type head struct {
	raw     string
	req     Request
	chunked bool
	size    int // the Content-Length of a body that is not chunked
}

// NewReader returns a Reader over a stream; it reads the stream in place.
func NewReader(stream []byte) *Reader { return &Reader{rest: stream} }

// Len returns the number of bytes of the stream not yet read.
func (rd *Reader) Len() int { return len(rd.rest) }

// Next returns the next request, and whether its head is byte-identical to
// the one before it. It returns io.EOF at the end of the stream,
// ErrIncomplete for a request the stream ends inside and ErrMalformed for
// one that is not HTTP/1.x; after an error Next returns it again.
func (rd *Reader) Next() (req Request, repeated bool, err error) {
	if rd.err == nil && len(rd.rest) == 0 {
		rd.err = io.EOF
	}
	if rd.err != nil {
		return Request{}, false, rd.err
	}
	req, repeated, n, err := rd.parseOne(rd.rest)
	if err != nil {
		rd.err, rd.rest = err, nil
		return Request{}, false, err
	}
	rd.rest = rd.rest[n:]
	return req, repeated, nil
}

// parseOne parses a single request from the start of data, returning the
// request, whether its head repeats the last one, and the number of bytes
// consumed.
func (rd *Reader) parseOne(data []byte) (Request, bool, int, error) {
	headEnd, consumed := endOfHead(data)
	if consumed < 0 {
		return Request{}, false, 0, ErrIncomplete
	}
	// A parsed head is never empty, so the comparison (which does not
	// allocate) cannot match before the first parse.
	repeated := rd.last.raw != "" && string(data[:headEnd]) == rd.last.raw
	if !repeated {
		h, err := parseHead(string(data[:headEnd]))
		if err != nil {
			return Request{}, false, 0, err
		}
		rd.last = h
	}
	req := rd.last.req
	body := data[consumed:]
	switch {
	case rd.last.chunked:
		decoded, n, err := decodeChunked(body)
		if err != nil {
			return Request{}, false, 0, err
		}
		req.Body = decoded
		consumed += n
	case rd.last.size > len(body):
		return Request{}, false, 0, ErrIncomplete
	case rd.last.size > 0:
		req.Body = body[:rd.last.size]
		consumed += rd.last.size
	}
	return req, repeated, consumed, nil
}

// parseHead parses a request head, the request line and the field lines
// before the empty line. The head is one string; the request line and
// every header are cut from it in a single walk.
func parseHead(raw string) (head, error) {
	line, rest := nextLine(raw)
	method, rest0, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest0, " ")
	if !ok1 || !ok2 || !methods[method] || !strings.HasPrefix(proto, "HTTP/") {
		return head{}, fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	req := Request{Method: method, Target: target, Proto: proto}
	if rest != "" {
		req.Headers = make([]Header, 0, strings.Count(rest, "\n")+1)
	}
	for first := true; rest != ""; first = false {
		line, rest = nextLine(rest)
		if line[0] == ' ' || line[0] == '\t' {
			// obs-fold (RFC 9112 §5.2): the line continues the field
			// before it, joined by one space, as net/http reads it (a
			// value still empty loses that space). The first field line
			// has nothing to continue.
			if first {
				return head{}, fmt.Errorf("%w: folded first header %q", ErrMalformed, line)
			}
			h := &req.Headers[len(req.Headers)-1]
			h.Value = strings.TrimLeft(h.Value+" "+trimOWS(line), " \t")
			continue
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return head{}, fmt.Errorf("%w: bad header %q", ErrMalformed, line)
		}
		req.Headers = append(req.Headers, Header{Name: trimOWS(name), Value: trimOWS(value)})
	}
	// The framing headers, read as net/http.ReadRequest reads them: one
	// Host at most (RFC 9112 §3.2); Content-Length values that differ make
	// the message invalid, identical repeats are one value and an empty one
	// is refused (§6.3); from HTTP/1.1 on, Transfer-Encoding must be one
	// "chunked" field, and before it the header is ignored (§6.1).
	var host, cl, te int
	var clStr, teStr string
	for _, h := range req.Headers {
		switch {
		case strings.EqualFold(h.Name, "Host"):
			host++
		case strings.EqualFold(h.Name, "Content-Length"):
			if cl++; cl == 1 {
				clStr = h.Value
			} else if h.Value != clStr {
				return head{}, fmt.Errorf("%w: content-length %q and %q differ", ErrMalformed, clStr, h.Value)
			}
		case strings.EqualFold(h.Name, "Transfer-Encoding"):
			if te++; te == 1 {
				teStr = h.Value
			}
		}
	}
	if host > 1 {
		return head{}, fmt.Errorf("%w: %d host headers", ErrMalformed, host)
	}
	size := 0
	if cl > 0 {
		var err error
		if size, err = strconv.Atoi(clStr); err != nil || signed(clStr) {
			return head{}, fmt.Errorf("%w: content-length %q", ErrMalformed, clStr)
		}
	}
	if pre11(req.Proto) {
		te = 0
	}
	if te > 1 || te == 1 && !strings.EqualFold(teStr, "chunked") {
		return head{}, fmt.Errorf("%w: transfer-encoding %q", ErrMalformed, teStr)
	}
	return head{raw: raw, req: req, chunked: te == 1, size: size}, nil
}

// trimOWS drops the optional whitespace, spaces and tabs, around a field
// name or value (RFC 9110 §5.6.3) — and nothing else, as net/textproto.
func trimOWS(s string) string { return strings.Trim(s, " \t") }

// pre11 reports whether proto names an HTTP version before 1.1, whose
// requests net/http reads without their Transfer-Encoding — HTTP/0.1 to
// HTTP/1.0; it reads HTTP/0.0 as HTTP/1.1.
func pre11(proto string) bool {
	return len(proto) == len("HTTP/1.0") && proto[6] == '.' &&
		(proto[5] == '0' && '1' <= proto[7] && proto[7] <= '9' || proto[5] == '1' && proto[7] == '0')
}

// nextLine cuts the first line off a head, dropping its LF and the CR
// before it.
func nextLine(head string) (line, rest string) {
	line, rest, _ = strings.Cut(head, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

// endOfHead finds the empty line that ends a request head: the length of
// the head before it and the offset of the body after it, or -1 for the
// offset when the stream ends first. A line ends in LF with an optional CR
// before it (RFC 9112 §2.2), as net/http reads request heads; chunk-size
// lines stay CRLF-only, as there.
func endOfHead(data []byte) (head, body int) {
	for off := 0; ; {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return 0, -1
		}
		off += nl + 1
		switch {
		case bytes.HasPrefix(data[off:], []byte("\n")):
			return off - 1, off + 1
		case bytes.HasPrefix(data[off:], []byte("\r\n")):
			return off - 1, off + 2
		}
	}
}

// signed reports whether a numeric field starts with a sign, which strconv
// accepts and RFC 9112 does not: Content-Length is 1*DIGIT and a chunk
// size 1*HEXDIG.
func signed(s string) bool { return s != "" && (s[0] == '+' || s[0] == '-') }

// decodeChunked decodes a chunked body, returning the payload and bytes
// consumed including the terminating zero chunk.
func decodeChunked(data []byte) ([]byte, int, error) {
	var out []byte
	off := 0
	for {
		nl := bytes.Index(data[off:], []byte("\r\n"))
		if nl < 0 {
			return nil, 0, ErrIncomplete
		}
		sizeStr := string(data[off : off+nl])
		if i := strings.IndexByte(sizeStr, ';'); i >= 0 {
			sizeStr = sizeStr[:i] // drop chunk extensions
		}
		sizeStr = strings.TrimSpace(sizeStr)
		size, err := strconv.ParseInt(sizeStr, 16, 32)
		if err != nil || signed(sizeStr) {
			return nil, 0, fmt.Errorf("%w: chunk size %q", ErrMalformed, sizeStr)
		}
		off += nl + 2
		if size == 0 {
			// Trailer: expect final CRLF.
			if off+2 > len(data) {
				return nil, 0, ErrIncomplete
			}
			if !bytes.HasPrefix(data[off:], []byte("\r\n")) {
				// Skip trailers until blank line.
				end := bytes.Index(data[off:], []byte("\r\n\r\n"))
				if end < 0 {
					return nil, 0, ErrIncomplete
				}
				return out, off + end + 4, nil
			}
			return out, off + 2, nil
		}
		if off+int(size)+2 > len(data) {
			return nil, 0, ErrIncomplete
		}
		out = append(out, data[off:off+int(size)]...)
		off += int(size)
		if !bytes.HasPrefix(data[off:], []byte("\r\n")) {
			return nil, 0, fmt.Errorf("%w: missing chunk terminator", ErrMalformed)
		}
		off += 2
	}
}

// Encode serializes the request as HTTP/1.1 wire bytes, adding a
// Content-Length header when a body is present and none is set.
func (r *Request) Encode() []byte {
	var b bytes.Buffer
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	target := r.Target
	if target == "" {
		target = "/"
	}
	fmt.Fprintf(&b, "%s %s %s\r\n", r.Method, target, proto)
	hasCL := false
	for _, h := range r.Headers {
		fmt.Fprintf(&b, "%s: %s\r\n", h.Name, h.Value)
		if strings.EqualFold(h.Name, "Content-Length") {
			hasCL = true
		}
	}
	if len(r.Body) > 0 && !hasCL {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	}
	b.WriteString("\r\n")
	b.Write(r.Body)
	return b.Bytes()
}
