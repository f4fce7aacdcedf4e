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
	"strconv"
	"strings"

	"diffaudit/internal/domains"
)

// Request is one parsed outgoing HTTP request.
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

// Host returns the Host header's host (see domains.Hostname).
func (r *Request) Host() string { return domains.Hostname(r.Get("Host")) }

// URL reconstructs the full request URL, assuming https for port-less hosts
// (all audited traffic is TLS).
func (r *Request) URL() string {
	if strings.Contains(r.Target, "://") {
		return r.Target
	}
	host := r.Host()
	if strings.Contains(host, ":") {
		host = "[" + host + "]"
	}
	return "https://" + host + r.Target
}

// Cookies parses the Cookie header into name/value pairs.
func (r *Request) Cookies() []Header {
	raw := r.Get("Cookie")
	if raw == "" {
		return nil
	}
	var out []Header
	for _, part := range strings.Split(raw, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, value, _ := strings.Cut(part, "=")
		out = append(out, Header{Name: name, Value: value})
	}
	return out
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
func ParseStream(stream []byte) ([]*Request, error) {
	var out []*Request
	rest := stream
	for len(rest) > 0 {
		req, n, err := parseOne(rest)
		if err != nil {
			if errors.Is(err, ErrIncomplete) && len(out) > 0 {
				return out, ErrIncomplete
			}
			return out, err
		}
		out = append(out, req)
		rest = rest[n:]
	}
	return out, nil
}

// parseOne parses a single request from the head of data, returning the
// request and the number of bytes consumed.
func parseOne(data []byte) (*Request, int, error) {
	headEnd := bytes.Index(data, []byte("\r\n\r\n"))
	if headEnd < 0 {
		return nil, 0, ErrIncomplete
	}
	head := string(data[:headEnd])
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 {
		return nil, 0, ErrMalformed
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !methods[parts[0]] || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, 0, fmt.Errorf("%w: bad request line %q", ErrMalformed, lines[0])
	}
	req := &Request{Method: parts[0], Target: parts[1], Proto: parts[2]}
	for _, line := range lines[1:] {
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, 0, fmt.Errorf("%w: bad header %q", ErrMalformed, line)
		}
		req.Headers = append(req.Headers, Header{
			Name:  strings.TrimSpace(name),
			Value: strings.TrimSpace(value),
		})
	}
	// RFC 9112 §6.3: Content-Length values that differ make the message
	// invalid. Identical repeats are one value, as net/http reads them.
	clStr := req.Get("Content-Length")
	for _, h := range req.Headers {
		if strings.EqualFold(h.Name, "Content-Length") && h.Value != clStr {
			return nil, 0, fmt.Errorf("%w: content-length %q and %q differ", ErrMalformed, clStr, h.Value)
		}
	}
	consumed := headEnd + 4
	body := data[consumed:]

	switch {
	case strings.EqualFold(req.Get("Transfer-Encoding"), "chunked"):
		decoded, n, err := decodeChunked(body)
		if err != nil {
			return nil, 0, err
		}
		req.Body = decoded
		consumed += n
	default:
		if clStr != "" {
			cl, err := strconv.Atoi(clStr)
			if err != nil || signed(clStr) {
				return nil, 0, fmt.Errorf("%w: content-length %q", ErrMalformed, clStr)
			}
			if cl > len(body) {
				return nil, 0, ErrIncomplete
			}
			if cl > 0 {
				req.Body = body[:cl]
			}
			consumed += cl
		}
	}
	return req, consumed, nil
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
