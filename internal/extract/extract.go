// Package extract harvests raw data types from outgoing requests. Following
// the DiffAudit methodology, the key/value pairs of a request are mined
// recursively and their keys become the raw data types fed to the
// classifier. Sources mined: URL query strings, cookies, JSON bodies
// (including JSON nested inside string values), form-urlencoded and
// multipart/form-data bodies. Headers are not mined: per the paper they
// carry the destination, not payload data.
package extract

import (
	"bytes"
	"io"
	"mime"
	"mime/multipart"
	"net/url"
	"strings"
)

// RequestView is the part of a request keys are mined from; both the HAR
// path and the PCAP path produce it.
type RequestView struct {
	URL     string
	Cookies []KVPair
	// BodyMIME is the Content-Type; bodies are parsed as JSON,
	// form-urlencoded or multipart accordingly (JSON is also sniffed).
	BodyMIME string
	Body     []byte
}

// KVPair is a plain name/value pair.
type KVPair struct{ Name, Value string }

// maxDepth bounds recursion into nested JSON: a container or embedded
// document deeper than it is checked but not mined.
const maxDepth = 8

// AppendKeys appends the raw data types of one request to dst and returns
// the extended slice: one key per key/value pair mined, in no particular
// order, so a key repeats as often as the request carries it.
func AppendKeys(dst []string, req RequestView) []string {
	return appendKeys(dst, req, maxDepth)
}

// appendKeys is AppendKeys walking nested JSON to the given depth.
func appendKeys(dst []string, req RequestView, depth int) []string {
	s := scanner{maxDepth: depth, keys: dst}
	if i := strings.IndexByte(req.URL, '?'); i >= 0 {
		q, _, _ := strings.Cut(req.URL[i+1:], "#")
		s.query(q)
	}
	for _, c := range req.Cookies {
		if c.Name != "" {
			s.keys = append(s.keys, c.Name)
		}
	}
	if len(req.Body) > 0 {
		s.body(req.BodyMIME, req.Body)
	}
	return s.keys
}

// query mines a raw query string or form-urlencoded body: every pair's name
// is a key, and a value that looks like JSON is mined one level down.
func (s *scanner) query(q string) {
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		name, value, _ := strings.Cut(pair, "=")
		key, err := url.QueryUnescape(name)
		if err != nil || key == "" {
			key = name
		}
		if key == "" {
			continue
		}
		s.keys = append(s.keys, key)
		if v, err := url.QueryUnescape(value); err == nil {
			value = v
		}
		if looksLikeJSON(value) {
			s.document([]byte(value), 1)
		}
	}
}

// body mines a request body according to its Content-Type.
func (s *scanner) body(contentType string, body []byte) {
	lower := strings.ToLower(contentType)
	switch {
	case strings.Contains(lower, "json") || bytesLookLikeJSON(body):
		s.document(body, 0)
	case strings.Contains(lower, "x-www-form-urlencoded"):
		s.query(string(body))
	case strings.Contains(lower, "multipart/form-data"):
		eachPart(contentType, body, func(name string, data []byte) {
			s.keys = append(s.keys, name)
			if bytesLookLikeJSON(data) {
				s.document(data, 1)
			}
		})
	}
}

// eachPart calls fn with the form field name and the first 64 KiB of every
// named part of a multipart/form-data body. The boundary is taken from the
// Content-Type as sent, since boundaries are case-sensitive.
func eachPart(contentType string, body []byte, fn func(name string, data []byte)) {
	_, params, err := mime.ParseMediaType(contentType)
	if err != nil || params["boundary"] == "" {
		return
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	for {
		part, err := mr.NextPart()
		if err != nil {
			return
		}
		if name := part.FormName(); name != "" {
			// A part cut short still names its field: keep what was read.
			data, _ := io.ReadAll(io.LimitReader(part, 1<<16))
			fn(name, data)
		}
	}
}

// looksLikeJSON reports whether a string plausibly holds a JSON document:
// trimmed of Unicode space, it is bracketed by {} or [].
func looksLikeJSON(s string) bool {
	s = strings.TrimSpace(s)
	return len(s) >= 2 && (s[0] == '{' && s[len(s)-1] == '}' || s[0] == '[' && s[len(s)-1] == ']')
}

// bytesLookLikeJSON is looksLikeJSON without copying the bytes to a string.
func bytesLookLikeJSON(b []byte) bool {
	b = bytes.TrimSpace(b)
	return len(b) >= 2 && (b[0] == '{' && b[len(b)-1] == '}' || b[0] == '[' && b[len(b)-1] == ']')
}
