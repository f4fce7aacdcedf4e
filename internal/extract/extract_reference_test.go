package extract

import (
	"encoding/json"
	"net/url"
	"sort"
	"strings"
)

// This file is the reference AppendKeys is checked against: the extractor
// as it was before the one-pass scanner, decoding every JSON document into
// an interface{} tree and mining headers, sample values and dotted paths
// besides keys. Multipart bodies go through the same eachPart as the
// production path.

// Source identifies where in the request a key/value pair was found.
type Source int

// Extraction sources.
const (
	SourceQuery Source = iota
	SourceHeader
	SourceCookie
	SourceBody
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceQuery:
		return "query"
	case SourceHeader:
		return "header"
	case SourceCookie:
		return "cookie"
	case SourceBody:
		return "body"
	default:
		return "unknown"
	}
}

// KV is one harvested key/value pair.
type KV struct {
	// Key is the raw data type string as it appeared on the wire.
	Key string
	// Value is a sample value (truncated).
	Value string
	// Path is the dotted path for nested keys ("device.os.version").
	Path string
	// Source records which part of the request carried the pair.
	Source Source
}

// standardHeaders are ubiquitous transport headers the reference skipped.
// Host and Referer stay: the paper's ontology classifies them.
var standardHeaders = map[string]bool{
	"content-length": true, "connection": true, "accept-encoding": true,
	"transfer-encoding": true, "upgrade-insecure-requests": true,
	"cache-control": true, "pragma": true, "te": true,
}

// MaxDepth is AppendKeys' nesting bound, for the external tests.
const MaxDepth = maxDepth

// Extract mines all key/value pairs from a request and its headers,
// walking nested JSON to depth. Its non-header keys are what
// appendKeys(dst, req, depth) must return, as a multiset.
func Extract(req RequestView, headers []KVPair, depth int) []KV {
	var out []KV
	if i := strings.IndexByte(req.URL, '?'); i >= 0 {
		q := req.URL[i+1:]
		if j := strings.IndexByte(q, '#'); j >= 0 {
			q = q[:j]
		}
		out = append(out, extractQuery(q, depth)...)
	}
	for _, h := range headers {
		name := strings.ToLower(strings.TrimSpace(h.Name))
		if name == "" || strings.HasPrefix(name, ":") {
			continue
		}
		if name == "cookie" || name == "set-cookie" || standardHeaders[name] {
			continue
		}
		out = append(out, KV{Key: h.Name, Value: clip(h.Value), Path: h.Name, Source: SourceHeader})
	}
	for _, c := range req.Cookies {
		if c.Name == "" {
			continue
		}
		out = append(out, KV{Key: c.Name, Value: clip(c.Value), Path: c.Name, Source: SourceCookie})
	}
	return append(out, extractBody(req.BodyMIME, req.Body, depth)...)
}

func extractQuery(q string, depth int) []KV {
	var out []KV
	for _, pair := range strings.Split(q, "&") {
		if pair == "" {
			continue
		}
		name, value, _ := strings.Cut(pair, "=")
		key, err := url.QueryUnescape(name)
		if err != nil || key == "" {
			key = name
		}
		if key == "" {
			continue
		}
		val, err := url.QueryUnescape(value)
		if err != nil {
			val = value
		}
		out = append(out, KV{Key: key, Value: clip(val), Path: key, Source: SourceQuery})
		if looksLikeJSON(val) {
			out = append(out, extractJSON([]byte(val), key, SourceQuery, depth, 1)...)
		}
	}
	return out
}

func extractBody(contentType string, body []byte, depth int) []KV {
	if len(body) == 0 {
		return nil
	}
	mime := strings.ToLower(contentType)
	switch {
	case strings.Contains(mime, "json") || looksLikeJSON(string(body)):
		return extractJSON(body, "", SourceBody, depth, 0)
	case strings.Contains(mime, "x-www-form-urlencoded"):
		kvs := extractQuery(string(body), depth)
		for i := range kvs {
			kvs[i].Source = SourceBody
		}
		return kvs
	case strings.Contains(mime, "multipart/form-data"):
		var out []KV
		eachPart(contentType, body, func(name string, data []byte) {
			val := string(data)
			out = append(out, KV{Key: name, Value: clip(val), Path: name, Source: SourceBody})
			if looksLikeJSON(val) {
				out = append(out, extractJSON(data, name, SourceBody, depth, 1)...)
			}
		})
		return out
	default:
		return nil
	}
}

func extractJSON(data []byte, prefix string, src Source, maxDepth, depth int) []KV {
	v := parseLoose(string(data))
	if v == nil {
		return nil
	}
	var out []KV
	walkJSON(v, prefix, src, maxDepth, depth, &out)
	return out
}

func walkJSON(v interface{}, path string, src Source, maxDepth, depth int, out *[]KV) {
	if depth > maxDepth {
		return
	}
	switch node := v.(type) {
	case map[string]interface{}:
		keys := make([]string, 0, len(node))
		for k := range node {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			child := joinPath(path, k)
			val := node[k]
			*out = append(*out, KV{Key: k, Value: clip(scalarString(val)), Path: child, Source: src})
			switch cv := val.(type) {
			case map[string]interface{}, []interface{}:
				walkJSON(cv, child, src, maxDepth, depth+1, out)
			case string:
				if looksLikeJSON(cv) {
					walkJSON(parseLoose(cv), child, src, maxDepth, depth+1, out)
				}
			}
		}
	case []interface{}:
		for _, item := range node {
			switch item.(type) {
			case map[string]interface{}, []interface{}:
				walkJSON(item, path, src, maxDepth, depth+1, out)
			}
		}
	}
}

// parseLoose decodes the first JSON value of s, nil on failure.
func parseLoose(s string) interface{} {
	var v interface{}
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil
	}
	return v
}

func joinPath(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "." + key
}

// scalarString renders a scalar sample value; containers render as a marker.
func scalarString(v interface{}) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case string:
		return t
	case bool:
		if t {
			return "true"
		}
		return "false"
	case json.Number:
		return t.String()
	case map[string]interface{}:
		return "{...}"
	case []interface{}:
		return "[...]"
	default:
		return ""
	}
}

// clip truncates sample values for storage.
func clip(s string) string {
	const max = 120
	if len(s) > max {
		return s[:max]
	}
	return s
}

// UniqueKeys returns the distinct Key strings across pairs, sorted.
func UniqueKeys(kvs []KV) []string {
	set := make(map[string]bool, len(kvs))
	for _, kv := range kvs {
		set[kv.Key] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
