// Negotiated gzip response compression for the heavy export endpoints —
// report.json, report.csv, /v1/snapshots/{ref}, and /v1/diff. Reports run to hundreds of
// kilobytes of highly repetitive JSON/CSV; compressing them is the
// cheapest bandwidth win the server has, and it composes with the
// conditional-GET machinery untouched: the ETag names the content, not
// the transfer encoding, so a 304 (which carries no body at all) is
// identical with and without compression.
//
// Writers come from a sync.Pool — gzip.Writer carries ~256 KiB of
// deflate state, which steady-state serving recycles instead of
// reallocating per response (the same discipline as the wire scratch
// pools). Compression is skipped for small bodies, where the gzip
// header and CPU outweigh the saved bytes.
package server

import (
	"compress/gzip"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// gzipMinBytes is the smallest body worth compressing: below roughly one
// MTU the response fits the wire either way and the gzip framing is pure
// overhead.
const gzipMinBytes = 1 << 10

// gzipWriters pools deflate state across responses.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// acceptsGzip reports whether the request negotiated gzip: an
// Accept-Encoding member naming gzip (or the * wildcard) whose qvalue,
// if present, is not zero.
func acceptsGzip(r *http.Request) bool {
	for _, member := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(member, ";")
		enc = strings.TrimSpace(enc)
		if enc != "gzip" && enc != "*" {
			continue
		}
		q := strings.TrimSpace(params)
		if qv, ok := strings.CutPrefix(q, "q="); ok {
			if v := strings.TrimRight(strings.TrimSpace(qv), "0."); v == "" {
				continue // q=0, q=0., q=0.000: an explicit refusal
			}
		}
		return true
	}
	return false
}

// writeMaybeGzip writes data as the response body, gzip-compressed when
// the client negotiated it and the body is big enough to pay for the
// CPU. Callers have already set Content-Type and cache headers; the
// Vary: Accept-Encoding they stamped keeps shared caches from serving a
// compressed body to a client that cannot read it.
func writeMaybeGzip(w http.ResponseWriter, r *http.Request, data []byte) {
	if len(data) < gzipMinBytes || !acceptsGzip(r) {
		// The body is complete in hand: say how long it is, so it does
		// not go out chunked and a client can tell a truncated one.
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
		return
	}
	w.Header().Set("Content-Encoding", "gzip")
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(w)
	zw.Write(data)
	zw.Close()
	// Drop the response writer before pooling so a parked writer cannot
	// pin a finished request's machinery.
	zw.Reset(io.Discard)
	gzipWriters.Put(zw)
}
