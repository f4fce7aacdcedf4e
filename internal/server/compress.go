// The response-body side of the read path: the render scratch every export
// is written into, and negotiated gzip compression for the heavy export
// endpoints — report.json, report.csv, /v1/snapshots/{ref}, and /v1/diff.
// Reports run to hundreds of kilobytes of highly repetitive JSON/CSV;
// compressing them is the cheapest bandwidth win the server has, and it
// composes with the conditional-GET machinery untouched: the ETag names
// the content, not the transfer encoding, so a 304 (which carries no body
// at all) is identical with and without compression.
//
// These are the server's only two pools, and both hold something large
// that lives exactly one response: a report-sized render buffer, and a
// gzip.Writer's ~256 KiB of deflate state. Every gzip body is compressed
// whole into a render buffer before it is written, so it goes out with a
// Content-Length; the one that outlives its response is the JSON export's,
// copied onto its snapshot's cache entry (cache.go). Compression is
// skipped for small bodies, where the gzip header and CPU outweigh the
// saved bytes.
package server

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/bits"
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

// Render buffers are size-classed by power of two, 256 B … 4 MiB, so a
// burst of large reports cannot poison the pool for small ones: a buffer
// returns to the class its capacity covers, and one beyond the top class is
// dropped rather than pinned forever.
const (
	minBufShift = 8
	maxBufShift = 22
	maxBufCap   = 1 << maxBufShift
)

// bufPools holds one pool per size class; entry i serves capacity 1<<i.
var bufPools [maxBufShift + 1]sync.Pool

// getBuf returns a zero-length buffer with capacity at least n, from the
// smallest class that holds n bytes, or a one-off allocation when n exceeds
// the top class.
func getBuf(n int) []byte {
	if n > maxBufCap {
		return make([]byte, 0, n)
	}
	class := minBufShift
	if n > 1<<minBufShift {
		class = bits.Len(uint(n - 1))
	}
	if p, _ := bufPools[class].Get().(*[]byte); p != nil {
		return (*p)[:0]
	}
	return make([]byte, 0, 1<<class)
}

// putBuf returns a buffer to the class its capacity fully covers, so a
// getBuf from that class always honors its size guarantee.
func putBuf(p []byte) {
	c := cap(p)
	if c < 1<<minBufShift || c > maxBufCap {
		return
	}
	buf := p[:0]
	bufPools[bits.Len(uint(c))-1].Put(&buf)
}

// acceptsGzip reports whether the request negotiated gzip (RFC 9110
// §12.5.3): codings and the q parameter name match case-insensitively, a
// qvalue of zero is an explicit refusal, and the * wildcard speaks only
// for codings the header does not list, so it cannot override gzip;q=0.
func acceptsGzip(r *http.Request) bool {
	star := false
	for _, member := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(member, ";")
		switch enc = strings.TrimSpace(enc); {
		case strings.EqualFold(enc, "gzip"):
			return nonZeroWeight(params)
		case enc == "*":
			star = nonZeroWeight(params)
		}
	}
	return star
}

// nonZeroWeight reports whether a member's parameters leave it a weight
// above zero: no q parameter, or one whose value is not 0, 0., 0.000 ….
func nonZeroWeight(params string) bool {
	name, value, ok := strings.Cut(params, "=")
	if !ok || !strings.EqualFold(strings.TrimSpace(name), "q") {
		return true
	}
	return strings.TrimRight(strings.TrimSpace(value), "0.") != ""
}

// writeMaybeGzip writes data as the response body, gzip-compressed when
// the client negotiated it and the body is big enough to pay for the
// CPU. Callers have already set Content-Type and cache headers; the
// Vary: Accept-Encoding they stamped keeps shared caches from serving a
// compressed body to a client that cannot read it.
func writeMaybeGzip(w http.ResponseWriter, r *http.Request, data []byte) {
	if len(data) < gzipMinBytes || !acceptsGzip(r) {
		writeBody(w, data)
		return
	}
	z := gzipBody(data)
	writeGzipBody(w, z)
	putBuf(z)
}

// writeBody writes a body that is complete in hand, saying how long it is,
// so it does not go out chunked and a client can tell a truncated one.
func writeBody(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// writeGzipBody writes an already gzip-compressed body.
func writeGzipBody(w http.ResponseWriter, z []byte) {
	w.Header().Set("Content-Encoding", "gzip")
	writeBody(w, z)
}

// gzipBody compresses data with a pooled default-level writer into a
// render buffer, which the caller returns with putBuf. The bytes depend
// only on data, so a body compressed once serves every later read. An
// eighth of the body's length leaves room to spare: the JSON exports of the
// six synthetic services compress to 2–4 % of theirs, the CSV ones to 5–7 %.
func gzipBody(data []byte) []byte {
	buf := bytes.NewBuffer(getBuf(len(data) / 8))
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(buf)
	zw.Write(data)
	zw.Close()
	// Drop the buffer before pooling so a parked writer cannot pin it.
	zw.Reset(io.Discard)
	gzipWriters.Put(zw)
	return buf.Bytes()
}

// inflate decompresses a gzip body whose content is n bytes long into a
// render buffer of that size, reading on to the end of the stream, where
// gzip checks the trailer's CRC and length.
func inflate(z []byte, n int) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(z))
	if err != nil {
		return nil, err
	}
	out := getBuf(n)[:n]
	if _, err = io.ReadFull(zr, out); err == nil {
		var rest int64
		if rest, err = io.Copy(io.Discard, zr); err == nil && rest != 0 {
			err = errors.New("server: gzip body is longer than its export")
		}
	}
	if err != nil {
		putBuf(out)
		return nil, err
	}
	return out, nil
}
