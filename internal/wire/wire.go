// Package wire implements the binary primitives the snapshot codec is
// built from: a append-only writer and a bounds-checked reader over
// uvarints, length-prefixed strings, and raw bytes.
//
// The reader is deliberately paranoid: every read is checked against the
// remaining input, errors are sticky, and element counts are validated
// against the bytes that could possibly back them — so a decoder built on
// it fails cleanly on truncated or corrupted input instead of panicking or
// allocating attacker-controlled amounts of memory. The snapshot fuzz
// harness leans on exactly these properties.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Writer accumulates an encoding. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded bytes accumulated so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer to empty, keeping the allocated capacity so
// the next encoding reuses the same backing array.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Grow ensures capacity for at least n more bytes, so a caller that knows
// the final encoding size up front pays one allocation instead of the
// append doubling walk.
func (w *Writer) Grow(n int) {
	if n <= cap(w.buf)-len(w.buf) {
		return
	}
	grown := make([]byte, len(w.buf), len(w.buf)+n)
	copy(grown, w.buf)
	w.buf = grown
}

// Raw appends bytes verbatim.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Byte appends one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Int appends a non-negative int as a uvarint. Negative values encode as 0
// — the codec never writes negative quantities.
func (w *Writer) Int(v int) {
	if v < 0 {
		v = 0
	}
	w.Uvarint(uint64(v))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes an encoding produced by Writer. Errors are sticky: after
// the first failure every subsequent read returns zero values, so decoders
// can read a whole section and check Err once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decoding error ("" when none so far).
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("wire: truncated input (byte at offset %d)", r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Bool reads one byte as a bool, rejecting values other than 0 and 1 so
// the encoding stays canonical.
func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("wire: invalid bool byte 0x%02x", b)
		return false
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("wire: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int reads a uvarint into an int, rejecting values that overflow.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > uint64(int(^uint(0)>>1)) {
		r.fail("wire: integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count reads an element count and validates it against the remaining
// input, given that each element occupies at least minBytes bytes. A
// corrupted count therefore fails immediately instead of sizing a huge
// allocation.
func (r *Reader) Count(minBytes int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > r.Remaining()/minBytes {
		r.fail("wire: count %d exceeds remaining input (%d bytes)", n, r.Remaining())
		return 0
	}
	return n
}

// Bytes reads n raw bytes as a subslice of the input — no copy, so the
// returned slice aliases the reader's backing buffer.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail("wire: %d raw bytes exceed remaining input (%d bytes)", n, r.Remaining())
		return nil
	}
	p := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return r.Shared(nil) }

// Shared reads a length-prefixed string like String, but returns the copy
// already in seen when an equal string was read before, and records a new
// one there: a decoder whose document repeats strings across fields keeps
// one allocation per distinct value. A nil seen shares nothing.
func (r *Reader) Shared(seen map[string]string) string {
	n := r.Int()
	if r.err != nil {
		return ""
	}
	if n > r.Remaining() {
		r.fail("wire: string length %d exceeds remaining input (%d bytes)", n, r.Remaining())
		return ""
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	if seen == nil {
		return string(b)
	}
	s, ok := seen[string(b)]
	if !ok {
		s = string(b)
		seen[s] = s
	}
	return s
}

// Close asserts the input was fully consumed, returning the sticky error
// or a trailing-garbage error.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("wire: %d trailing bytes after decode", len(r.data)-r.off)
	}
	return nil
}
