package wire

import (
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := &Writer{}
	w.Byte(0xab)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(0)
	w.Uvarint(1<<40 + 7)
	w.Int(12345)
	w.Int(-3) // negative clamps to 0
	w.String("")
	w.String("héllo → wörld")

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 0xab {
		t.Errorf("Byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<40+7 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Int(); got != 12345 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Int(); got != 0 {
		t.Errorf("clamped Int = %d", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "héllo → wörld" {
		t.Errorf("String = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestWriterResetGrow(t *testing.T) {
	w := &Writer{}
	w.String("first")
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.Grow(1 << 12)
	if cap(w.Bytes()) < 1<<12 {
		t.Fatalf("cap after Grow = %d", cap(w.Bytes()))
	}
	w.String("second")
	r := NewReader(w.Bytes())
	if got := r.String(); got != "second" {
		t.Errorf("String after Reset = %q", got)
	}
}

func TestReaderTruncation(t *testing.T) {
	w := &Writer{}
	w.String("hello")
	data := w.Bytes()
	for n := 0; n < len(data); n++ {
		r := NewReader(data[:n])
		if s := r.String(); r.Err() == nil {
			t.Errorf("no error at truncation %d (got %q)", n, s)
		}
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x02, 'h'}) // string claims 2 bytes, 1 present
	if s := r.String(); s != "" || r.Err() == nil {
		t.Fatalf("String = %q, err = %v", s, r.Err())
	}
	first := r.Err()
	// Every later read keeps returning zeros and the first error.
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Err() != first {
		t.Error("error not sticky")
	}
}

func TestCountRejectsOversizedAllocations(t *testing.T) {
	w := &Writer{}
	w.Uvarint(1 << 30) // claims a billion elements
	r := NewReader(w.Bytes())
	if n := r.Count(3); n != 0 || r.Err() == nil {
		t.Errorf("Count = %d, err = %v", n, r.Err())
	}
	if !strings.Contains(r.Err().Error(), "count") {
		t.Errorf("err = %v", r.Err())
	}
}

func TestBadBool(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool(); r.Err() == nil {
		t.Error("accepted bool byte 2")
	}
}

func TestCloseTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if err := r.Close(); err == nil {
		t.Error("Close accepted trailing bytes")
	}
}
