package flows

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"diffaudit/internal/wire"
)

// encodeColumnar serializes tables + one columnar set section per set.
func encodeColumnar(sets ...*Set) (tables []byte, sections [][]byte) {
	enc := NewSetEncoder()
	for _, s := range sets {
		enc.Collect(s)
	}
	tw := &wire.Writer{}
	enc.WriteTables(tw)
	for _, s := range sets {
		sw := &wire.Writer{}
		enc.WriteSetColumnar(sw, s)
		sections = append(sections, sw.Bytes())
	}
	return tw.Bytes(), sections
}

func TestColumnarRoundTrip(t *testing.T) {
	s := buildSet(t)
	tables, sections := encodeColumnar(s)

	dec, err := ReadSetTables(wire.NewReader(tables), map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.DecodeSetColumnar(sections[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("decoded %d flows, want %d", got.Len(), s.Len())
	}
	if !reflect.DeepEqual(got.GroupGrid(), s.GroupGrid()) {
		t.Error("decoded grid differs from original")
	}

	// Canonical: re-encoding the decoded set reproduces the section bytes.
	_, again := encodeColumnar(got)
	if !bytes.Equal(again[0], sections[0]) {
		t.Error("columnar re-encode is not byte-identical")
	}
}

func TestColumnarEmptySet(t *testing.T) {
	tables, sections := encodeColumnar(nil, NewSet())
	dec, err := ReadSetTables(wire.NewReader(tables), map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sec := range sections {
		got, err := dec.DecodeSetColumnar(sec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 {
			t.Fatalf("set %d: decoded %d flows from an empty set", i, got.Len())
		}
	}
}

func TestColumnarRejectsCorruption(t *testing.T) {
	s := buildSet(t)
	tables, sections := encodeColumnar(s)
	dec, err := ReadSetTables(wire.NewReader(tables), map[string]string{})
	if err != nil {
		t.Fatal(err)
	}

	// Truncations anywhere must fail cleanly.
	sec := sections[0]
	for n := 0; n < len(sec); n++ {
		if _, err := dec.DecodeSetColumnar(sec[:n]); err == nil {
			t.Fatalf("accepted truncation at %d", n)
		}
	}

	// A mask of 0 (no platform) is invalid.
	bad := append([]byte(nil), sec...)
	bad[len(bad)-1] = 0
	if _, err := dec.DecodeSetColumnar(bad); err == nil {
		t.Error("accepted zero platform mask")
	}

	// An out-of-range index is caught as the lockstep walk reads it: the
	// first flow's category, and the last flow's destination after every
	// earlier flow decoded cleanly.
	cols, err := splitSetColumns(sec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		col  []byte
		at   int
		want string
	}{
		{cols.cats, 0, "flow 0 references category 127 of"},
		{cols.dests, len(cols.dests) - 1, fmt.Sprintf("flow %d references destination 127 of", cols.n-1)},
	} {
		old := c.col[c.at]
		c.col[c.at] = 0x7f // a one-byte uvarint past both tables
		_, err := dec.DecodeSetColumnar(sec)
		c.col[c.at] = old
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("corrupt index: err = %v, want %q", err, c.want)
		}
	}
	if _, err := dec.DecodeSetColumnar(sec); err != nil {
		t.Fatalf("restored section no longer decodes: %v", err)
	}

	// Flows out of canonical order, or one flow twice, are refused at the
	// first flow not after its predecessor.
	for _, c := range []struct {
		name string
		edit func([][3]uint64) [][3]uint64
		want string
	}{
		{"swapped pair", func(fl [][3]uint64) [][3]uint64 {
			fl[0], fl[1] = fl[1], fl[0]
			return fl
		}, "flow 1 is not after flow 0"},
		{"repeated flow", func(fl [][3]uint64) [][3]uint64 {
			return append(fl[:2:2], fl[1:]...)
		}, "flow 2 is not after flow 1"},
	} {
		if _, err := dec.DecodeSetColumnar(rewriteSetColumns(t, sec, c.edit)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	if _, err := dec.DecodeSetColumnar(rewriteSetColumns(t, sec, func(fl [][3]uint64) [][3]uint64 { return fl })); err != nil {
		t.Fatalf("re-framed section no longer decodes: %v", err)
	}
}

// rewriteSetColumns re-frames a columnar section after edit has changed
// its flows, each a (category index, destination index, mask) triple: the
// shapes the encoder itself never writes.
func rewriteSetColumns(t *testing.T, sec []byte, edit func([][3]uint64) [][3]uint64) []byte {
	t.Helper()
	cols, err := splitSetColumns(sec)
	if err != nil {
		t.Fatal(err)
	}
	cats, dests := wire.NewReader(cols.cats), wire.NewReader(cols.dests)
	fl := make([][3]uint64, cols.n)
	for i := range fl {
		fl[i] = [3]uint64{cats.Uvarint(), dests.Uvarint(), uint64(cols.masks[i])}
	}
	fl = edit(fl)
	var cw, dw, mw, w wire.Writer
	cw.Int(len(fl))
	dw.Int(len(fl))
	mw.Int(len(fl))
	for _, f := range fl {
		cw.Uvarint(f[0])
		dw.Uvarint(f[1])
		mw.Byte(byte(f[2]))
	}
	wire.WriteSections(&w, []wire.Section{{Kind: colCats, Data: cw.Bytes()}, {Kind: colDests, Data: dw.Bytes()}, {Kind: colMasks, Data: mw.Bytes()}})
	return w.Bytes()
}

// TestColumnarConcurrentIdentity reruns encode and decode from many
// goroutines at once, asserting byte-identical sections every time. Run
// with -race it also shows encoder and decoder share no mutable state.
func TestColumnarConcurrentIdentity(t *testing.T) {
	s := buildSet(t)
	tables, want := encodeColumnar(s)
	dec, err := ReadSetTables(wire.NewReader(tables), map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, got := encodeColumnar(s)
				if !bytes.Equal(got[0], want[0]) {
					t.Error("concurrent columnar encode diverged")
					return
				}
				set, err := dec.DecodeSetColumnar(got[0])
				if err != nil {
					t.Error(err)
					return
				}
				if set.Len() != s.Len() {
					t.Errorf("concurrent decode lost flows: %d != %d", set.Len(), s.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}
