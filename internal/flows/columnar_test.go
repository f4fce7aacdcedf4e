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
