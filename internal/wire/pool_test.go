package wire

import (
	"bytes"
	"sync"
	"testing"
)

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

func TestPoolClasses(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 1 << minPoolShift},
		{1, 1 << minPoolShift},
		{256, 256},
		{257, 512},
		{4096, 4096},
		{maxPoolCap, maxPoolCap},
	}
	for _, c := range cases {
		buf := GetBuf(c.n)
		if len(buf) != 0 || cap(buf) < c.n {
			t.Errorf("GetBuf(%d): len=%d cap=%d", c.n, len(buf), cap(buf))
		}
		if cap(buf) != c.wantCap {
			t.Errorf("GetBuf(%d) cap = %d, want %d", c.n, cap(buf), c.wantCap)
		}
		PutBuf(buf)
	}
	// Oversized requests still work, they just bypass the pool.
	big := GetBuf(maxPoolCap + 1)
	if cap(big) < maxPoolCap+1 {
		t.Errorf("oversized GetBuf cap = %d", cap(big))
	}
	PutBuf(big) // must not panic, silently dropped
}

// TestPooledWriterEquivalence proves the core pooling contract: reusing
// pooled scratch concurrently never changes a single output byte. Run
// under -race this also proves the pools are data-race free.
func TestPooledWriterEquivalence(t *testing.T) {
	encode := func(seed byte) []byte {
		w := GetWriter()
		defer PutWriter(w)
		for i := 0; i < 100; i++ {
			w.Byte(seed)
			w.Uvarint(uint64(seed) << i % 7)
			w.String(string(bytes.Repeat([]byte{seed}, i)))
		}
		return append([]byte(nil), w.Bytes()...)
	}
	want := make([][]byte, 8)
	for s := range want {
		want[s] = encode(byte(s))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := (g + i) % 8
				if got := encode(byte(s)); !bytes.Equal(got, want[s]) {
					t.Errorf("pooled encode diverged for seed %d", s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestIDPool(t *testing.T) {
	ids := GetIDs(100)
	if len(ids) != 0 || cap(ids) < 100 {
		t.Fatalf("GetIDs: len=%d cap=%d", len(ids), cap(ids))
	}
	ids = append(ids, 1, 2, 3)
	PutIDs(ids)
	again := GetIDs(2)
	if len(again) != 0 {
		t.Fatalf("recycled IDs not reset: len=%d", len(again))
	}
	PutIDs(again)
}
