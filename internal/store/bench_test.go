package store

import (
	"testing"

	"diffaudit/internal/flows"
)

// The v2-vs-v3 benchmarks live here (not bench_test.go at the repo root)
// because only this package can fabricate genuine v2 row-format bytes via
// the test-only encodeV2 — the apples-to-apples baseline the columnar
// claim is measured against.

// BenchmarkPartialPersona measures materializing one persona out of a
// snapshot through a fresh view — the /v1/diff?personas= and partial
// report path. v2-rows decodes interleaved <cat,dest,mask> rows; the
// v3-columnar section decodes three column bodies into pooled scratch.
func BenchmarkPartialPersona(b *testing.B) {
	res := auditOne(b, "Quizlet")
	cases := []struct {
		name string
		enc  []byte
	}{
		{"v2-rows", encodeV2(res)},
		{"v3-columnar", EncodeResult(res)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			meta := Meta{Hash: Hash(c.enc)}
			b.SetBytes(int64(len(c.enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view, err := NewSnapshotView(c.enc, meta, nil)
				if err != nil {
					b.Fatal(err)
				}
				partial, err := view.PartialResult([]string{"child"})
				if err != nil {
					b.Fatal(err)
				}
				if partial.ByTrace[flows.Child].Len() == 0 {
					b.Fatal("empty partial")
				}
				view.Close()
			}
		})
	}
}

// BenchmarkPersonaGrid measures answering a Table 4 grid query for one
// persona through a fresh view, same API call on both encodings. v2 bytes
// force full persona materialization (decode every row, build the set,
// walk it); v3's columnar sections answer from the symbol-table scan plus
// the category and mask columns — the destination strings are never
// touched. This pair is the PR's partial-decode headline.
func BenchmarkPersonaGrid(b *testing.B) {
	res := auditOne(b, "Quizlet")
	cases := []struct {
		name string
		enc  []byte
	}{
		{"v2-rows", encodeV2(res)},
		{"v3-columnar", EncodeResult(res)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			meta := Meta{Hash: Hash(c.enc)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view, err := NewSnapshotView(c.enc, meta, nil)
				if err != nil {
					b.Fatal(err)
				}
				grid, err := view.PersonaGrid("child")
				if err != nil {
					b.Fatal(err)
				}
				if grid == nil {
					b.Fatal("nil grid")
				}
				view.Close()
			}
		})
	}
}

// BenchmarkPersonaLinkability measures building one persona's linkability
// index through a fresh view. On v2 bytes the view must materialize the
// set and index it; on v3 the index feeds straight off the category and
// destination columns (the platform-mask column is never decoded — the
// index is mask-blind).
func BenchmarkPersonaLinkability(b *testing.B) {
	res := auditOne(b, "Quizlet")
	cases := []struct {
		name string
		enc  []byte
	}{
		{"v2-rows", encodeV2(res)},
		{"v3-columnar", EncodeResult(res)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			meta := Meta{Hash: Hash(c.enc)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view, err := NewSnapshotView(c.enc, meta, nil)
				if err != nil {
					b.Fatal(err)
				}
				ix, err := view.PersonaLinkability("child")
				if err != nil {
					b.Fatal(err)
				}
				if ix.CountLinkable() == 0 {
					b.Fatal("no linkable parties")
				}
				view.Close()
			}
		})
	}
}
