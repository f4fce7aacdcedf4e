package store

import (
	"testing"

	"diffaudit/internal/flows"
)

// Each benchmark keeps the "v3-columnar" sub-benchmark name it had when a
// "v2-rows" case ran beside it, so the committed BENCH_*.json trajectory
// and the CI comparison against it still line up.

// BenchmarkPartialPersona measures materializing one persona out of a
// snapshot through a fresh view — the /v1/diff?personas= and partial
// report path: three column bodies decoded into pooled scratch.
func BenchmarkPartialPersona(b *testing.B) {
	enc := EncodeResult(auditOne(b, "Quizlet"))
	b.Run("v3-columnar", func(b *testing.B) {
		meta := Meta{Hash: Hash(enc)}
		b.SetBytes(int64(len(enc)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view, err := NewSnapshotView(enc, meta, nil)
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

// BenchmarkPersonaGrid measures answering a Table 4 grid query for one
// persona through a fresh view: the symbol-table scan plus the category
// and mask columns — the destination strings are never touched.
func BenchmarkPersonaGrid(b *testing.B) {
	enc := EncodeResult(auditOne(b, "Quizlet"))
	b.Run("v3-columnar", func(b *testing.B) {
		meta := Meta{Hash: Hash(enc)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view, err := NewSnapshotView(enc, meta, nil)
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

// BenchmarkPersonaLinkability measures building one persona's linkability
// index through a fresh view: the index feeds straight off the category
// and destination columns (the platform-mask column is never decoded —
// the index is mask-blind).
func BenchmarkPersonaLinkability(b *testing.B) {
	enc := EncodeResult(auditOne(b, "Quizlet"))
	b.Run("v3-columnar", func(b *testing.B) {
		meta := Meta{Hash: Hash(enc)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view, err := NewSnapshotView(enc, meta, nil)
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
