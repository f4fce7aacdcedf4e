package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/report"
	"diffaudit/internal/wire"
)

// encodeV1 reproduces the version-1 (PR 5) snapshot layout — one unframed
// payload stream — so compatibility can be tested even though the writer
// only emits version 2 now. Field order matches decodeV1 exactly.
func encodeV1(r *core.ServiceResult) []byte {
	personas := sortedPersonas(r)

	w := &wire.Writer{}
	w.Raw([]byte(snapMagic))
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], 1)
	w.Raw(ver[:])

	writeMetaSection(w, r)
	w.Int(len(personas))
	for _, p := range personas {
		writePersonaInfo(w, p.Info())
	}
	enc := flows.NewSetEncoder()
	for _, p := range personas {
		enc.Collect(r.ByTrace[p])
	}
	enc.WriteTables(w)
	for _, p := range personas {
		enc.WriteSet(w, r.ByTrace[p])
	}

	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(w.Bytes()))
	w.Raw(crc[:])
	return w.Bytes()
}

// TestDecodeV1Compat pins the backward-compatibility guarantee: snapshots
// written by the version-1 codec (PR 5/6 stores) still decode, and the
// decoded result is indistinguishable from a current-format decode of the
// same audit (canonical re-encoding matches byte for byte).
func TestDecodeV1Compat(t *testing.T) {
	res := auditOne(t, "Quizlet")
	v1 := encodeV1(res)

	dec, err := DecodeResult(v1)
	if err != nil {
		t.Fatalf("v1 snapshot no longer decodes: %v", err)
	}
	if !bytes.Equal(EncodeResult(dec), EncodeResult(res)) {
		t.Error("v1 decode does not re-encode to the same canonical bytes")
	}

	// Lazy views open v1 bytes too (all-or-nothing materialization).
	view, err := NewSnapshotView(v1, Meta{Hash: Hash(v1)}, nil)
	if err != nil {
		t.Fatalf("view over v1 snapshot: %v", err)
	}
	defer view.Close()
	if view.Version() != 1 {
		t.Fatalf("view version = %d, want 1", view.Version())
	}
	lazy, err := view.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeResult(lazy), EncodeResult(res)) {
		t.Error("v1 view materialization differs from the original result")
	}
}

// TestViewEquivalence proves the lazy read path is indistinguishable from
// eager decode: every artifact rendered from a view-materialized result
// is byte-identical to one rendered from DecodeResult.
func TestViewEquivalence(t *testing.T) {
	res := auditOne(t, "Duolingo")
	enc := EncodeResult(res)

	eager, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewSnapshotView(enc, Meta{Hash: Hash(enc)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	lazy, err := view.Result()
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(EncodeResult(lazy), EncodeResult(eager)) {
		t.Fatal("lazy materialization re-encodes differently from eager decode")
	}
	wantJSON, err := report.ExportJSON([]*core.ServiceResult{eager})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := report.ExportJSON([]*core.ServiceResult{lazy})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("ExportJSON differs between lazy and eager decode")
	}
	if report.AuditReport(lazy) != report.AuditReport(eager) {
		t.Error("AuditReport differs between lazy and eager decode")
	}
}

// TestViewPartialMaterialization checks the seekable-section contract: a
// persona-filtered materialization yields exactly the selected personas'
// flow sets (identical to the full decode's), leaves the others absent,
// and keeps all snapshot-level fields intact.
func TestViewPartialMaterialization(t *testing.T) {
	res := auditOne(t, "TikTok")
	enc := EncodeResult(res)

	full, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewSnapshotView(enc, Meta{Hash: Hash(enc)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	part, err := view.PartialResult([]string{"child", "adult"})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.ByTrace) != 2 {
		t.Fatalf("partial result has %d personas, want 2 (%v)", len(part.ByTrace), part.ByTrace)
	}
	for _, p := range []flows.Persona{flows.Child, flows.Adult} {
		got, want := part.ByTrace[p], full.ByTrace[p]
		if got == nil || want == nil {
			t.Fatalf("persona %s missing (partial=%v full=%v)", p, got != nil, want != nil)
		}
		if got.Len() != want.Len() {
			t.Errorf("persona %s: partial set has %d flows, full has %d", p, got.Len(), want.Len())
		}
	}
	if part.ByTrace[flows.Adolescent] != nil || part.ByTrace[flows.LoggedOut] != nil {
		t.Error("partial materialization decoded unselected personas")
	}
	if part.Identity.Name != full.Identity.Name || part.Packets != full.Packets {
		t.Error("partial materialization lost snapshot-level fields")
	}

	// A nil filter materializes everything, same as Result.
	all, err := view.PartialResult(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeResult(all), enc) {
		t.Error("nil-filter materialization is not canonical")
	}

	// An unknown persona name selects nothing rather than failing: the
	// caller's filter may be about personas this snapshot never saw.
	none, err := view.PartialResult([]string{"no-such-persona"})
	if err != nil {
		t.Fatal(err)
	}
	if len(none.ByTrace) != 0 {
		t.Errorf("unknown persona filter materialized %d personas", len(none.ByTrace))
	}
}

// TestStoreViewers checks the View path over both backends end to end:
// resolve by any reference, open (zero decodes), materialize (one decode),
// match the Put result.
func TestStoreViewers(t *testing.T) {
	res := auditOne(t, "Roblox")
	for _, tc := range []struct {
		name string
		s    Store
	}{
		{"mem", NewMemStore()},
		{"dir", func() Store {
			fs, err := OpenFSStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta, err := tc.s.Put("job-1", res)
			if err != nil {
				t.Fatal(err)
			}
			for _, ref := range []string{"1", meta.Hash, meta.Hash[:8], "job-1"} {
				before := Decodes()
				resolved, err := tc.s.Resolve(ref)
				if err != nil {
					t.Fatalf("Resolve(%q): %v", ref, err)
				}
				view, err := tc.s.View(resolved)
				if err != nil {
					t.Fatalf("View(%q): %v", ref, err)
				}
				if view.Meta().Hash != meta.Hash {
					t.Errorf("View(%q) meta hash = %s, want %s", ref, view.Meta().Hash, meta.Hash)
				}
				// Opening is validation only — no decode yet.
				if Decodes() != before {
					t.Errorf("View(%q) performed %d decodes before materialization", ref, Decodes()-before)
				}
				got, err := view.Result()
				if err != nil {
					t.Fatal(err)
				}
				if Decodes() != before+1 {
					t.Errorf("materialization counted %d decodes, want 1", Decodes()-before)
				}
				if !bytes.Equal(EncodeResult(got), EncodeResult(res)) {
					t.Errorf("View(%q) result differs from the stored one", ref)
				}
				if err := view.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
				if _, err := view.Result(); err == nil {
					t.Error("materializing a closed view succeeded")
				}
			}
			// A meta whose snapshot is gone is a stale reference, not a
			// storage failure.
			if err := tc.s.Delete("1"); err != nil {
				t.Fatal(err)
			}
			if _, err := tc.s.View(meta); !errors.Is(err, ErrUnresolved) {
				t.Errorf("View of a deleted snapshot: %v, want ErrUnresolved", err)
			}
		})
	}
}

// TestViewRejectsCorruption mirrors the decoder's corruption tests on the
// view path: the one-time envelope validation catches damage at open.
func TestViewRejectsCorruption(t *testing.T) {
	res := auditOne(t, "Quizlet")
	enc := EncodeResult(res)

	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/2] ^= 0xFF
	if _, err := NewSnapshotView(flipped, Meta{}, nil); err == nil {
		t.Error("view opened over corrupted bytes")
	}
	if _, err := NewSnapshotView(enc[:headerLen+2], Meta{}, nil); err == nil {
		t.Error("view opened over truncated bytes")
	}
	closed := false
	if _, err := NewSnapshotView([]byte("not a snapshot at all"), Meta{}, func() error {
		closed = true
		return nil
	}); err == nil {
		t.Error("view opened over junk")
	} else if !closed {
		t.Error("failed open leaked the closer")
	}
}
