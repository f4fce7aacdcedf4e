package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/linkability"
	"diffaudit/internal/report"
	"diffaudit/internal/synth"
)

// refreshCRC recomputes the trailer CRC so payload mutations reach the
// decoder instead of dying at the envelope check.
func refreshCRC(data []byte) []byte {
	body := data[:len(data)-trailerLen]
	binary.LittleEndian.PutUint32(data[len(data)-trailerLen:], crc32.ChecksumIEEE(body))
	return data
}

// TestDecodeRefusesOtherVersions: versions 1 and 2 were development
// formats no deployed build wrote, and this build carries no reader for
// them. Bytes framed as either (or as version 0, or a future one) — an
// otherwise valid snapshot, CRC and all — are refused with the version
// error, by DecodeResult and by views.
func TestDecodeRefusesOtherVersions(t *testing.T) {
	enc := EncodeResult(auditOne(t, "Quizlet"))
	for _, version := range []uint16{0, 1, 2, SnapshotVersion + 1} {
		old := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint16(old[len(snapMagic):headerLen], version)
		refreshCRC(old)
		_, err := DecodeResult(old)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("snapshot version %d not supported", version)) {
			t.Errorf("DecodeResult of version-%d bytes: %v, want the version error", version, err)
		}
		if _, err := NewSnapshotView(old, Meta{}, nil); err == nil {
			t.Errorf("a view opened over version-%d bytes", version)
		}
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

// TestViewPersonaQueries: the column-selective queries answer exactly
// what materializing the persona and asking the Set would — the grid
// without interning a symbol, the linkability index without building the
// Set.
func TestViewPersonaQueries(t *testing.T) {
	res := auditOne(t, "Quizlet")
	enc := EncodeResult(res)
	view, err := NewSnapshotView(enc, Meta{Hash: Hash(enc)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	grid, err := view.PersonaGrid("child")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid, res.ByTrace[flows.Child].GroupGrid()) {
		t.Error("PersonaGrid differs from GroupGrid")
	}
	if _, err := view.PersonaGrid("no-such-persona"); err == nil {
		t.Error("PersonaGrid accepted unknown persona")
	}

	ix, err := view.PersonaLinkability("child")
	if err != nil {
		t.Fatal(err)
	}
	wantIx := linkability.NewIndex(res.ByTrace[flows.Child])
	if ix.CountLinkable() != wantIx.CountLinkable() {
		t.Errorf("columnar CountLinkable = %d, want %d", ix.CountLinkable(), wantIx.CountLinkable())
	}
	if !reflect.DeepEqual(ix.Parties(), wantIx.Parties()) {
		t.Error("columnar linkability parties differ")
	}
	if _, err := view.PersonaLinkability("no-such-persona"); err == nil {
		t.Error("PersonaLinkability accepted unknown persona")
	}
}

// TestColumnarSectionCorruption drives payload mutations (with a valid
// CRC, so they reach the columnar decoder) through the full snapshot
// decode path: every mutation must fail cleanly or decode to a canonical
// result, never panic.
func TestColumnarSectionCorruption(t *testing.T) {
	// A small audit keeps the mutation sweep fast — every offset still
	// lands somewhere in the columnar sections.
	ds := synth.Generate(synth.Config{Scale: 0.002})
	st := ds.Service("Quizlet")
	res := core.NewPipeline().AnalyzeRecords(st.Identity(), st.Records())
	enc := EncodeResult(res)
	// Mutate bytes across the back half, where the flow columns live. The
	// stride samples ~256 offsets so the sweep stays fast as encodings
	// grow; the fuzz harness covers the exhaustive walk.
	stride := (len(enc)/2 - trailerLen) / 256
	if stride < 1 {
		stride = 1
	}
	for off := len(enc) / 2; off < len(enc)-trailerLen; off += stride {
		bad := refreshCRC(append([]byte(nil), enc...))
		bad[off] ^= 0xa5
		bad = refreshCRC(bad)
		dec, err := DecodeResult(bad)
		if err != nil {
			continue
		}
		if dec == nil {
			t.Fatalf("offset %d: decoder returned nil result without error", off)
		}
		// A mutation that still decodes (e.g. a surviving mask bit flip)
		// must yield a result the canonical encoder accepts.
		EncodeResult(dec)
	}
}

// TestViewDecodeStateCached pins the satellite fix: repeated partial
// materializations share one persona/symbol index instead of re-deriving
// it per call, and every call still reports exactly one decode.
func TestViewDecodeStateCached(t *testing.T) {
	res := auditOne(t, "Quizlet")
	enc := EncodeResult(res)
	view, err := NewSnapshotView(enc, Meta{Hash: Hash(enc)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	before := Decodes()
	first, err := view.PartialResult([]string{"child"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := view.PartialResult([]string{"child"})
	if err != nil {
		t.Fatal(err)
	}
	if got := Decodes() - before; got != 2 {
		t.Errorf("two partial materializations counted %d decodes", got)
	}
	if !reflect.DeepEqual(
		first.ByTrace[flows.Child].GroupGrid(),
		second.ByTrace[flows.Child].GroupGrid()) {
		t.Error("cached index changed the materialized result")
	}

	// Grid queries share the cache and count decodes too.
	if _, err := view.PersonaGrid("child"); err != nil {
		t.Fatal(err)
	}
	if got := Decodes() - before; got != 3 {
		t.Errorf("grid query after partials counted %d decodes total", got)
	}
}
