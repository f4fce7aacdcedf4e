package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"diffaudit/internal/faults"
)

// scrubStore builds a directory-backed store with two snapshots and returns it with
// their metadata and clean encoded bytes (the repair source the server's
// cache would provide).
func scrubStore(t *testing.T) (*Snapshots, []Meta, map[string][]byte) {
	t.Helper()
	st := openStore(t)
	clean := map[string][]byte{}
	for i, name := range []string{"Quizlet", "Roblox"} {
		res := auditOne(t, name)
		m, err := st.Put("job-"+string(rune('1'+i)), res)
		if err != nil {
			t.Fatal(err)
		}
		clean[m.Hash] = EncodeResult(res)
	}
	metas, err := st.List()
	if err != nil || len(metas) != 2 {
		t.Fatalf("List = %v, %v", metas, err)
	}
	return st, metas, clean
}

// corruptFile flips a byte deep inside a snapshot file's payload, past
// the envelope header so the file still parses but the content hash fails.
func corruptFile(t *testing.T, path string) []byte {
	t.Helper()
	return corruptAt(t, path, 0)
}

// corruptAt is corruptFile flipping the byte off places past the middle,
// so successive corruptions of one file differ.
func corruptAt(t *testing.T, path string, off int) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := append([]byte(nil), data...)
	mangled[len(mangled)/2+off] ^= 0xFF
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	return mangled
}

// TestScrubPassClean: a healthy store scrubs clean — every snapshot
// scanned, nothing flagged, nothing moved.
func TestScrubPassClean(t *testing.T) {
	st, _, _ := scrubStore(t)
	r := st.ScrubPass(nil)
	if r.Scanned != 2 || r.Corrupt != 0 || r.Repaired != 0 || r.Quarantined != 0 {
		t.Fatalf("clean scrub = %+v", r)
	}
	if _, err := os.Stat(st.files.quarantineDir()); !os.IsNotExist(err) {
		t.Errorf("clean scrub created quarantine dir: %v", err)
	}
}

// TestScrubQuarantinesCorruption: a corrupt snapshot is detected, parked
// byte-for-byte in quarantine, and dropped from the listing so reads
// answer not-found instead of serving (or 500ing on) bad bytes.
func TestScrubQuarantinesCorruption(t *testing.T) {
	st, metas, _ := scrubStore(t)
	bad := metas[0]
	mangled := corruptFile(t, st.files.path(bad.Seq))

	r := st.ScrubPass(nil) // no repair source
	if r.Scanned != 2 || r.Corrupt != 1 || r.Quarantined != 1 || r.Repaired != 0 {
		t.Fatalf("scrub = %+v, want 1 corrupt quarantined", r)
	}

	// Dropped from the listing: the reference no longer resolves.
	if _, _, err := st.Get(bad.Hash); !errors.Is(err, ErrUnresolved) {
		t.Errorf("Get(corrupt) = %v, want ErrUnresolved", err)
	}
	left, err := st.List()
	if err != nil || len(left) != 1 || left[0].Seq == bad.Seq {
		t.Errorf("List after scrub = %+v, %v", left, err)
	}
	// The healthy snapshot still serves.
	if _, _, err := st.Get(left[0].Hash); err != nil {
		t.Errorf("Get(healthy) after scrub: %v", err)
	}

	// Evidence preserved exactly.
	parked, err := os.ReadFile(filepath.Join(st.files.quarantineDir(), filepath.Base(st.files.path(bad.Seq))))
	if err != nil {
		t.Fatalf("quarantined file: %v", err)
	}
	if !bytes.Equal(parked, mangled) {
		t.Error("quarantined bytes differ from the corrupt original")
	}
	// The serving path no longer holds the file.
	if _, err := os.Stat(st.files.path(bad.Seq)); !os.IsNotExist(err) {
		t.Errorf("corrupt file still in serving dir: %v", err)
	}

	// A restart agrees: reopening the directory sees one snapshot and
	// ignores the quarantine subdirectory.
	st2, err := OpenFSStore(st.files.dir)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := st2.List(); len(again) != 1 {
		t.Errorf("reopened store lists %d snapshots, want 1", len(again))
	}
}

// TestScrubRepairsFromFetch: when the caller can supply clean bytes for
// the corrupt snapshot's content hash, the file is rewritten in place and
// the snapshot never stops serving — and the corrupt original is still
// parked as evidence.
func TestScrubRepairsFromFetch(t *testing.T) {
	st, metas, clean := scrubStore(t)
	bad := metas[1]
	corruptFile(t, st.files.path(bad.Seq))

	fetch := func(hash string) ([]byte, bool) {
		data, ok := clean[hash]
		return data, ok
	}
	r := st.ScrubPass(fetch)
	if r.Scanned != 2 || r.Corrupt != 1 || r.Repaired != 1 || r.Quarantined != 0 {
		t.Fatalf("scrub = %+v, want 1 corrupt repaired", r)
	}

	// Still listed, still serving, and the rewritten file re-verifies.
	res, meta, err := st.Get(bad.Hash)
	if err != nil || res == nil || meta.Seq != bad.Seq {
		t.Fatalf("Get after repair = %v (meta %+v)", err, meta)
	}
	if err := st.verify(bad); err != nil {
		t.Errorf("repaired file fails verification: %v", err)
	}
	if r2 := st.ScrubPass(fetch); r2.Corrupt != 0 {
		t.Errorf("second scrub still finds corruption: %+v", r2)
	}
}

// TestScrubKeepsEveryQuarantinedCopy: a sequence corrupted again after
// each repair (the bad-disk case) parks every corrupt copy under a name of
// its own — none replaces an earlier one.
func TestScrubKeepsEveryQuarantinedCopy(t *testing.T) {
	st, metas, clean := scrubStore(t)
	bad := metas[0]
	fetch := func(hash string) ([]byte, bool) {
		data, ok := clean[hash]
		return data, ok
	}
	var copies [][]byte
	for round := range 3 {
		copies = append(copies, corruptAt(t, st.files.path(bad.Seq), round))
		if r := st.ScrubPass(fetch); r.Corrupt != 1 || r.Repaired != 1 {
			t.Fatalf("round %d: scrub = %+v, want 1 corrupt repaired", round, r)
		}
	}
	entries, err := os.ReadDir(st.files.quarantineDir())
	if err != nil {
		t.Fatal(err)
	}
	var parked [][]byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(st.files.quarantineDir(), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		parked = append(parked, data)
	}
	if len(parked) != len(copies) {
		t.Fatalf("quarantine holds %d files, want %d", len(parked), len(copies))
	}
	for i, want := range copies {
		if !slices.ContainsFunc(parked, func(got []byte) bool { return bytes.Equal(got, want) }) {
			t.Errorf("corrupt copy %d is not in quarantine byte for byte", i)
		}
	}
	if _, _, err := st.Get(bad.Hash); err != nil {
		t.Errorf("Get after the third repair: %v", err)
	}
}

// TestScrubRejectsWrongRepairBytes: a fetch that returns bytes not
// matching the snapshot's content hash must not be trusted — the
// snapshot is quarantined, not "repaired" into different content.
func TestScrubRejectsWrongRepairBytes(t *testing.T) {
	st, metas, clean := scrubStore(t)
	bad := metas[0]
	corruptFile(t, st.files.path(bad.Seq))

	wrong := clean[metas[1].Hash] // valid encoding, wrong snapshot
	r := st.ScrubPass(func(string) ([]byte, bool) { return wrong, true })
	if r.Repaired != 0 || r.Quarantined != 1 {
		t.Fatalf("scrub with lying fetch = %+v, want quarantine", r)
	}
}

// TestScrubInjectedCorruption: the "scrub.corrupt" injection point flags
// a healthy file corrupt, driving the quarantine machinery without real
// disk damage — the chaos hook the server suite builds on.
func TestScrubInjectedCorruption(t *testing.T) {
	defer faults.Reset()
	faults.Set("scrub.corrupt", faults.Plan{Err: errors.New("injected rot")})

	st, _, clean := scrubStore(t)
	fetch := func(hash string) ([]byte, bool) {
		data, ok := clean[hash]
		return data, ok
	}
	// Plan fires once: exactly one snapshot is flagged, and with clean
	// bytes on offer it is repaired in place.
	r := st.ScrubPass(fetch)
	if r.Scanned != 2 || r.Corrupt != 1 || r.Repaired != 1 {
		t.Fatalf("injected scrub = %+v, want 1 corrupt repaired", r)
	}
	faults.Reset()
	if r2 := st.ScrubPass(nil); r2.Corrupt != 0 {
		t.Errorf("post-injection scrub = %+v, want clean", r2)
	}
}
