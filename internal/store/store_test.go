package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/report"
	"diffaudit/internal/synth"
)

// exportOf renders one result's JSON export.
func exportOf(t *testing.T, r *core.ServiceResult) []byte {
	t.Helper()
	data, err := report.ExportJSON([]*core.ServiceResult{r})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openStore opens a store over a fresh directory that the test removes.
func openStore(t testing.TB) *Snapshots {
	t.Helper()
	s, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFSStore exercises the Store interface contract.
func TestFSStore(t *testing.T) {
	s := openStore(t)
	a := auditOne(t, "Quizlet")
	b := auditOne(t, "Roblox")

	ma, err := s.Put("job-1", a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.Put("job-2", b)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Seq >= mb.Seq {
		t.Errorf("sequence not monotonic: %d then %d", ma.Seq, mb.Seq)
	}
	if ma.Hash == mb.Hash {
		t.Error("different results share a content hash")
	}
	if ma.Service != "Quizlet" || mb.Service != "Roblox" {
		t.Errorf("services = %q, %q", ma.Service, mb.Service)
	}

	metas, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].Seq != ma.Seq || metas[1].Seq != mb.Seq {
		t.Fatalf("List = %+v", metas)
	}

	// Get by every reference kind.
	for _, ref := range []string{"job-1", ma.Hash, ma.Hash[:8]} {
		got, meta, err := s.Get(ref)
		if err != nil {
			t.Fatalf("Get(%q): %v", ref, err)
		}
		if meta.Seq != ma.Seq {
			t.Errorf("Get(%q) seq = %d, want %d", ref, meta.Seq, ma.Seq)
		}
		if !bytes.Equal(exportOf(t, got), exportOf(t, a)) {
			t.Errorf("Get(%q) export differs from the stored result", ref)
		}
	}
	// By sequence number (formatted as decimal).
	if _, meta, err := s.Get("2"); err != nil || meta.Seq != 2 {
		t.Errorf("Get by seq: meta=%+v err=%v", meta, err)
	}
	// Unknown and too-short prefixes fail.
	for _, ref := range []string{"job-9", "999", ma.Hash[:4], "zzzzzz"} {
		if _, _, err := s.Get(ref); err == nil {
			t.Errorf("Get(%q) succeeded", ref)
		}
	}

	// Storing identical content again: new seq, same hash; the hash ref
	// resolves to the newest copy.
	ma2, err := s.Put("job-3", a)
	if err != nil {
		t.Fatal(err)
	}
	if ma2.Hash != ma.Hash {
		t.Error("identical content hashed differently")
	}
	if _, meta, err := s.Get(ma.Hash); err != nil || meta.Seq != ma2.Seq {
		t.Errorf("hash ref resolves to seq %d (err %v), want newest %d", meta.Seq, err, ma2.Seq)
	}
}

// TestFSStoreRestart pins restart durability: a fresh FSStore over the same
// directory serves the previous process's snapshots byte-identically and
// continues the sequence without reuse.
func TestFSStoreRestart(t *testing.T) {
	dir := t.TempDir()
	res := auditOne(t, "Quizlet")

	s1, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s1.Put("job-1", res)
	if err != nil {
		t.Fatal(err)
	}
	want := exportOf(t, res)

	s2, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, m2, err := s2.Get("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Hash != m1.Hash || m2.Seq != m1.Seq || m2.JobID != "job-1" {
		t.Errorf("rescanned meta = %+v, want %+v", m2, m1)
	}
	if !bytes.Equal(exportOf(t, got), want) {
		t.Error("rescanned snapshot export differs")
	}

	// The restarted store must not reuse sequence numbers.
	m3, err := s2.Put("job-2", auditOne(t, "Roblox"))
	if err != nil {
		t.Fatal(err)
	}
	if m3.Seq <= m1.Seq {
		t.Errorf("restarted store reused sequence: %d after %d", m3.Seq, m1.Seq)
	}
}

// TestFSStoreIgnoresJunk checks rescan resilience: crash orphans and
// corrupted snapshot files are skipped, not fatal, a truncated snapshot
// never serves, and the quarantine/ directory older builds left behind
// is not read.
func TestFSStoreIgnoresJunk(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put("job-1", auditOne(t, "Quizlet")); err != nil {
		t.Fatal(err)
	}

	// A crash orphan, a random file, and a truncated copy of the real one.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-crash"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, "000000000001.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000000000099.snap"), real[:len(real)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// An intact snapshot file parked in quarantine/ by an older build.
	older, err := OpenFSStore(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := older.Put("job-quarantined", auditOne(t, "Roblox")); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas, _ := s2.List()
	if len(metas) != 1 || metas[0].JobID != "job-1" {
		t.Fatalf("rescan over junk: %+v", metas)
	}
	if _, ok := s2.JobSnapshot("job-quarantined"); ok {
		t.Error("rescan listed a file under quarantine/")
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-crash")); !os.IsNotExist(err) {
		t.Error("crash orphan not cleaned up")
	}

	// A skipped file still owns its sequence number: the next Put must
	// not rename over the corrupt 000000000099.snap (a newer build might
	// still recover it), so it lands at sequence 100.
	corrupt, err := os.ReadFile(filepath.Join(dir, "000000000099.snap"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := s2.Put("job-2", auditOne(t, "Roblox"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 100 {
		t.Errorf("Put after corrupt seq 99 got seq %d, want 100", m.Seq)
	}
	after, err := os.ReadFile(filepath.Join(dir, "000000000099.snap"))
	if err != nil || !bytes.Equal(after, corrupt) {
		t.Error("Put overwrote a skipped snapshot file")
	}
}

// TestLoadRefusesCorruptFile is the corruption drill behind the store's
// one integrity path. Whatever happens to a stored file — any bit of its
// envelope flipped, a seeded sample of its codec bits (the CRC trailer's
// included) flipped, truncation, emptying, another snapshot's file copied
// over it, removal — Load either fails or serves exactly the content the
// listing names. A removed file is ErrUnresolved (a 404); every other
// failure is a storage error (a 500). A flipped codec bit never loads: the
// CRC detects every single-bit error. The neighbouring snapshot keeps
// loading throughout.
func TestLoadRefusesCorruptFile(t *testing.T) {
	st := openStore(t)
	ds := synth.Generate(synth.Config{Scale: 0.002})
	put := func(jobID, name string) Meta {
		svc := ds.Service(name)
		m, err := st.Put(jobID, core.NewPipeline().AnalyzeRecords(svc.Identity(), svc.Records()))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m, o := put("job-1", "Quizlet"), put("job-2", "Roblox")
	path := st.files.path(m.Seq)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	otherFile, err := os.ReadFile(st.files.path(o.Seq))
	if err != nil {
		t.Fatal(err)
	}
	_, codec, err := parseSnapEnvelope("", orig)
	if err != nil {
		t.Fatal(err)
	}
	envBits := (len(orig) - len(codec)) * 8

	// check stores data under m's sequence (nil removes the file) and
	// holds Load to the contract; mustFail marks inputs no load may serve.
	served := 0
	check := func(name string, data []byte, mustFail bool) {
		t.Helper()
		if data == nil {
			err = os.Remove(path)
		} else {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Load(m)
		switch {
		case err == nil && mustFail:
			t.Errorf("%s: Load served a file it must refuse", name)
		case err == nil:
			served++
			if got := Hash(EncodeResult(res)); got != m.Hash {
				t.Errorf("%s: Load served content %s, listed %s", name, got, m.Hash)
			}
		case data == nil:
			if !errors.Is(err, ErrUnresolved) {
				t.Errorf("%s: Load = %v, want ErrUnresolved", name, err)
			}
		case errors.Is(err, ErrUnresolved):
			t.Errorf("%s: Load = %v, want a storage error", name, err)
		}
	}
	otherLoads := func(after string) {
		t.Helper()
		if _, err := st.Load(o); err != nil {
			t.Fatalf("after %s: the other snapshot no longer loads: %v", after, err)
		}
	}

	buf := bytes.Clone(orig)
	flip := func(bit int) {
		buf[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d", bit), buf, bit >= envBits)
		buf[bit/8] ^= 1 << (bit % 8)
	}
	for bit := 0; bit < envBits; bit++ {
		flip(bit)
	}
	for bit := len(orig)*8 - 32; bit < len(orig)*8; bit++ {
		flip(bit)
	}
	rng := rand.New(rand.NewSource(40))
	for range 256 {
		flip(envBits + rng.Intn(len(codec)*8-32))
	}
	otherLoads("the bit flips")
	t.Logf("%d envelope bits: Load served the listed content for %d flips and refused the rest", envBits, served)
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"truncated to half", orig[:len(orig)/2]},
		{"truncated by one byte", orig[:len(orig)-1]},
		{"empty", []byte{}},
		{"other snapshot copied in", otherFile},
		{"removed", nil},
	} {
		check(c.name, c.data, true)
		otherLoads(c.name)
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(m); err != nil {
		t.Fatalf("restored file: %v", err)
	}
}

// TestFSStoreConcurrentHandles: two store handles over one directory (a
// live server plus a CLI run, or two processes) must never overwrite each
// other's snapshots — publication is link-exclusive, so the loser of a
// sequence race skips to the next free number.
func TestFSStoreConcurrentHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenFSStore(dir) // same nextSeq view as a
	if err != nil {
		t.Fatal(err)
	}
	resA := auditOne(t, "Quizlet")
	resB := auditOne(t, "Roblox")
	ma, err := a.Put("job-a", resA)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.Put("job-b", resB)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Seq == mb.Seq {
		t.Fatalf("both handles claimed sequence %d", ma.Seq)
	}

	// Both snapshots survive a rescan.
	fresh, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas, _ := fresh.List()
	if len(metas) != 2 {
		t.Fatalf("rescan found %d snapshots, want 2: %+v", len(metas), metas)
	}
	if got, _, err := fresh.Get("job-a"); err != nil || got.Identity.Name != "Quizlet" {
		t.Errorf("job-a: %v", err)
	}
	if got, _, err := fresh.Get("job-b"); err != nil || got.Identity.Name != "Roblox" {
		t.Errorf("job-b: %v", err)
	}
}

// resolveOracle is the linear resolution rule the index replaced, kept as
// the model the index is checked against. metas is seq-ascending, so the
// last match of a kind is the newest.
func resolveOracle(metas []Meta, ref string) (Meta, bool) {
	ref = strings.TrimSpace(ref)
	if ref == "" {
		return Meta{}, false
	}
	if seq, err := strconv.ParseUint(ref, 10, 64); err == nil {
		for _, m := range metas {
			if m.Seq == seq {
				return m, true
			}
		}
	}
	var job, hash *Meta
	distinct := map[string]bool{}
	for i, m := range metas {
		switch {
		case m.JobID != "" && m.JobID == ref:
			job = &metas[i]
		case m.Hash == ref || len(ref) >= 6 && strings.HasPrefix(m.Hash, ref):
			hash = &metas[i]
			distinct[m.Hash] = true
		}
	}
	if job != nil {
		return *job, true
	}
	if hash != nil && len(distinct) == 1 {
		return *hash, true
	}
	return Meta{}, false
}

// indexModel drives one store and the brute-force model of it in step.
type indexModel struct {
	t    *testing.T
	s    *Snapshots
	data []byte // one valid encoding; the crafted hashes stand in for content
	live []Meta // what the store must list, seq-ascending
}

// put stores a snapshot under a crafted hash, below Put's hashing.
func (im *indexModel) put(hash, jobID string) {
	im.t.Helper()
	m, err := im.s.put(Meta{Hash: hash, JobID: jobID, Service: "svc", Bytes: len(im.data)}, im.data)
	if err != nil {
		im.t.Fatal(err)
	}
	im.live = append(im.live, m)
}

// resolves checks one reference against the model and returns the verdict.
func (im *indexModel) resolves(ref string) (Meta, bool) {
	im.t.Helper()
	want, ok := resolveOracle(im.live, ref)
	got, err := im.s.Resolve(ref)
	switch {
	case ok && (err != nil || got != want):
		im.t.Fatalf("Resolve(%q) = %+v, %v; model says seq %d", ref, got, err, want.Seq)
	case !ok && !errors.Is(err, ErrUnresolved):
		im.t.Fatalf("Resolve(%q) = %+v, %v; model says unresolved", ref, got, err)
	}
	return want, ok
}

// check compares every read the index answers against the model, for every
// reference form of every live snapshot plus some that must miss.
func (im *indexModel) check() {
	im.t.Helper()
	list, err := im.s.List()
	if err != nil || !slices.Equal(list, im.live) || im.s.Len() != len(im.live) {
		im.t.Fatalf("List = %+v (err %v, Len %d), model has %+v", list, err, im.s.Len(), im.live)
	}
	refs := []string{"", " ", "999999", "zzzzzz", "job-0"}
	newestJob := map[string]Meta{}
	for _, m := range im.live {
		refs = append(refs, strconv.FormatUint(m.Seq, 10), " "+m.Hash+" ", m.Hash[:4], m.Hash[:6], m.Hash[:8], m.Hash[:10], m.JobID)
		if m.JobID != "" {
			newestJob[m.JobID] = m
		}
	}
	for _, ref := range refs {
		im.resolves(ref)
		// The job lookup is exact: only a recorded job ID, never a sequence,
		// hash or prefix that Resolve would also accept.
		got, ok := im.s.JobSnapshot(ref)
		if want, isJob := newestJob[ref]; ok != isJob || got != want {
			im.t.Fatalf("JobSnapshot(%q) = %+v, %v; model says %+v, %v", ref, got, ok, want, isJob)
		}
	}
	for _, limit := range []int{0, 1, 3} {
		for i := -1; i < len(im.live); i++ {
			after, rest := uint64(0), im.live
			if i >= 0 {
				after, rest = im.live[i].Seq, im.live[i+1:]
			}
			more := limit > 0 && len(rest) > limit
			if more {
				rest = rest[:limit]
			}
			if page, gotMore := im.s.Page(after, limit); !slices.Equal(page, rest) || gotMore != more {
				im.t.Fatalf("Page(%d, %d) = %+v, %v; model says %+v, %v", after, limit, page, gotMore, rest, more)
			}
		}
	}
}

// TestIndexModel checks the index against the brute-force model: first
// the fixed cases the resolution contract names, then a seeded random walk
// of puts (duplicate content, re-used job IDs, hashes sharing
// 6–10-character prefixes, all-digit prefixes and job IDs, a job ID that
// is also a hash prefix), with every read compared after every step.
func TestIndexModel(t *testing.T) {
	data := EncodeResult(auditOne(t, "Quizlet"))
	fixed := []struct {
		name string
		puts [][2]string       // hash, job ID
		want map[string]uint64 // reference → sequence, 0 = unresolved
	}{
		// A job ID recorded on several snapshots (re-runs, concurrent
		// writers) resolves to the newest even when the contents differ.
		{"job ID newest wins", [][2]string{{"aaaa111111", "job-1"}, {"bbbb222222", "job-1"}},
			map[string]uint64{"job-1": 2}},
		{"ambiguous prefix", [][2]string{{"abcdef1111", "job-1"}, {"abcdef2222", "job-2"}},
			map[string]uint64{"abcdef": 0, "abcdef1111": 1, "": 0}},
		// A number that matches no sequence falls through to hash prefixes
		// (about 6% of hex hashes open with six decimal digits); sequences
		// keep precedence.
		{"all-digit hash prefix", [][2]string{{"482913abcdef", "job-1"}, {"feedbeefcafe", "job-2"}},
			map[string]uint64{"482913": 1, "2": 2, "999999": 0}},
		// An exact job ID beats a colliding hash prefix.
		{"job beats prefix", [][2]string{{"cafe01aaaa", "job-1"}, {"cafe01aaaa", "cafe01"}, {"cafe01aaaa", ""}},
			map[string]uint64{"cafe01": 2, "cafe01aaaa": 3, "cafe01a": 3}},
	}
	for _, tc := range fixed {
		t.Run("dir/"+tc.name, func(t *testing.T) {
			im := &indexModel{t: t, s: openStore(t), data: data}
			for _, p := range tc.puts {
				im.put(p[0], p[1])
				im.check()
			}
			for ref, seq := range tc.want {
				if m, ok := im.resolves(ref); ok != (seq != 0) || m.Seq != seq {
					t.Errorf("%q resolves to seq %d (%v), want %d", ref, m.Seq, ok, seq)
				}
			}
		})
	}
	t.Run("dir/random walk", func(t *testing.T) {
		im := &indexModel{t: t, s: openStore(t), data: data}
		rng := rand.New(rand.NewSource(14))
		jobs := []string{"", "job-1", "job-2", "job-3", "7", "482913"}
		for step := 0; step < 120; step++ {
			// 16 characters: a prefix from a small pool, two random bits
			// spelled out, a random byte zero-padded to six.
			hash := fmt.Sprintf("%s%04b%06x", []string{"abcdef", "482913", "000000"}[rng.Intn(3)], rng.Intn(4), rng.Intn(256))
			if n := len(im.live); n > 0 && rng.Intn(3) == 0 {
				hash = im.live[rng.Intn(n)].Hash // the same content again
			}
			im.put(hash, jobs[rng.Intn(len(jobs))])
			im.check()
		}
	})

	// Concurrent Puts reserve sequences in order but can publish out of
	// order; the listing stays sorted and the maps never move backwards.
	ix := newIndex()
	ix.insert(Meta{Seq: 2, Hash: "aaaaaaaa", JobID: "job-1"})
	ix.insert(Meta{Seq: 1, Hash: "aaaaaaaa", JobID: "job-1"})
	byHash, _ := ix.resolve("aaaaaaaa")
	byJob, _ := ix.job("job-1")
	if byHash.Seq != 2 || byJob.Seq != 2 || ix.metas[0].Seq != 1 {
		t.Errorf("out-of-order insert: hash → %d, job → %d, list %+v", byHash.Seq, byJob.Seq, ix.metas)
	}
}

// TestStoreViewers (the name predates Load replacing View) checks the
// read path end to end: resolve by any reference, Load (exactly one
// decode), match the Put result. Then the three ways a
// resolved meta can fail to load, each with the one error every caller
// sees — Get adds nothing to what Load returns: a snapshot whose file was
// removed by hand is a stale reference (ErrUnresolved, the server's 404);
// stored bytes recorded under another hash, or bytes that are the right
// content by their envelope but do not decode, are storage errors naming
// the sequence (the server's 500).
func TestStoreViewers(t *testing.T) {
	res := auditOne(t, "Roblox")
	other := EncodeResult(auditOne(t, "Quizlet"))
	t.Run("dir", func(t *testing.T) {
		s := openStore(t)
		meta, err := s.Put("job-1", res)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range []string{"1", meta.Hash, meta.Hash[:8], "job-1"} {
			resolved, err := s.Resolve(ref)
			if err != nil {
				t.Fatalf("Resolve(%q): %v", ref, err)
			}
			got, err := s.Load(resolved)
			if err != nil {
				t.Fatalf("Load(%q): %v", ref, err)
			}
			if !bytes.Equal(EncodeResult(got), EncodeResult(res)) {
				t.Errorf("Load(%q) result differs from the stored one", ref)
			}
		}

		// restore replaces the file stored under the sequence.
		restore := func(stored Meta, data []byte) {
			t.Helper()
			if err := os.Remove(s.files.path(meta.Seq)); err != nil {
				t.Fatal(err)
			}
			if err := s.files.publish(stored, data); err != nil {
				t.Fatal(err)
			}
		}
		sameFromGet := func(want error) {
			t.Helper()
			if _, _, err := s.Get("1"); err == nil || err.Error() != want.Error() {
				t.Errorf("Get: %v, want Load's error: %v", err, want)
			}
		}

		// Right content hash on the envelope, codec bytes that fail
		// their CRC: one wrapping, naming the sequence.
		rotten := EncodeResult(res)
		rotten[len(rotten)/2] ^= 0xFF
		restore(meta, rotten)
		_, err = s.Load(meta)
		if err == nil || errors.Is(err, ErrUnresolved) ||
			err.Error() != "store: snapshot 1: store: snapshot checksum mismatch (corrupted or truncated)" {
			t.Errorf("Load of undecodable bytes: %v", err)
		} else {
			sameFromGet(err)
		}

		// Another snapshot's bytes and hash under this sequence.
		swapped := meta
		swapped.Hash = Hash(other)
		restore(swapped, other)
		_, err = s.Load(meta)
		if err == nil || errors.Is(err, ErrUnresolved) || !strings.Contains(err.Error(), "snapshot 1 changed on disk") {
			t.Errorf("Load after the stored hash changed: %v, want a storage error", err)
		} else {
			sameFromGet(err)
		}

		// A meta whose file was removed by hand is a stale reference, not
		// a storage failure.
		if err := os.Remove(s.files.path(meta.Seq)); err != nil {
			t.Fatal(err)
		}
		_, err = s.Load(meta)
		if !errors.Is(err, ErrUnresolved) {
			t.Errorf("Load of a removed snapshot file: %v, want ErrUnresolved", err)
		} else {
			sameFromGet(err)
		}
	})
}

// TestStoreConcurrentMixedOps hammers a store with a mixed
// workload: concurrent Gets of stable snapshots, Put churn, and List
// scans, all racing. Run under -race this pins the locking layout (one
// index lock, file I/O outside it); the assertions pin the semantics —
// stable snapshots never fail to serve, the listing stays seq-ascending,
// and a meta loads byte-identical results until its file is removed by
// hand and is a stale reference afterwards.
func TestStoreConcurrentMixedOps(t *testing.T) {
	seeds := []*core.ServiceResult{auditOne(t, "Quizlet"), auditOne(t, "Roblox")}
	churn := auditOne(t, "Duolingo")
	churnExport := exportOf(t, churn)

	t.Run("fs", func(t *testing.T) {
		s := openStore(t)
		refs := make([]string, len(seeds))
		for i, r := range seeds {
			m, err := s.Put(fmt.Sprintf("seed-%d", i), r)
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = m.Hash
		}

		var wg sync.WaitGroup
		errc := make(chan error, 64)
		fail := func(format string, args ...any) {
			select {
			case errc <- fmt.Errorf(format, args...):
			default:
			}
		}

		// Readers: the seeds' files stay, so every Get must succeed and
		// resolve to the right content.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					ref := refs[(g+i)%len(refs)]
					res, meta, err := s.Get(ref)
					if err != nil {
						fail("Get(%q): %v", ref, err)
						return
					}
					if res == nil || meta.Hash != ref {
						fail("Get(%q) resolved to %q", ref, meta.Hash)
						return
					}
				}
			}(g)
		}

		// Churners: Puts that race each other and every other lane.
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 15; i++ {
					if _, err := s.Put("churn", churn); err != nil {
						fail("churn Put: %v", err)
						return
					}
				}
			}()
		}

		// Lister: the listing must always be seq-ascending, whatever
		// order concurrent Puts complete in.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				metas, err := s.List()
				if err != nil {
					fail("List: %v", err)
					return
				}
				for j := 1; j < len(metas); j++ {
					if metas[j-1].Seq >= metas[j].Seq {
						fail("List out of order: seq %d before %d", metas[j-1].Seq, metas[j].Seq)
						return
					}
				}
			}
		}()

		// Load around a removal by hand: a meta loads the full result,
		// byte-identically, while its file is on disk, and is a stale
		// reference once the file is removed, as is the ref through Get.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				m, err := s.Put("load-churn", churn)
				if err != nil {
					fail("load Put: %v", err)
					return
				}
				seqRef := strconv.FormatUint(m.Seq, 10)
				res, err := s.Load(m)
				if err != nil {
					fail("Load(%s): %v", seqRef, err)
					return
				}
				// exportOf would t.Fatal off the test goroutine; export
				// directly and report through the error channel instead.
				export, err := report.ExportJSON([]*core.ServiceResult{res})
				if err != nil {
					fail("export: %v", err)
					return
				}
				if !bytes.Equal(export, churnExport) {
					fail("Load beside churn served different bytes")
					return
				}
				if err := os.Remove(s.files.path(m.Seq)); err != nil {
					fail("remove %s: %v", seqRef, err)
					return
				}
				if _, err := s.Load(m); !errors.Is(err, ErrUnresolved) {
					fail("Load(%s) after removal: %v, want ErrUnresolved", seqRef, err)
					return
				}
				if _, _, err := s.Get(seqRef); !errors.Is(err, ErrUnresolved) {
					fail("Get(%s) after removal: %v, want ErrUnresolved", seqRef, err)
					return
				}
			}
		}()

		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	})
}
