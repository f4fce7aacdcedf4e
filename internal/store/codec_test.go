package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
	"diffaudit/internal/report"
	"diffaudit/internal/synth"
	"diffaudit/internal/wire"
)

// auditOne runs the pipeline over one synthesized service.
func auditOne(t testing.TB, name string) *core.ServiceResult {
	t.Helper()
	ds := synth.Generate(synth.Config{Scale: 0.01})
	st := ds.Service(name)
	return core.NewPipeline().AnalyzeRecords(st.Identity(), st.Records())
}

// TestRoundTrip pins the codec's core contract: decode(encode(x)) renders
// byte-identically to x through every export path, and re-encoding the
// decoded result reproduces the original bytes (canonical encoding — the
// content hash is stable across encode/decode cycles).
func TestRoundTrip(t *testing.T) {
	res := auditOne(t, "Quizlet")
	enc := EncodeResult(res)

	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}

	// Scalar and identity fields survive (ServiceIdentity holds a slice,
	// so compare field-wise).
	if dec.Identity.Name != res.Identity.Name || dec.Identity.Owner != res.Identity.Owner {
		t.Errorf("identity = %+v, want %+v", dec.Identity, res.Identity)
	}
	if len(dec.Identity.FirstPartyESLDs) != len(res.Identity.FirstPartyESLDs) {
		t.Errorf("eslds = %v, want %v", dec.Identity.FirstPartyESLDs, res.Identity.FirstPartyESLDs)
	}
	if dec.Packets != res.Packets || dec.TCPFlows != res.TCPFlows || dec.DroppedKeys != res.DroppedKeys {
		t.Errorf("counters = %d/%d/%d, want %d/%d/%d",
			dec.Packets, dec.TCPFlows, dec.DroppedKeys, res.Packets, res.TCPFlows, res.DroppedKeys)
	}
	if len(dec.Domains) != len(res.Domains) || len(dec.RawKeys) != len(res.RawKeys) {
		t.Error("domain/raw-key sets differ")
	}

	// Rendered artifacts are byte-identical.
	wantJSON, err := report.ExportJSON([]*core.ServiceResult{res})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := report.ExportJSON([]*core.ServiceResult{dec})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("ExportJSON differs after decode(encode(x))")
	}
	if got, want := report.AuditReport(dec), report.AuditReport(res); got != want {
		t.Error("AuditReport differs after decode(encode(x))")
	}

	// Canonical: re-encoding the decoded result reproduces the bytes, so
	// the content hash is stable.
	enc2 := EncodeResult(dec)
	if !bytes.Equal(enc, enc2) {
		t.Error("encode(decode(encode(x))) is not byte-identical")
	}
	if Hash(enc) != Hash(enc2) {
		t.Error("content hash unstable across a round trip")
	}
}

// TestRoundTripCustomPersona checks snapshots carry custom persona
// records: a result keyed by a custom persona decodes to a persona of its
// own with the same record and its flows intact, and the built-in index
// learns nothing from the decode.
func TestRoundTripCustomPersona(t *testing.T) {
	p, err := flows.NewPersona(flows.PersonaInfo{
		Name: "Codec Kid", Aliases: []string{"codec-kid"},
		AgeKnown: true, AgeMin: 6, AgeMax: 9, LoggedIn: true,
		Attrs: map[string]string{"region": "EU", "tier": "free"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := auditOne(t, "Duolingo")
	// Move the child trace onto the custom persona.
	res.ByTrace[p] = res.ByTrace[flows.Child]
	delete(res.ByTrace, flows.Child)

	enc := EncodeResult(res)
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := personaNamed(dec, "Codec Kid")
	if !ok || got == p {
		t.Fatalf("decoded personas %v: want a handle of the result's own named Codec Kid", dec.Personas())
	}
	if got.Info().Attrs["region"] != "EU" || !got.AgeBelow(10) || got.AgeBelow(9) || got.Info().Aliases[0] != "codec-kid" {
		t.Errorf("decoded record = %+v", got.Info())
	}
	if set := dec.ByTrace[got]; set == nil || set.Len() != res.ByTrace[p].Len() {
		t.Fatalf("custom persona set lost: %v", set)
	}
	if !bytes.Equal(EncodeResult(dec), enc) {
		t.Error("custom-persona snapshot not canonical")
	}
	if _, ok := flows.ParsePersona("codec-kid"); ok {
		t.Error("decoding taught the built-in index a custom persona")
	}
}

// personaNamed finds a result's persona by name.
func personaNamed(r *core.ServiceResult, name string) (flows.Persona, bool) {
	for p := range r.ByTrace {
		if p.String() == name {
			return p, true
		}
	}
	return flows.Persona{}, false
}

// personaSnapshot encodes a Quizlet audit whose child trace is moved onto
// each given persona record in turn (flow sets shared), with the persona
// section rewritten as listed: records in the given order, duplicates
// included, which the encoder itself never writes.
func personaSnapshot(t testing.TB, infos ...flows.PersonaInfo) []byte {
	t.Helper()
	res := auditOne(t, "Quizlet")
	child := res.ByTrace[flows.Child]
	res.ByTrace = map[flows.Persona]*flows.Set{flows.Child: child}
	enc := EncodeResult(res)
	payload, err := checkSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := splitSections(payload)
	if err != nil {
		t.Fatal(err)
	}
	pers := &wire.Writer{}
	pers.Int(len(infos))
	sections := []wire.Section{{Kind: secMeta, Data: secs.meta}, {Kind: secPersonas}, {Kind: secSymbols, Data: secs.symbols}}
	for _, info := range infos {
		writePersonaInfo(pers, info)
		sections = append(sections, wire.Section{Kind: secFlowSet, Data: secs.flowSets[0]})
	}
	sections[1].Data = pers.Bytes()
	w := &wire.Writer{}
	w.Raw(enc[:headerLen])
	wire.WriteSections(w, sections)
	w.Raw(make([]byte, trailerLen))
	return refreshCRC(w.Bytes())
}

// TestDecodeRejectsPersonaOrder: persona records must come in strictly
// increasing name order, as the encoder writes them. A snapshot naming one
// persona twice would otherwise let the second flow set silently replace
// the first and re-encode to other bytes.
func TestDecodeRejectsPersonaOrder(t *testing.T) {
	child, adult := flows.Child.Info(), flows.Adult.Info()
	if _, err := DecodeResult(personaSnapshot(t, adult, child)); err != nil {
		t.Fatalf("well-ordered personas: %v", err)
	}
	for name, infos := range map[string][]flows.PersonaInfo{
		"duplicate":    {child, child},
		"out of order": {child, adult},
	} {
		if _, err := DecodeResult(personaSnapshot(t, infos...)); err == nil || !strings.Contains(err.Error(), "name order") {
			t.Errorf("%s personas: err = %v, want a name-order error", name, err)
		}
	}
}

// TestOnePersonaPerName: a result holds one persona per name, the key its
// snapshot stores personas under. An audit of records under two handles of
// one name fails, whether or not the records match; the store refuses a
// result assembled by hand with such a pair instead of keeping a snapshot no
// read could decode; and under one handle the same audit stores and reads
// back.
func TestOnePersonaPerName(t *testing.T) {
	info := flows.PersonaInfo{Name: "Twin Kid", AgeKnown: true, AgeMin: 5, AgeMax: 9, LoggedIn: true}
	kid, _ := flows.NewPersona(info)
	same, _ := flows.NewPersona(info)
	info.AgeMax = 10
	older, _ := flows.NewPersona(info)

	st := synth.Generate(synth.Config{Scale: 0.01}).Service("Quizlet")
	audit := func(child, adolescent flows.Persona) (*core.ServiceResult, error) {
		recs := st.Records()
		for i := range recs {
			switch recs[i].Trace {
			case flows.Child:
				recs[i].Trace = child
			case flows.Adolescent:
				recs[i].Trace = adolescent
			}
		}
		return core.NewPipeline().AnalyzeStream(st.Identity(), core.SliceSource(recs))
	}
	for _, twin := range []flows.Persona{same, older} {
		if _, err := audit(kid, twin); err == nil || !strings.Contains(err.Error(), `"Twin Kid"`) {
			t.Errorf("audit under two Twin Kid handles (%+v): err = %v, want the name clash", twin.Info(), err)
		}
		res := auditOne(t, "Quizlet")
		res.ByTrace[kid], res.ByTrace[twin] = res.ByTrace[flows.Child], res.ByTrace[flows.Adolescent]
		s := openStore(t)
		if _, err := s.Put("job-1", res); err == nil || s.Len() != 0 {
			t.Errorf("stored a result with two Twin Kid personas (%+v): %v", twin.Info(), err)
		}
		if err := SaveFile(filepath.Join(t.TempDir(), "twin.snap"), res); err == nil {
			t.Errorf("saved a result with two Twin Kid personas (%+v)", twin.Info())
		}
	}

	res, err := audit(kid, kid)
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t)
	m, err := s.Put("job-1", res)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := s.Get(m.Hash)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := personaNamed(dec, "Twin Kid")
	if !ok || dec.ByTrace[got].Len() != res.ByTrace[kid].Len() || dec.ByTrace[flows.Adolescent].Len() != 0 {
		t.Errorf("one Twin Kid handle: decoded personas %v", dec.Personas())
	}
}

// unknownCategorySnapshot encodes a one-flow result and renames its one
// category ("Age") to a label outside the ontology.
func unknownCategorySnapshot(t testing.TB) []byte {
	t.Helper()
	age, _ := ontology.Lookup("Age")
	res := &core.ServiceResult{
		Identity: core.ServiceIdentity{Name: "Unknown Category"},
		ByTrace:  map[flows.Persona]*flows.Set{flows.Child: flows.NewSet()},
	}
	res.ByTrace[flows.Child].Add(flows.Flow{Category: age, Dest: flows.Destination{FQDN: "h.example", Class: flows.ThirdParty}}, flows.Web)
	enc := EncodeResult(res)
	i := bytes.Index(enc, []byte(age.Name))
	if i < 0 {
		t.Fatal("category name not in the encoding")
	}
	enc[i+len(age.Name)-1] = 'x'
	return refreshCRC(enc)
}

// TestDecodeRejectsUnknownCategory: a snapshot category outside the ontology
// is a decode error, not a new category.
func TestDecodeRejectsUnknownCategory(t *testing.T) {
	if _, err := DecodeResult(unknownCategorySnapshot(t)); err == nil || !strings.Contains(err.Error(), "not in the ontology") {
		t.Errorf("err = %v, want the ontology error", err)
	}
}

// reorderedSnapshot encodes a Quizlet audit whose child trace is its only
// flow set, with that set's flows (category index, destination index, mask
// triples) rewritten by edit: orders the encoder itself never writes.
func reorderedSnapshot(t testing.TB, edit func([][3]uint64) [][3]uint64) []byte {
	t.Helper()
	res := auditOne(t, "Quizlet")
	res.ByTrace = map[flows.Persona]*flows.Set{flows.Child: res.ByTrace[flows.Child]}
	enc := EncodeResult(res)
	payload, err := checkSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := splitSections(payload)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := wire.ReadSections(wire.NewReader(secs.flowSets[0]))
	if err != nil || len(cols) != 3 {
		t.Fatalf("flow set columns: %v", err)
	}
	var fl [][3]uint64
	for c, col := range cols {
		r := wire.NewReader(col.Data)
		if n := r.Count(1); c == 0 {
			fl = make([][3]uint64, n)
		}
		for i := range fl {
			if c == 2 {
				fl[i][c] = uint64(r.Byte())
			} else {
				fl[i][c] = r.Uvarint()
			}
		}
	}
	fl = edit(fl)
	var colw [3]wire.Writer
	for c := range colw {
		colw[c].Int(len(fl))
		for _, f := range fl {
			if c == 2 {
				colw[c].Byte(byte(f[c]))
			} else {
				colw[c].Uvarint(f[c])
			}
		}
	}
	set := &wire.Writer{}
	wire.WriteSections(set, []wire.Section{{Kind: cols[0].Kind, Data: colw[0].Bytes()},
		{Kind: cols[1].Kind, Data: colw[1].Bytes()}, {Kind: cols[2].Kind, Data: colw[2].Bytes()}})
	w := &wire.Writer{}
	w.Raw(enc[:headerLen])
	wire.WriteSections(w, []wire.Section{{Kind: secMeta, Data: secs.meta}, {Kind: secPersonas, Data: secs.personas},
		{Kind: secSymbols, Data: secs.symbols}, {Kind: secFlowSet, Data: set.Bytes()}})
	w.Raw(make([]byte, trailerLen))
	return refreshCRC(w.Bytes())
}

// swapFlows and repeatFlow are the two non-canonical flow orders: an
// adjacent pair swapped, and one flow written twice.
func swapFlows(fl [][3]uint64) [][3]uint64 {
	fl[10], fl[11] = fl[11], fl[10]
	return fl
}

func repeatFlow(fl [][3]uint64) [][3]uint64 { return append(fl[:11:11], fl[10:]...) }

// TestDecodeRejectsNonCanonicalFlowOrder: a decoded flow set keeps the
// order it was stored in as its sorted order, so flows must come strictly
// increasing, as EncodeResult writes them. A swapped pair or a repeated
// flow is refused, naming the flow; the unedited re-framing decodes.
func TestDecodeRejectsNonCanonicalFlowOrder(t *testing.T) {
	if _, err := DecodeResult(reorderedSnapshot(t, func(fl [][3]uint64) [][3]uint64 { return fl })); err != nil {
		t.Fatalf("re-framed snapshot: %v", err)
	}
	for name, edit := range map[string]func([][3]uint64) [][3]uint64{"swapped pair": swapFlows, "repeated flow": repeatFlow} {
		_, err := DecodeResult(reorderedSnapshot(t, edit))
		if err == nil || !strings.Contains(err.Error(), "flow 11 is not after flow 10 in canonical order") {
			t.Errorf("%s: err = %v, want the canonical-order error at flow 11", name, err)
		}
	}
}

// TestDecodedSetsArriveSorted: the first sorted read of a decoded set
// allocates nothing — no decoded set sorts. Each run reads a result no
// earlier run touched.
func TestDecodedSetsArriveSorted(t *testing.T) {
	const runs = 5
	enc := EncodeResult(auditOne(t, "Quizlet"))
	results := make([]*core.ServiceResult, runs+1) // AllocsPerRun warms up on one more
	for i := range results {
		var err error
		if results[i], err = DecodeResult(enc); err != nil {
			t.Fatal(err)
		}
	}
	n, next := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, set := range results[next].ByTrace {
			set.RangeSorted(func(uint64, flows.PlatformMask) { n++ })
		}
		next++
	})
	if allocs != 0 || n == 0 {
		t.Errorf("first RangeSorted of %d decoded results (%d flows in all): %v allocations per result, want 0", runs+1, n, allocs)
	}
}

// TestDecodePersonasAgainstBuiltins: a record identical to a built-in
// decodes to it; one reusing a built-in name or alias with other
// attributes does not decode.
func TestDecodePersonasAgainstBuiltins(t *testing.T) {
	dec, err := DecodeResult(personaSnapshot(t, flows.Adolescent.Info()))
	if err != nil || dec.ByTrace[flows.Adolescent] == nil {
		t.Fatalf("built-in record: %v (personas %v)", err, dec.Personas())
	}
	clash := flows.Adolescent.Info()
	clash.AgeMax = 17
	alias := flows.PersonaInfo{Name: "Teen Clone", Aliases: []string{"teen"}, Subject: "teen clone user"}
	for _, info := range []flows.PersonaInfo{clash, alias} {
		if _, err := DecodeResult(personaSnapshot(t, info)); err == nil {
			t.Errorf("decoded %+v, which reuses a built-in spelling", info)
		}
	}
}

// TestDecodeRejectsCorruption covers the failure paths: truncation, bad
// magic, future versions, and flipped payload bytes must all fail cleanly.
func TestDecodeRejectsCorruption(t *testing.T) {
	res := auditOne(t, "TikTok")
	enc := EncodeResult(res)

	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeResult(nil); err == nil {
			t.Error("decoded nil input")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] ^= 0xff
		if _, err := DecodeResult(bad); err == nil {
			t.Error("decoded bad magic")
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint16(bad[4:6], SnapshotVersion+1)
		if _, err := DecodeResult(bad); err == nil {
			t.Error("decoded future version")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{1, 7, len(enc) / 2, len(enc) - 1} {
			if _, err := DecodeResult(enc[:n]); err == nil {
				t.Errorf("decoded %d-byte truncation", n)
			}
		}
	})
	t.Run("flipped byte", func(t *testing.T) {
		// Flip a payload byte; the CRC must catch it.
		for _, off := range []int{8, len(enc) / 2, len(enc) - 8} {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 0x40
			if _, err := DecodeResult(bad); err == nil {
				t.Errorf("decoded snapshot with byte %d flipped", off)
			}
		}
	})
}

// TestConcurrentEncodeDecodeIdentical runs encode, decode and re-encode of
// one result from many goroutines at once and requires every artifact to
// stay byte-identical to a single-threaded reference. Under -race (the CI
// race step covers this package) it is the proof that concurrent codec
// calls share no mutable state.
func TestConcurrentEncodeDecodeIdentical(t *testing.T) {
	res := auditOne(t, "Quizlet")
	want := EncodeResult(res)

	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				enc := EncodeResult(res)
				if !bytes.Equal(enc, want) {
					errs[g] = fmt.Errorf("round %d: concurrent encode diverged from reference", i)
					return
				}
				dec, err := DecodeResult(enc)
				if err != nil {
					errs[g] = err
					return
				}
				if re := EncodeResult(dec); !bytes.Equal(re, want) {
					errs[g] = fmt.Errorf("round %d: re-encode after concurrent decode diverged", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// refreshCRC recomputes the trailer CRC so payload mutations reach the
// section decoders instead of dying at the envelope check.
func refreshCRC(data []byte) []byte {
	body := data[:len(data)-trailerLen]
	binary.LittleEndian.PutUint32(data[len(data)-trailerLen:], crc32.ChecksumIEEE(body))
	return data
}

// smallSnapshot encodes an audit of every 50th Quizlet record — four
// personas, some 100 flows, about 4 KB — so sweeps over every byte of it
// stay fast.
func smallSnapshot(t *testing.T) []byte {
	t.Helper()
	st := synth.Generate(synth.Config{Scale: 0.002}).Service("Quizlet")
	var recs []core.RequestRecord
	for i, rec := range st.Records() {
		if i%50 == 0 {
			recs = append(recs, rec)
		}
	}
	res := core.NewPipeline().AnalyzeRecords(st.Identity(), recs)
	if len(res.ByTrace) < 4 {
		t.Fatalf("sampled audit has %d personas, want 4", len(res.ByTrace))
	}
	return EncodeResult(res)
}

// TestDecodeRefusesOtherVersions: versions 1 and 2 were development
// formats no deployed build wrote, and this build carries no reader for
// them. Bytes framed as either (or as version 0, or a future one) — an
// otherwise valid snapshot, CRC and all — are refused with the version
// error.
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
	}
}

// TestViewEquivalence (named for the lazy view DecodeResult replaced; the
// name is what the test floor tracks) proves the one decode path loses
// nothing: over every synthesized service, audited with the four built-in
// personas plus a custom one, re-encoding the decoded snapshot reproduces
// the stored bytes and the decoded result exports the same report.json as
// the result that was stored.
func TestViewEquivalence(t *testing.T) {
	custom, err := flows.NewPersona(flows.PersonaInfo{
		Name: "Decode Teen", Aliases: []string{"decode-teen"},
		AgeKnown: true, AgeMin: 13, AgeMax: 15, LoggedIn: true,
		Attrs: map[string]string{"region": "EU"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var plans []synth.PersonaPlan
	for _, p := range flows.BuiltinPersonas() {
		plans = append(plans, synth.PersonaPlan{Persona: p, Like: p})
	}
	plans = append(plans, synth.PersonaPlan{Persona: custom, Like: flows.Adolescent})
	ds := synth.Generate(synth.Config{Scale: 0.005, Personas: plans})
	for _, st := range ds.Services {
		res := core.NewPipeline().AnalyzeRecords(st.Identity(), st.Records())
		if res.ByTrace[custom] == nil || res.ByTrace[custom].Len() == 0 {
			t.Fatalf("%s: custom persona has no flows", st.Spec.Name)
		}
		enc := EncodeResult(res)
		dec, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("%s: %v", st.Spec.Name, err)
		}
		if !bytes.Equal(EncodeResult(dec), enc) {
			t.Errorf("%s: re-encode(decode(x)) != x", st.Spec.Name)
		}
		wantJSON, err := report.ExportJSON([]*core.ServiceResult{res})
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := report.ExportJSON([]*core.ServiceResult{dec})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: ExportJSON differs after decode", st.Spec.Name)
		}
	}
}

// TestViewRejectsCorruption (name kept from the view it used to open):
// every truncation and every single-byte flip of a stored snapshot is
// refused by DecodeResult — the envelope CRC detects any one damaged byte
// — and none panics.
func TestViewRejectsCorruption(t *testing.T) {
	enc := smallSnapshot(t)
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeResult(enc[:n]); err == nil {
			t.Fatalf("decoded a %d-byte truncation of %d bytes", n, len(enc))
		}
	}
	bad := append([]byte(nil), enc...)
	for off := range bad {
		bad[off] ^= 0xFF
		if _, err := DecodeResult(bad); err == nil {
			t.Fatalf("decoded a snapshot with byte %d flipped", off)
		}
		bad[off] ^= 0xFF
	}
	if _, err := DecodeResult([]byte("not a snapshot at all")); err == nil {
		t.Error("decoded junk")
	}
}

// TestColumnarSectionCorruption drives the same two sweeps past the
// envelope: every payload truncation and every payload byte flip, each
// with the CRC recomputed so the damage reaches the section directory,
// the meta, persona and symbol sections and the flow columns. Each must
// fail cleanly or decode to a result the canonical encoder accepts (a
// flipped mask bit or counter survives); none may panic.
func TestColumnarSectionCorruption(t *testing.T) {
	enc := smallSnapshot(t)
	check := func(what string, at int, data []byte) {
		dec, err := DecodeResult(data)
		if err != nil {
			return
		}
		if dec == nil {
			t.Fatalf("%s %d: nil result without error", what, at)
		}
		EncodeResult(dec)
	}
	for n := headerLen; n < len(enc)-trailerLen; n++ {
		cut := append(append([]byte(nil), enc[:n]...), 0, 0, 0, 0)
		check("truncation at", n, refreshCRC(cut))
	}
	bad := append([]byte(nil), enc...)
	for off := headerLen; off < len(enc)-trailerLen; off++ {
		bad[off] ^= 0xa5
		check("flip at", off, refreshCRC(bad))
		bad[off] ^= 0xa5
	}
}

// TestDecodeBoundedMemory: decoding is not remembered. 40 snapshots of 500
// hostnames nothing else mentions (20 000 in all), each decoded and
// dropped, must leave the live heap within 2 MiB of where it started; a
// decoder that fed process-wide symbol tables kept about 1 KB a hostname.
func TestDecodeBoundedMemory(t *testing.T) {
	const (
		snapshots = 40
		hosts     = 500
		marginMB  = 2
	)
	age, _ := ontology.Lookup("Age")
	decodeOne := func(n int) {
		res := &core.ServiceResult{
			Identity: core.ServiceIdentity{Name: "Bounded"},
			ByTrace:  map[flows.Persona]*flows.Set{flows.Child: flows.NewSet()},
		}
		for i := 0; i < hosts; i++ {
			esld := fmt.Sprintf("bounded-%d-%d.example", n, i)
			res.ByTrace[flows.Child].Add(flows.Flow{Category: age,
				Dest: flows.Destination{FQDN: "www." + esld, ESLD: esld, Owner: esld, Class: flows.ThirdParty}}, flows.Web)
		}
		got, err := DecodeResult(EncodeResult(res))
		if err != nil {
			t.Fatal(err)
		}
		if got.ByTrace[flows.Child].Len() != hosts {
			t.Fatalf("snapshot %d decoded %d flows, want %d", n, got.ByTrace[flows.Child].Len(), hosts)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	decodeOne(0) // one-time allocations land before the baseline
	before := liveHeap()
	for n := 1; n <= snapshots; n++ {
		decodeOne(n)
	}
	after := liveHeap()
	t.Logf("live heap %.2f → %.2f MiB over %d decodes of %d fresh hostnames", float64(before)/(1<<20), float64(after)/(1<<20), snapshots, hosts)
	if grown := int64(after) - int64(before); grown > marginMB<<20 {
		t.Errorf("live heap grew %.1f MiB, want at most %d MiB", float64(grown)/(1<<20), marginMB)
	}
}
