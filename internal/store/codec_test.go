package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
	"diffaudit/internal/report"
	"diffaudit/internal/synth"
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
// registrations: a result keyed by a custom persona decodes with the
// persona registered and its flows intact.
func TestRoundTripCustomPersona(t *testing.T) {
	p, err := flows.RegisterPersona(flows.PersonaInfo{
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
	set := dec.ByTrace[p]
	if set == nil || set.Len() != res.ByTrace[p].Len() {
		t.Fatalf("custom persona set lost: %v", set)
	}
	if !bytes.Equal(EncodeResult(dec), enc) {
		t.Error("custom-persona snapshot not canonical")
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

// TestConcurrentPooledEncodeIdentical hammers the pooled encode and
// columnar-decode scratch from many goroutines at once and requires every
// artifact to stay byte-identical to a single-threaded reference. Under
// -race (the CI chaos/race step covers this package) it is the proof
// that sync.Pool reuse never aliases bytes still owned by another
// request.
func TestConcurrentPooledEncodeIdentical(t *testing.T) {
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
					errs[g] = fmt.Errorf("round %d: pooled encode diverged from reference", i)
					return
				}
				dec, err := DecodeResult(enc)
				if err != nil {
					errs[g] = err
					return
				}
				if re := EncodeResult(dec); !bytes.Equal(re, want) {
					errs[g] = fmt.Errorf("round %d: re-encode after pooled decode diverged", i)
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
	custom, err := flows.RegisterPersona(flows.PersonaInfo{
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
	decodeOne(0) // pools and registries are warm after the first
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
