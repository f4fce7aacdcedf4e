package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/synth"
)

// FuzzDecodeResult is the snapshot codec's robustness harness: DecodeResult
// must never panic, whatever the input — it either returns a result or a
// clean error. When it does decode, the result must re-encode and decode
// again (the codec accepts its own output). Run with:
//
//	go test -fuzz FuzzDecodeResult ./internal/store
//
// Seed corpus: testdata/fuzz/FuzzDecodeResult holds committed seeds (a
// valid snapshot, header fragments, junk); the f.Add seeds below regenerate
// richer live encodings each run, among them a custom-persona snapshot and
// the shapes the decoder must refuse: a persona named twice, a category
// outside the ontology, and flows swapped or repeated out of canonical
// order.
func FuzzDecodeResult(f *testing.F) {
	ds := synth.Generate(synth.Config{Scale: 0.005})
	pipe := core.NewPipeline()
	var enc []byte
	for _, name := range []string{"Quizlet", "TikTok"} {
		st := ds.Service(name)
		res := pipe.AnalyzeRecords(st.Identity(), st.Records())
		enc = EncodeResult(res)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])                // truncated
		f.Add(append([]byte(nil), enc[8:]...)) // headerless tail
	}
	corrupted := append([]byte(nil), enc...)
	corrupted[len(corrupted)/2] ^= 0xa5
	f.Add(corrupted)
	// Columnar-section seeds: payload mutations with a refreshed CRC reach
	// the v3 column decoders (count mismatches, bad indices, bad masks)
	// instead of dying at the envelope.
	for _, off := range []int{len(enc) / 2, len(enc) * 3 / 4, len(enc) - trailerLen - 1} {
		deep := refreshCRC(append([]byte(nil), enc...))
		deep[off] ^= 0x11
		f.Add(refreshCRC(deep))
	}
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	ghost := flows.PersonaInfo{Name: "Ghost Kid", Aliases: []string{"ghost"}, AgeKnown: true, AgeMin: 5, AgeMax: 9,
		LoggedIn: true, Subject: "ghost kid user", Attrs: map[string]string{"region": "EU"}}
	f.Add(personaSnapshot(f, flows.Child.Info(), ghost))
	f.Add(personaSnapshot(f, flows.Child.Info(), flows.Child.Info()))
	f.Add(unknownCategorySnapshot(f))
	f.Add(reorderedSnapshot(f, swapFlows))
	f.Add(reorderedSnapshot(f, repeatFlow))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		// Accepted input must round-trip through the canonical encoding.
		reenc := EncodeResult(res)
		res2, err := DecodeResult(reenc)
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(EncodeResult(res2), reenc) {
			t.Fatal("accepted snapshot is not canonical")
		}
	})
}

// FuzzDecodeVersioned drives structured mutations through the header so
// the version gate keeps rejecting cleanly.
func FuzzDecodeVersioned(f *testing.F) {
	res := core.NewPipeline().AnalyzeRecords(
		core.ServiceIdentity{Name: "fuzz-svc", FirstPartyESLDs: []string{"fuzz.example"}},
		nil)
	if res.ByTrace[flows.Child] == nil {
		f.Fatal("pipeline produced no built-in traces")
	}
	enc := EncodeResult(res)
	f.Add(uint16(SnapshotVersion), enc[6:])
	f.Add(uint16(SnapshotVersion+1), enc[6:])
	f.Add(uint16(SnapshotVersion-1), enc[6:])
	f.Add(uint16(0), []byte{})

	f.Fuzz(func(t *testing.T, version uint16, payload []byte) {
		data := make([]byte, 0, 6+len(payload))
		data = append(data, snapMagic...)
		data = binary.LittleEndian.AppendUint16(data, version)
		data = append(data, payload...)
		res, err := DecodeResult(data)
		if version != SnapshotVersion && err == nil {
			t.Fatalf("accepted version %d", version)
		}
		if err == nil && res == nil {
			t.Fatal("nil result without error")
		}
	})
}
