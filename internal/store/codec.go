package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sort"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/wire"
)

// Snapshot codec: a self-contained, versioned binary encoding of one
// core.ServiceResult. "Self-contained" means the encoding carries its own
// symbol tables (category names and groups, resolved destinations, persona
// records), so a snapshot written by one process decodes in another: the
// destination section becomes the decoded result's own symbol table,
// categories resolve by name to their ontology IDs, and personas become
// handles of the result's own. Decoding changes nothing outside the result.
//
// The encoding is canonical: map-backed fields (domains, eSLDs, raw keys,
// persona attributes) are written sorted, flows in Table.KeyLess order, and
// personas by name, so encode(decode(encode(x))) == encode(x) byte for byte
// and identical results encode identically in every process. Content
// hashing (Hash) and the
// restart-durability guarantee ("the served report is byte-identical
// after a restart") both rest on this property.
//
// Layout (version 3):
//
//	magic "DASN" | version uint16 LE | section directory | sections | crc32(IEEE) uint32 LE
//
// The payload is framed into independently seekable sections
// (wire.WriteSections): a directory of (kind, length) entries, then the
// bodies. Section order is fixed and canonical — meta, personas, symbol
// tables, then one flow-set section per persona in persona order. Each
// flow-set section is columnar (parallel category/destination/mask
// columns, flows.WriteSetColumnar).
//
// The CRC covers magic, version, and payload. Truncated or corrupted input
// fails cleanly: every payload read is bounds-checked (package wire), so
// even a CRC collision cannot make the decoder panic or over-allocate.
// Version 3 is the only version any build has written to a deployed
// store, and the only one decoders accept: every other version number,
// older or newer, is rejected with a clear error.

// snapMagic identifies a DiffAudit snapshot ("DiffAudit SNapshot").
const snapMagic = "DASN"

// SnapshotVersion is the snapshot format version this build writes and
// reads.
const SnapshotVersion = 3

// Section kinds of the section framing.
const (
	secMeta     byte = 1 // identity, counters, dataset string sets
	secPersonas byte = 2 // persona records, in strictly increasing name order
	secSymbols  byte = 3 // flow symbol tables shared by every set
	secFlowSet  byte = 4 // one per persona, aligned with secPersonas order
)

// headerLen is magic + version; trailerLen is the CRC.
const (
	headerLen  = len(snapMagic) + 2
	trailerLen = 4
)

// Hash returns the content hash of an encoded snapshot: hex SHA-256 over
// the full encoding. Identical audit results hash identically no matter
// when or where they were serialized.
func Hash(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return hex.EncodeToString(sum[:])
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// EncodeResult serializes a service result as a versioned snapshot: each
// section is built in a writer of its own, then framed into one buffer
// allocated at the exact final size. Only a result with one persona per
// name (core.ServiceResult.CheckPersonas, which Put and SaveFile run)
// encodes to a snapshot DecodeResult accepts.
func EncodeResult(r *core.ServiceResult) []byte {
	// Personas go by name, the one key that means the same in every process.
	personas := r.Personas()
	sort.Slice(personas, func(i, j int) bool { return personas[i].String() < personas[j].String() })

	var meta, pers, tables wire.Writer
	writeMetaSection(&meta, r)

	pers.Int(len(personas))
	for _, p := range personas {
		writePersonaInfo(&pers, p.Info())
	}

	// Flow symbol tables shared across the per-persona sets, then the sets
	// themselves — columnar, one section each, aligned with the persona
	// list above.
	enc := flows.NewSetEncoder()
	for _, p := range personas {
		enc.Collect(r.ByTrace[p])
	}
	enc.WriteTables(&tables)

	secs := []wire.Section{
		{Kind: secMeta, Data: meta.Bytes()},
		{Kind: secPersonas, Data: pers.Bytes()},
		{Kind: secSymbols, Data: tables.Bytes()},
	}
	for _, p := range personas {
		var sw wire.Writer
		enc.WriteSetColumnar(&sw, r.ByTrace[p])
		secs = append(secs, wire.Section{Kind: secFlowSet, Data: sw.Bytes()})
	}

	// The final size is known exactly: header, directory, bodies, CRC.
	// One right-sized allocation instead of an append doubling walk.
	total := headerLen + uvarintLen(uint64(len(secs))) + trailerLen
	for _, s := range secs {
		total += 1 + uvarintLen(uint64(len(s.Data))) + len(s.Data)
	}
	w := &wire.Writer{}
	w.Grow(total)
	w.Raw([]byte(snapMagic))
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], SnapshotVersion)
	w.Raw(ver[:])
	wire.WriteSections(w, secs)

	// Trailer CRC over everything so far.
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(w.Bytes()))
	w.Raw(crc[:])
	return w.Bytes()
}

// checkSnapshot validates the envelope every snapshot read shares — magic,
// version gate, CRC — and returns the payload.
func checkSnapshot(data []byte) (payload []byte, err error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("store: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("store: not a snapshot (bad magic %q)", data[:len(snapMagic)])
	}
	if version := binary.LittleEndian.Uint16(data[len(snapMagic):headerLen]); version != SnapshotVersion {
		return nil, fmt.Errorf("store: snapshot version %d not supported (this build reads version %d)", version, SnapshotVersion)
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("store: snapshot checksum mismatch (corrupted or truncated)")
	}
	return body[headerLen:], nil
}

// DecodeResult parses a snapshot back into a service result, in one
// sequential pass: envelope, section directory, meta, personas, symbol
// tables, then each persona's flow set. It is the only decoder — every
// store read and every standalone file goes through it. A persona record
// identical to a built-in decodes to that built-in, one reusing a built-in
// name or alias with other attributes is an error, and any other gets a
// handle the result owns (flows.NewPersona). The result copies everything
// it keeps, so it never aliases data, and decoding changes no state outside
// it.
func DecodeResult(data []byte) (*core.ServiceResult, error) {
	payload, err := checkSnapshot(data)
	if err != nil {
		return nil, err
	}
	secs, err := splitSections(payload)
	if err != nil {
		return nil, err
	}
	// A result names each destination twice, in Domains/ESLDs and in its
	// symbol table; seen lets the two share their strings, so a cached
	// result holds every hostname once. Sized at one distinct string per
	// 64 encoded bytes, about what audits come to, so it seldom regrows.
	seen := make(map[string]string, len(data)/64)
	res, err := decodeMetaSection(secs.meta, seen)
	if err != nil {
		return nil, err
	}
	personas, err := decodePersonaSection(secs.personas)
	if err != nil {
		return nil, err
	}
	if len(personas) != len(secs.flowSets) {
		return nil, fmt.Errorf("store: snapshot has %d personas but %d flow sections", len(personas), len(secs.flowSets))
	}
	dec, err := decodeSymbolSection(secs.symbols, seen)
	if err != nil {
		return nil, err
	}
	for i, p := range personas {
		set, err := dec.DecodeSetColumnar(secs.flowSets[i])
		if err != nil {
			return nil, fmt.Errorf("store: snapshot flow set for %s: %w", p, err)
		}
		res.ByTrace[p] = set
	}
	return res, nil
}

// snapSections is a parsed section directory: slices into the payload,
// one per section.
type snapSections struct {
	meta     []byte
	personas []byte
	symbols  []byte
	flowSets [][]byte
}

// splitSections parses the sectioned directory and checks the section
// shape: the three fixed sections in canonical order, then one flow-set
// section per persona. Unknown trailing kinds are rejected — the CRC
// already proved the bytes are what the writer wrote, so an unknown kind
// means a format this build does not speak (the version gate should have
// caught it).
func splitSections(payload []byte) (*snapSections, error) {
	all, err := wire.ReadSections(wire.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("store: snapshot sections: %w", err)
	}
	if len(all) < 3 || all[0].Kind != secMeta || all[1].Kind != secPersonas || all[2].Kind != secSymbols {
		return nil, fmt.Errorf("store: snapshot missing canonical sections")
	}
	s := &snapSections{meta: all[0].Data, personas: all[1].Data, symbols: all[2].Data}
	for _, sec := range all[3:] {
		if sec.Kind != secFlowSet {
			return nil, fmt.Errorf("store: unexpected snapshot section kind %d", sec.Kind)
		}
		s.flowSets = append(s.flowSets, sec.Data)
	}
	return s, nil
}

// decodeMetaSection parses identity, counters, and the dataset string sets
// into a result with no flow sets yet.
func decodeMetaSection(data []byte, seen map[string]string) (*core.ServiceResult, error) {
	r := wire.NewReader(data)
	res := &core.ServiceResult{
		Identity: core.ServiceIdentity{
			Name:  r.String(),
			Owner: r.String(),
		},
		ByTrace: make(map[flows.Persona]*flows.Set),
	}
	nESLDs := r.Count(1)
	for i := 0; i < nESLDs; i++ {
		res.Identity.FirstPartyESLDs = append(res.Identity.FirstPartyESLDs, r.String())
	}
	res.Packets = r.Int()
	res.TCPFlows = r.Int()
	res.DroppedKeys = r.Int()
	res.Domains = readStringSet(r, seen)
	res.ESLDs = readStringSet(r, seen)
	res.RawKeys = readStringSet(r, nil)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("store: snapshot meta section: %w", err)
	}
	return res, nil
}

// decodePersonaSection parses the snapshot's personas, returning them in
// section (name) order — the order the flow-set sections follow. Names must
// strictly increase, as the encoder writes them: a repeated name would let
// one flow set silently replace another.
func decodePersonaSection(data []byte) ([]flows.Persona, error) {
	r := wire.NewReader(data)
	nPersonas := r.Count(1)
	personas := make([]flows.Persona, 0, nPersonas)
	for i := 0; i < nPersonas; i++ {
		info, err := readPersonaInfo(r)
		if err != nil {
			return nil, err
		}
		p, err := flows.NewPersona(info)
		if err != nil {
			return nil, fmt.Errorf("store: snapshot persona %q: %w", info.Name, err)
		}
		if i > 0 && p.String() <= personas[i-1].String() {
			return nil, fmt.Errorf("store: snapshot persona %q does not follow %q in name order", p, personas[i-1])
		}
		personas = append(personas, p)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("store: snapshot persona section: %w", err)
	}
	return personas, nil
}

// decodeSymbolSection parses the shared flow symbol tables.
func decodeSymbolSection(data []byte, seen map[string]string) (*flows.SetDecoder, error) {
	r := wire.NewReader(data)
	dec, err := flows.ReadSetTables(r, seen)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot symbol tables: %w", err)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("store: snapshot symbol tables: %w", err)
	}
	return dec, nil
}

// writeMetaSection writes identity, counters, and the dataset-level string
// sets (sorted for canonical output).
func writeMetaSection(w *wire.Writer, r *core.ServiceResult) {
	w.String(r.Identity.Name)
	w.String(r.Identity.Owner)
	w.Int(len(r.Identity.FirstPartyESLDs))
	for _, e := range r.Identity.FirstPartyESLDs {
		w.String(e)
	}
	w.Int(r.Packets)
	w.Int(r.TCPFlows)
	w.Int(r.DroppedKeys)
	writeStringSet(w, r.Domains)
	writeStringSet(w, r.ESLDs)
	writeStringSet(w, r.RawKeys)
}

// writeStringSet writes a set-valued map as a sorted string list.
func writeStringSet(w *wire.Writer, set map[string]bool) {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.String(k)
	}
}

// readStringSet reads a string list back into a set-valued map, sharing
// its strings through seen (wire.Reader.Shared).
func readStringSet(r *wire.Reader, seen map[string]string) map[string]bool {
	n := r.Count(1)
	set := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		if s := r.Shared(seen); r.Err() == nil {
			set[s] = true
		}
	}
	return set
}

// writePersonaInfo writes one persona record.
func writePersonaInfo(w *wire.Writer, info flows.PersonaInfo) {
	w.String(info.Name)
	w.Int(len(info.Aliases))
	for _, a := range info.Aliases {
		w.String(a)
	}
	w.Bool(info.AgeKnown)
	w.Int(info.AgeMin)
	w.Int(info.AgeMax)
	w.Bool(info.LoggedIn)
	w.String(info.Subject)
	keys := make([]string, 0, len(info.Attrs))
	for k := range info.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.String(k)
		w.String(info.Attrs[k])
	}
}

// readPersonaInfo reads one persona record; flows.NewPersona validates it.
func readPersonaInfo(r *wire.Reader) (flows.PersonaInfo, error) {
	var info flows.PersonaInfo
	info.Name = r.String()
	nAliases := r.Count(1)
	for i := 0; i < nAliases; i++ {
		info.Aliases = append(info.Aliases, r.String())
	}
	info.AgeKnown = r.Bool()
	info.AgeMin = r.Int()
	info.AgeMax = r.Int()
	info.LoggedIn = r.Bool()
	info.Subject = r.String()
	nAttrs := r.Count(2)
	if nAttrs > 0 {
		info.Attrs = make(map[string]string, nAttrs)
		for i := 0; i < nAttrs; i++ {
			k := r.String()
			v := r.String()
			if r.Err() == nil {
				info.Attrs[k] = v
			}
		}
	}
	return info, r.Err()
}
