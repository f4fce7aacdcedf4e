package flows

import (
	"fmt"

	"diffaudit/internal/ontology"
	"diffaudit/internal/wire"
)

// Snapshot codec for flow sets. The process-wide symbol tables (symbols.go)
// assign IDs in first-seen order, which depends on worker interleaving and
// on whatever else the process audited before — so raw CatID/DestID values
// are meaningless outside the process that minted them. A serialized set
// therefore carries its own local symbol tables: every category and
// destination referenced by the encoded sets is written once (name + group,
// and the full FQDN/eSLD/owner/class tuple respectively) and flows refer to
// those local indices. Decoding re-interns each symbol into the live
// process tables and rebuilds the packed-key map, so a decoded set is
// indistinguishable from one the pipeline accumulated directly.
//
// Local indices are assigned in sorted flow order (FlowKeyLess), which
// makes the encoding canonical: encoding a decoded set reproduces the
// original bytes exactly. The store layer's content hashing relies on that.

// SetEncoder accumulates the symbol tables shared by the sets of one
// snapshot. Collect every set first (symbols are assigned local indices in
// first-collected order), then write the tables, then each set
// (WriteSetColumnar).
type SetEncoder struct {
	catIdx  map[CatID]uint64
	cats    []CatID
	destIdx map[DestID]uint64
	dests   []DestID
}

// NewSetEncoder returns an empty encoder.
func NewSetEncoder() *SetEncoder {
	return &SetEncoder{
		catIdx:  make(map[CatID]uint64),
		destIdx: make(map[DestID]uint64),
	}
}

// Collect registers the symbols a set references, in deterministic sorted
// flow order. Every set later passed to WriteSetColumnar must have been
// collected.
func (e *SetEncoder) Collect(s *Set) {
	if s == nil {
		return
	}
	s.RangeSorted(func(key uint64, _ PlatformMask) {
		c, d := SplitFlowKey(key)
		if _, ok := e.catIdx[c]; !ok {
			e.catIdx[c] = uint64(len(e.cats))
			e.cats = append(e.cats, c)
		}
		if _, ok := e.destIdx[d]; !ok {
			e.destIdx[d] = uint64(len(e.dests))
			e.dests = append(e.dests, d)
		}
	})
}

// WriteTables writes the collected symbol tables: categories as
// (name, level-2 group) pairs, destinations as the full resolved tuple.
func (e *SetEncoder) WriteTables(w *wire.Writer) {
	w.Int(len(e.cats))
	for _, id := range e.cats {
		c := CategoryByID(id)
		if c == nil {
			// Unassigned IDs cannot appear in a Set built through Add/AddIDs.
			panic(fmt.Sprintf("flows: encoding unassigned category ID %d", id))
		}
		w.String(c.Name)
		w.Byte(byte(c.Group))
	}
	w.Int(len(e.dests))
	for _, id := range e.dests {
		d := DestinationByID(id)
		w.String(d.FQDN)
		w.String(d.ESLD)
		w.String(d.Owner)
		w.Byte(byte(d.Class))
	}
}

// SetDecoder resolves a snapshot's local symbol indices to live process
// symbol IDs.
type SetDecoder struct {
	cats  []CatID
	dests []DestID
}

// ReadSetTables reads the symbol tables written by WriteTables,
// re-interning every symbol into the process-wide tables. Category names
// that match the canonical ontology resolve to the canonical category (so
// decoded flows carry full level-4 metadata); unknown names reconstruct a
// minimal category from the serialized name and group.
func ReadSetTables(r *wire.Reader) (*SetDecoder, error) {
	d := &SetDecoder{}
	// A category entry is ≥ 2 bytes (empty name + group byte).
	nCats := r.Count(2)
	d.cats = make([]CatID, 0, nCats)
	for i := 0; i < nCats; i++ {
		name := r.String()
		group := r.Byte()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if name == "" {
			return nil, fmt.Errorf("flows: snapshot category %d has empty name", i)
		}
		cat, ok := ontology.Lookup(name)
		if !ok {
			cat = &ontology.Category{Name: name, Group: ontology.Level2(group)}
		}
		d.cats = append(d.cats, InternCategory(cat))
	}
	// A destination entry is ≥ 4 bytes (three empty strings + class byte).
	nDests := r.Count(4)
	d.dests = make([]DestID, 0, nDests)
	for i := 0; i < nDests; i++ {
		dest := Destination{
			FQDN:  r.String(),
			ESLD:  r.String(),
			Owner: r.String(),
			Class: DestClass(r.Byte()),
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if dest.FQDN == "" {
			return nil, fmt.Errorf("flows: snapshot destination %d has empty FQDN", i)
		}
		if dest.Class < FirstParty || dest.Class > ThirdPartyATS {
			return nil, fmt.Errorf("flows: snapshot destination %q has invalid class %d", dest.FQDN, dest.Class)
		}
		d.dests = append(d.dests, InternDestination(dest))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
