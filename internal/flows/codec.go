package flows

import (
	"fmt"

	"diffaudit/internal/ontology"
	"diffaudit/internal/wire"
)

// Snapshot codec for flow sets. A DestID means something only inside the
// Table that minted it, and a CatID only to builds sharing one ontology, so
// a serialized set carries its own symbol tables: every category and destination
// referenced by the encoded sets is written once (name + group, and the
// full FQDN/eSLD/owner/class tuple respectively) and flows refer to those
// local indices. Decoding turns the destination section straight into the
// decoded result's Table and rebuilds the packed-key maps over it, so a
// decoded set is indistinguishable from one the pipeline accumulated
// directly.
//
// Local indices are assigned in sorted flow order (Table.KeyLess), which
// makes the encoding canonical: encoding a decoded set reproduces the
// original bytes exactly. The store layer's content hashing relies on that.

// SetEncoder accumulates the symbol tables shared by the sets of one
// snapshot. Collect every set first (symbols are assigned local indices in
// first-collected order), then write the tables, then each set
// (WriteSetColumnar). The sets need not share a Table: destinations get
// their local index by content.
type SetEncoder struct {
	catIdx  map[CatID]uint64
	cats    []CatID
	destIdx map[Destination]uint64
	dests   []Destination
	// local translates each collected table's DestIDs to local index + 1
	// (zero: no collected flow references the destination), so content is
	// hashed once per distinct destination, not once per flow.
	local map[*Table][]uint64
}

// NewSetEncoder returns an empty encoder.
func NewSetEncoder() *SetEncoder {
	return &SetEncoder{
		catIdx:  make(map[CatID]uint64),
		destIdx: make(map[Destination]uint64),
		local:   make(map[*Table][]uint64),
	}
}

// Collect registers the symbols a set references, in deterministic sorted
// flow order. Every set later passed to WriteSetColumnar must have been
// collected.
func (e *SetEncoder) Collect(s *Set) {
	if s == nil {
		return
	}
	local := e.local[s.tab]
	if local == nil {
		local = make([]uint64, s.tab.Len())
		e.local[s.tab] = local
	}
	s.RangeSorted(func(key uint64, _ PlatformMask) {
		c, d := SplitFlowKey(key)
		if _, ok := e.catIdx[c]; !ok {
			e.catIdx[c] = uint64(len(e.cats))
			e.cats = append(e.cats, c)
		}
		if local[d] != 0 {
			return
		}
		dest := s.tab.Destination(d)
		i, ok := e.destIdx[dest]
		if !ok {
			i = uint64(len(e.dests))
			e.destIdx[dest] = i
			e.dests = append(e.dests, dest)
		}
		local[d] = i + 1
	})
}

// WriteTables writes the collected symbol tables: categories as
// (name, level-2 group) pairs, destinations as the full resolved tuple.
func (e *SetEncoder) WriteTables(w *wire.Writer) {
	w.Int(len(e.cats))
	for _, id := range e.cats {
		c := CategoryByID(id)
		w.String(c.Name)
		w.Byte(byte(c.Group))
	}
	w.Int(len(e.dests))
	for _, d := range e.dests {
		w.String(d.FQDN)
		w.String(d.ESLD)
		w.String(d.Owner)
		w.Byte(byte(d.Class))
	}
}

// SetDecoder resolves a snapshot's local symbol indices: categories to
// their ontology IDs, destinations to IDs of the one Table every set it
// decodes shares.
type SetDecoder struct {
	cats  []CatID
	tab   *Table
	dests []DestID
}

// ReadSetTables reads the symbol tables written by WriteTables into a
// fresh Table. Every category must be an ontology category under its exact
// name and group; any other is an error, since no CatID could hold it.
// Destination strings are read through seen (wire.Reader.Shared):
// eSLDs and owners repeat from destination to destination, and the caller's
// document may already hold the FQDNs.
func ReadSetTables(r *wire.Reader, seen map[string]string) (*SetDecoder, error) {
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
		id, ok := catByName[name]
		if !ok {
			return nil, fmt.Errorf("flows: snapshot category %q is not in the ontology", name)
		}
		if g := CategoryByID(id).Group; g != ontology.Level2(group) {
			return nil, fmt.Errorf("flows: snapshot category %q has group %d, want %d", name, group, g)
		}
		d.cats = append(d.cats, id)
	}
	// A destination entry is ≥ 4 bytes (three empty strings + class byte).
	nDests := r.Count(4)
	d.tab = NewTableSized(nDests)
	d.dests = make([]DestID, 0, nDests)
	for i := 0; i < nDests; i++ {
		dest := Destination{
			FQDN:  r.Shared(seen),
			ESLD:  r.Shared(seen),
			Owner: r.Shared(seen),
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
		d.dests = append(d.dests, d.tab.Intern(dest))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	d.tab.Seal()
	return d, nil
}
