package flows

import (
	"fmt"

	"diffaudit/internal/ontology"
	"diffaudit/internal/wire"
)

// Columnar flow-set layout (snapshot codec version 3). Interleaving
// (category index, destination index, platform mask) triples would make a
// query that needs one attribute per flow walk all three, so a flow-set
// section stores its flows as three parallel columns framed by the
// standard section directory, each column self-contained (count-prefixed)
// and in canonical FlowKeyLess order:
//
//	directory | cats: n + n uvarint local category indices
//	          | dests: n + n uvarint local destination indices
//	          | masks: n + n platform mask bytes
//
// A grid query can then resolve groups and classes straight off the
// columns with a string-skipping table scan (ScanSetTables) — no
// interning, no Set map — and a category census never touches the
// destination column at all. Because the column order and the local-index
// assignment are both derived from the same sorted iteration, re-encoding
// a decoded set reproduces the original bytes exactly; content hashes stay
// meaningful.

// Column kinds inside a columnar flow-set section.
const (
	colCats  byte = 1
	colDests byte = 2
	colMasks byte = 3
)

// WriteSetColumnar writes one collected set in the columnar layout.
// Scratch for the three columns comes from the wire pools; the framed
// output lands in w.
func (e *SetEncoder) WriteSetColumnar(w *wire.Writer, s *Set) {
	cw, dw, mw := wire.GetWriter(), wire.GetWriter(), wire.GetWriter()
	defer func() {
		wire.PutWriter(cw)
		wire.PutWriter(dw)
		wire.PutWriter(mw)
	}()
	n := 0
	if s != nil {
		n = s.Len()
	}
	cw.Int(n)
	dw.Int(n)
	mw.Int(n)
	if s != nil {
		s.RangeSorted(func(key uint64, m PlatformMask) {
			c, d := SplitFlowKey(key)
			ci, ok := e.catIdx[c]
			if !ok {
				panic(fmt.Sprintf("flows: set written before Collect (category ID %d)", c))
			}
			di, ok := e.destIdx[d]
			if !ok {
				panic(fmt.Sprintf("flows: set written before Collect (destination ID %d)", d))
			}
			cw.Uvarint(ci)
			dw.Uvarint(di)
			mw.Byte(byte(m))
		})
	}
	wire.WriteSections(w, []wire.Section{
		{Kind: colCats, Data: cw.Bytes()},
		{Kind: colDests, Data: dw.Bytes()},
		{Kind: colMasks, Data: mw.Bytes()},
	})
}

// SetColumns is a split columnar flow-set section: zero-copy views of the
// three column bodies plus the shared flow count. The slices alias the
// section bytes (possibly an mmap), so a SetColumns is only valid while
// the backing view is.
type SetColumns struct {
	n     int
	cats  []byte // uvarint category indices, count stripped
	dests []byte // uvarint destination indices, count stripped
	masks []byte // raw mask bytes, count stripped (len == n)
}

// SplitSetColumns parses a columnar flow-set section into its columns,
// validating the directory shape and that every column agrees on the flow
// count. Column bodies are not decoded — only their count prefixes are
// read.
func SplitSetColumns(data []byte) (SetColumns, error) {
	secs, err := wire.ReadSections(wire.NewReader(data))
	if err != nil {
		return SetColumns{}, fmt.Errorf("flows: columnar flow section: %w", err)
	}
	if len(secs) != 3 || secs[0].Kind != colCats || secs[1].Kind != colDests || secs[2].Kind != colMasks {
		return SetColumns{}, fmt.Errorf("flows: columnar flow section has unexpected column layout")
	}
	var c SetColumns
	counts := [3]int{}
	bodies := [3][]byte{}
	for i, sec := range secs {
		r := wire.NewReader(sec.Data)
		// A flow occupies at least 1 byte in every column.
		counts[i] = r.Count(1)
		if r.Err() != nil {
			return SetColumns{}, fmt.Errorf("flows: columnar flow section column %d: %w", i, r.Err())
		}
		bodies[i] = sec.Data[len(sec.Data)-r.Remaining():]
	}
	if counts[0] != counts[1] || counts[0] != counts[2] {
		return SetColumns{}, fmt.Errorf("flows: columnar flow section counts disagree (%d/%d/%d)", counts[0], counts[1], counts[2])
	}
	c.n = counts[0]
	c.cats, c.dests, c.masks = bodies[0], bodies[1], bodies[2]
	if len(c.masks) != c.n {
		return SetColumns{}, fmt.Errorf("flows: mask column has %d bytes for %d flows", len(c.masks), c.n)
	}
	return c, nil
}

// Len returns the flow count shared by the columns.
func (c SetColumns) Len() int { return c.n }

// Masks returns the platform-mask column: one byte per flow, zero-copy.
func (c SetColumns) Masks() []byte { return c.masks }

// CatIndices appends the category-index column to dst (pass scratch from
// wire.GetIDs to decode allocation-free) and validates every index against
// tableLen.
func (c SetColumns) CatIndices(dst []uint64, tableLen int) ([]uint64, error) {
	return c.decodeIndexColumn(dst, c.cats, tableLen, "category")
}

// DestIndices appends the destination-index column to dst, validating
// against tableLen.
func (c SetColumns) DestIndices(dst []uint64, tableLen int) ([]uint64, error) {
	return c.decodeIndexColumn(dst, c.dests, tableLen, "destination")
}

func (c SetColumns) decodeIndexColumn(dst []uint64, body []byte, tableLen int, what string) ([]uint64, error) {
	r := wire.NewReader(body)
	for i := 0; i < c.n; i++ {
		idx := r.Uvarint()
		if r.Err() != nil {
			return nil, fmt.Errorf("flows: %s column flow %d: %w", what, i, r.Err())
		}
		if idx >= uint64(tableLen) {
			return nil, fmt.Errorf("flows: snapshot flow %d references %s %d of %d", i, what, idx, tableLen)
		}
		dst = append(dst, idx)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("flows: %s column: %w", what, err)
	}
	return dst, nil
}

// checkMask validates one platform-mask byte from the mask column.
func checkMask(i int, b byte) (PlatformMask, error) {
	m := PlatformMask(b)
	if m == 0 || m&^(OnWeb|OnMobile) != 0 {
		return 0, fmt.Errorf("flows: snapshot flow %d has invalid platform mask 0x%02x", i, b)
	}
	return m, nil
}

// DecodeSetColumnar decodes one columnar flow-set section into a live Set
// against the decoded symbol tables, requiring the slice to contain
// exactly one set. Index scratch comes from the wire pools; the returned
// set copies everything it needs out of data, so the slice may alias a
// transient buffer (e.g. an mmap) without tying the set's lifetime to it.
func (d *SetDecoder) DecodeSetColumnar(data []byte) (*Set, error) {
	c, err := SplitSetColumns(data)
	if err != nil {
		return nil, err
	}
	cats := wire.GetIDs(c.n)
	defer func() { wire.PutIDs(cats) }()
	if cats, err = c.CatIndices(cats, len(d.cats)); err != nil {
		return nil, err
	}
	dests := wire.GetIDs(c.n)
	defer func() { wire.PutIDs(dests) }()
	if dests, err = c.DestIndices(dests, len(d.dests)); err != nil {
		return nil, err
	}
	set := NewSetSized(c.n)
	for i := 0; i < c.n; i++ {
		m, err := checkMask(i, c.masks[i])
		if err != nil {
			return nil, err
		}
		set.AddMask(d.cats[cats[i]], d.dests[dests[i]], m)
	}
	return set, nil
}

// RangeFlows streams the live (category, destination) identity of every
// flow in the columns, resolved against the decoded symbol tables. The
// platform-mask column is never decoded — linkability indexing is mask-
// blind, and this is its columnar feed.
func (d *SetDecoder) RangeFlows(c SetColumns, yield func(CatID, DestID)) error {
	cats := wire.GetIDs(c.n)
	defer func() { wire.PutIDs(cats) }()
	cats, err := c.CatIndices(cats, len(d.cats))
	if err != nil {
		return err
	}
	dests := wire.GetIDs(c.n)
	defer func() { wire.PutIDs(dests) }()
	if dests, err = c.DestIndices(dests, len(d.dests)); err != nil {
		return err
	}
	for i := 0; i < c.n; i++ {
		yield(d.cats[cats[i]], d.dests[dests[i]])
	}
	return nil
}

// TableScan is the column-selective view of a snapshot's symbol tables:
// per-index level-2 groups and destination classes, resolved without
// interning a single symbol or materializing any destination string. It is
// exactly what grid and census queries need per flow — everything else in
// the tables is skipped.
type TableScan struct {
	// Groups holds the level-2 group of each local category index.
	Groups []ontology.Level2
	// Classes holds the destination class of each local destination index.
	Classes []DestClass
}

// ScanSetTables walks the symbol tables written by WriteTables, resolving
// groups and classes only. Category names are still consulted against the
// canonical ontology (a category whose name is canonical reports its
// canonical group, matching the full decoder); destination strings are
// skipped outright.
func ScanSetTables(r *wire.Reader) (*TableScan, error) {
	ts := &TableScan{}
	nCats := r.Count(2)
	ts.Groups = make([]ontology.Level2, 0, nCats)
	for i := 0; i < nCats; i++ {
		name := r.StringBytes()
		group := r.Byte()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(name) == 0 {
			return nil, fmt.Errorf("flows: snapshot category %d has empty name", i)
		}
		g := ontology.Level2(group)
		if cat, ok := ontology.Lookup(string(name)); ok {
			g = cat.Group
		}
		ts.Groups = append(ts.Groups, g)
	}
	nDests := r.Count(4)
	ts.Classes = make([]DestClass, 0, nDests)
	for i := 0; i < nDests; i++ {
		r.SkipString() // FQDN
		r.SkipString() // eSLD
		r.SkipString() // owner
		class := DestClass(r.Byte())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if class < FirstParty || class > ThirdPartyATS {
			return nil, fmt.Errorf("flows: snapshot destination %d has invalid class %d", i, class)
		}
		ts.Classes = append(ts.Classes, class)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return ts, nil
}

// Grid reduces the columns to Table 4 granularity — level-2 group ×
// destination class → platform mask — equivalent to decoding the set and
// calling GroupGrid, but touching only the three columns and the scanned
// tables: no interning, no Set construction, no destination strings.
func (c SetColumns) Grid(ts *TableScan) (map[ontology.Level2]map[DestClass]PlatformMask, error) {
	cats := wire.GetIDs(c.n)
	defer func() { wire.PutIDs(cats) }()
	cats, err := c.CatIndices(cats, len(ts.Groups))
	if err != nil {
		return nil, err
	}
	dests := wire.GetIDs(c.n)
	defer func() { wire.PutIDs(dests) }()
	if dests, err = c.DestIndices(dests, len(ts.Classes)); err != nil {
		return nil, err
	}
	grid := make(map[ontology.Level2]map[DestClass]PlatformMask)
	for i := 0; i < c.n; i++ {
		m, err := checkMask(i, c.masks[i])
		if err != nil {
			return nil, err
		}
		g := ts.Groups[cats[i]]
		if grid[g] == nil {
			grid[g] = make(map[DestClass]PlatformMask)
		}
		grid[g][ts.Classes[dests[i]]] |= m
	}
	return grid, nil
}

// GroupCensus reduces the columns to a per-group platform mask — the
// category side of the grid — touching only the category and mask columns;
// the destination column is never decoded.
func (c SetColumns) GroupCensus(ts *TableScan) (map[ontology.Level2]PlatformMask, error) {
	cats := wire.GetIDs(c.n)
	defer func() { wire.PutIDs(cats) }()
	cats, err := c.CatIndices(cats, len(ts.Groups))
	if err != nil {
		return nil, err
	}
	census := make(map[ontology.Level2]PlatformMask)
	for i := 0; i < c.n; i++ {
		m, err := checkMask(i, c.masks[i])
		if err != nil {
			return nil, err
		}
		census[ts.Groups[cats[i]]] |= m
	}
	return census, nil
}
