package flows

import (
	"fmt"

	"diffaudit/internal/wire"
)

// Columnar flow-set layout (snapshot codec version 3). A flow-set section
// stores its flows as three parallel columns framed by the standard
// section directory, each column self-contained (count-prefixed) and in
// canonical Table.KeyLess order:
//
//	directory | cats: n + n uvarint local category indices
//	          | dests: n + n uvarint local destination indices
//	          | masks: n + n platform mask bytes
//
// Because the column order and the local-index assignment are both
// derived from the same sorted iteration, re-encoding a decoded set
// reproduces the original bytes exactly; content hashes stay meaningful.

// Column kinds inside a columnar flow-set section.
const (
	colCats  byte = 1
	colDests byte = 2
	colMasks byte = 3
)

// WriteSetColumnar writes one collected set in the columnar layout: the
// three columns are built in writers of their own, then framed into w.
func (e *SetEncoder) WriteSetColumnar(w *wire.Writer, s *Set) {
	var cw, dw, mw wire.Writer
	n := 0
	if s != nil {
		n = s.Len()
	}
	cw.Int(n)
	dw.Int(n)
	mw.Int(n)
	if s != nil {
		local := e.local[s.tab]
		s.RangeSorted(func(key uint64, m PlatformMask) {
			c, d := SplitFlowKey(key)
			ci, ok := e.catIdx[c]
			if !ok {
				panic(fmt.Sprintf("flows: set written before Collect (category ID %d)", c))
			}
			if int(d) >= len(local) || local[d] == 0 {
				panic(fmt.Sprintf("flows: set written before Collect (destination ID %d)", d))
			}
			cw.Uvarint(ci)
			dw.Uvarint(local[d] - 1)
			mw.Byte(byte(m))
		})
	}
	wire.WriteSections(w, []wire.Section{
		{Kind: colCats, Data: cw.Bytes()},
		{Kind: colDests, Data: dw.Bytes()},
		{Kind: colMasks, Data: mw.Bytes()},
	})
}

// setColumns is a split columnar flow-set section: the three column
// bodies, aliasing the section bytes, plus the shared flow count.
type setColumns struct {
	n     int
	cats  []byte // uvarint category indices, count stripped
	dests []byte // uvarint destination indices, count stripped
	masks []byte // raw mask bytes, count stripped (len == n)
}

// splitSetColumns parses a columnar flow-set section into its columns,
// validating the directory shape and that every column agrees on the flow
// count. Column bodies are not decoded — only their count prefixes are
// read.
func splitSetColumns(data []byte) (setColumns, error) {
	secs, err := wire.ReadSections(wire.NewReader(data))
	if err != nil {
		return setColumns{}, fmt.Errorf("flows: columnar flow section: %w", err)
	}
	if len(secs) != 3 || secs[0].Kind != colCats || secs[1].Kind != colDests || secs[2].Kind != colMasks {
		return setColumns{}, fmt.Errorf("flows: columnar flow section has unexpected column layout")
	}
	counts := [3]int{}
	bodies := [3][]byte{}
	for i, sec := range secs {
		r := wire.NewReader(sec.Data)
		// A flow occupies at least 1 byte in every column.
		counts[i] = r.Count(1)
		if r.Err() != nil {
			return setColumns{}, fmt.Errorf("flows: columnar flow section column %d: %w", i, r.Err())
		}
		bodies[i] = sec.Data[len(sec.Data)-r.Remaining():]
	}
	if counts[0] != counts[1] || counts[0] != counts[2] {
		return setColumns{}, fmt.Errorf("flows: columnar flow section counts disagree (%d/%d/%d)", counts[0], counts[1], counts[2])
	}
	c := setColumns{n: counts[0], cats: bodies[0], dests: bodies[1], masks: bodies[2]}
	if len(c.masks) != c.n {
		return setColumns{}, fmt.Errorf("flows: mask column has %d bytes for %d flows", len(c.masks), c.n)
	}
	return c, nil
}

// readIndex reads flow i's uvarint index from one index column, checking
// it against tableLen.
func readIndex(r *wire.Reader, i, tableLen int, what string) (uint64, error) {
	idx := r.Uvarint()
	if r.Err() != nil {
		return 0, fmt.Errorf("flows: %s column flow %d: %w", what, i, r.Err())
	}
	if idx >= uint64(tableLen) {
		return 0, fmt.Errorf("flows: snapshot flow %d references %s %d of %d", i, what, idx, tableLen)
	}
	return idx, nil
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
// exactly one set. It walks the three columns in lockstep, checking each
// index and mask as it reads it, and each flow against the one before: the
// flows must come in strictly increasing KeyLess order, as the encoder
// writes them, and they become the set's run, masks beside keys, so no
// decoded set sorts. The returned set copies everything it needs out of data.
func (d *SetDecoder) DecodeSetColumnar(data []byte) (*Set, error) {
	c, err := splitSetColumns(data)
	if err != nil {
		return nil, err
	}
	cats, dests := wire.NewReader(c.cats), wire.NewReader(c.dests)
	set := d.tab.NewSet(c.n)
	keys, masks := make([]uint64, c.n), make([]PlatformMask, c.n)
	for i := range keys {
		ci, err := readIndex(cats, i, len(d.cats), "category")
		if err != nil {
			return nil, err
		}
		di, err := readIndex(dests, i, len(d.dests), "destination")
		if err != nil {
			return nil, err
		}
		m, err := checkMask(i, c.masks[i])
		if err != nil {
			return nil, err
		}
		keys[i] = PackFlowKey(d.cats[ci], d.dests[di])
		if i > 0 && !d.tab.KeyLess(keys[i-1], keys[i]) {
			return nil, fmt.Errorf("flows: snapshot flow %d is not after flow %d in canonical order", i, i-1)
		}
		set.flows[keys[i]] = m
		masks[i] = m
	}
	if err := cats.Close(); err != nil {
		return nil, fmt.Errorf("flows: category column: %w", err)
	}
	if err := dests.Close(); err != nil {
		return nil, fmt.Errorf("flows: destination column: %w", err)
	}
	set.sorted.Store(&run{keys: keys, masks: masks})
	return set, nil
}
