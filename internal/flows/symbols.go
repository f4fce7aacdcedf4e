package flows

import (
	"cmp"
	"slices"
	"strings"

	"diffaudit/internal/ontology"
)

// Symbol layer: the flow core keys on small integers, not strings. A flow
// is one packed uint64 — category ID in the high half, destination ID in
// the low half — so Set.Add and every aggregate over a Set are integer/map
// operations with no per-flow allocation.
//
// The two halves have different lifetimes. A category ID is fixed at
// compile time: it is the category's index in the ontology, whose 35
// level-3 categories are the only labels the pipeline keeps (a classifier
// label outside them is dropped as hallucinated, and a snapshot naming one
// does not decode). Destination IDs are not fixed: hostnames come from
// captures, so each ServiceResult owns one Table that its persona sets
// share, and a destination lives exactly as long as the result that
// mentions it. A DestID therefore means nothing outside its table; the
// operations that span tables (core.Diff, core.Totals, Set.Merge of a
// foreign set, the snapshot encoder) compare destinations by content.

// CatID identifies a data type category: its index in
// ontology.Categories().
type CatID uint32

// DestID identifies a resolved destination (the full FQDN, eSLD, owner,
// class tuple — not just the FQDN, since one domain may hold different
// roles for different audited services) within one Table.
type DestID uint32

// catByPtr and catByName map the ontology's categories to their IDs, by
// pointer (the pipeline's hot lookup) and by name (a Category value that
// carries an ontology name). catRank[id] is the category's place in
// KeyLess order; its last slot ranks every ID past the ontology, as the
// empty name.
var (
	catByPtr  = map[*ontology.Category]CatID{}
	catByName = map[string]CatID{}
	catRank   []uint32
)

func init() {
	cats := ontology.Categories()
	order := make([]CatID, len(cats)+1)
	for i := range order {
		order[i] = CatID(i)
	}
	for i := range cats {
		catByPtr[&cats[i]] = CatID(i)
		catByName[cats[i].Name] = CatID(i)
	}
	slices.SortFunc(order, func(a, b CatID) int {
		return strings.Compare(categoryName(a)+flowKeySep, categoryName(b)+flowKeySep)
	})
	catRank = make([]uint32, len(order))
	for r, id := range order {
		catRank[id] = uint32(r)
	}
}

// CategoryID returns the ID of an ontology category. A label outside the
// ontology has none.
func CategoryID(c *ontology.Category) (CatID, bool) {
	if id, ok := catByPtr[c]; ok || c == nil {
		return id, ok
	}
	id, ok := catByName[c.Name]
	return id, ok
}

// CategoryByID resolves an ID back to its ontology category (nil out of
// range).
func CategoryByID(id CatID) *ontology.Category {
	if cats := ontology.Categories(); int(id) < len(cats) {
		return &cats[id]
	}
	return nil
}

// Table is one result's destination symbol table: every resolved
// destination its flow sets mention, each under a dense DestID, plus a
// table-local identity per FQDN for the aggregates that group by domain.
// It has no synchronization: build it on one goroutine
// (partialResult.result, the snapshot decoder, or whoever calls Set.Add);
// once mutation stops, concurrent readers are fine.
//
// A server holds one table per cached result, so what a finished table
// keeps is one 56-byte entry per destination and nothing else. The two
// plain maps Intern dedupes through exist only while a table is being
// added to.
type Table struct {
	dests []tableEntry
	// ids and heads index dests for Intern: destination → ID, and FQDN →
	// the first destination holding it. The first Intern builds them and
	// Seal drops them; no read consults them.
	ids   map[Destination]DestID
	heads map[string]DestID
}

// tableEntry is a Destination, flattened so the class and the FQDN
// identity share one word.
type tableEntry struct {
	fqdn, esld, owner string
	// head is the first destination of the table with this FQDN; its ID
	// doubles as the FQDN's identity.
	head  DestID
	class uint8
}

func (e *tableEntry) dest() Destination {
	return Destination{FQDN: e.fqdn, ESLD: e.esld, Owner: e.owner, Class: DestClass(e.class)}
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// NewTableSized returns an empty table with room for n destinations.
func NewTableSized(n int) *Table {
	return &Table{dests: make([]tableEntry, 0, n)}
}

// Intern returns the ID for a resolved destination, adding it on first
// sight.
func (t *Table) Intern(d Destination) DestID {
	if t.ids == nil {
		t.ids = make(map[Destination]DestID, cap(t.dests))
		t.heads = make(map[string]DestID, cap(t.dests))
		for i := range t.dests {
			e := &t.dests[i]
			t.ids[e.dest()] = DestID(i)
			t.heads[e.fqdn] = e.head
		}
	}
	if id, ok := t.ids[d]; ok {
		return id
	}
	id := DestID(len(t.dests))
	head, ok := t.heads[d.FQDN]
	if !ok {
		head = id
		t.heads[d.FQDN] = id
	}
	t.dests = append(t.dests, tableEntry{fqdn: d.FQDN, esld: d.ESLD, owner: d.Owner, head: head, class: uint8(d.Class)})
	t.ids[d] = id
	return id
}

// Seal drops the index Intern keeps, once a table has been built and is
// only going to be read. A later Intern rebuilds it.
func (t *Table) Seal() { t.ids, t.heads = nil, nil }

// Len returns the number of destinations in the table.
func (t *Table) Len() int { return len(t.dests) }

// Destination resolves an ID back to the full destination (the zero value
// when the ID was never assigned).
func (t *Table) Destination(id DestID) Destination {
	if int(id) < len(t.dests) {
		return t.dests[id].dest()
	}
	return Destination{}
}

// Class returns a destination's class.
func (t *Table) Class(id DestID) DestClass { return DestClass(t.dests[id].class) }

// FQDNID returns the table-local identity of a destination's FQDN: equal
// for two destinations of this table exactly when their FQDNs are equal.
func (t *Table) FQDNID(id DestID) uint32 { return uint32(t.dests[id].head) }

// PackFlowKey packs a flow identity into one uint64: category ID in the
// high 32 bits, destination ID in the low 32. Packed keys are comparable
// between sets that share a Table, and only between those.
func PackFlowKey(c CatID, d DestID) uint64 {
	return uint64(c)<<32 | uint64(d)
}

// SplitFlowKey unpacks a flow key.
func SplitFlowKey(k uint64) (CatID, DestID) {
	return CatID(k >> 32), DestID(k & 0xffffffff)
}

// FlowOfKey materializes the Flow a packed key of this table denotes.
func (t *Table) FlowOfKey(k uint64) Flow {
	c, d := SplitFlowKey(k)
	return Flow{Category: CategoryByID(c), Dest: t.Destination(d)}
}

// KeyLess orders packed keys of this table exactly as the string-keyed
// core ordered flows: by the virtual concatenation Category.Name + "→" +
// Dest.FQDN. Every sorted iteration (Flows, RangeSorted) uses it, which is
// what keeps rendered artifacts and the snapshot encoding byte-identical
// whatever IDs a table happened to assign.
//
// No category name contains "→", so two distinct names order exactly as
// name+"→" does, before any FQDN byte is reached: KeyLess compares the
// categories' ranks, then the FQDNs, never walking a name.
//
// Distinct keys whose names and FQDNs coincide (one FQDN holding several
// destination roles in a cross-service merged set) tie-break on the
// remaining destination content — never on the numeric IDs, whose
// assignment order is an accident of construction. The order is therefore
// total and the same for every table holding the same flows.
func (t *Table) KeyLess(a, b uint64) bool { return a != b && t.keyCompare(a, b) < 0 }

// keyCompare is KeyLess as a three-way comparison.
func (t *Table) keyCompare(a, b uint64) int {
	ca, da := SplitFlowKey(a)
	cb, db := SplitFlowKey(b)
	return flowCompare(ca, &t.dests[da], cb, &t.dests[db])
}

// categoryName is the name an ID stands for ("" when unassigned).
func categoryName(id CatID) string {
	if c := CategoryByID(id); c != nil {
		return c.Name
	}
	return ""
}

// rank is a category ID's place in KeyLess order.
func rank(id CatID) uint32 { return catRank[min(int(id), len(catRank)-1)] }

// ComparePairs orders key a of table ta against key b of table tb by their
// (category, FQDN) pair alone: KeyLess without its tie-break on
// destination role. For keys a set can hold (ontology categories only),
// it is zero exactly when the two flows share Flow.Key. KeyLess orders by
// that pair first, so each pair is one contiguous stretch of a set's run
// (Set.SortedKeys), and two sets over different tables pair their flows in
// one linear merge of their runs.
func ComparePairs(ta *Table, a uint64, tb *Table, b uint64) int {
	ca, da := SplitFlowKey(a)
	cb, db := SplitFlowKey(b)
	return pairCompare(ca, &ta.dests[da], cb, &tb.dests[db])
}

// pairCompare compares category ranks, then FQDNs.
func pairCompare(a CatID, x *tableEntry, b CatID, y *tableEntry) int {
	if c := cmp.Compare(rank(a), rank(b)); c != 0 {
		return c
	}
	return strings.Compare(x.fqdn, y.fqdn)
}

// flowCompare is the three-way comparison behind KeyLess, over category
// ranks and destination content.
func flowCompare(a CatID, x *tableEntry, b CatID, y *tableEntry) int {
	if c := pairCompare(a, x, b, y); c != 0 {
		return c
	}
	// Equal ranks mean one category (an ID is its name's ontology index),
	// so a tie means one FQDN with two destination roles; content decides.
	if c := strings.Compare(x.esld, y.esld); c != 0 {
		return c
	}
	if c := strings.Compare(x.owner, y.owner); c != 0 {
		return c
	}
	return int(x.class) - int(y.class)
}

// flowKeySep is the separator Flow.Key places between category and FQDN.
const flowKeySep = "→"
