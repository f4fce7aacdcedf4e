package flows

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"diffaudit/internal/ontology"
)

func TestPackSplitRoundTrip(t *testing.T) {
	cases := []struct {
		c CatID
		d DestID
	}{{0, 0}, {1, 2}, {34, 0xffffffff}, {0xffffffff, 7}}
	for _, tc := range cases {
		c, d := SplitFlowKey(PackFlowKey(tc.c, tc.d))
		if c != tc.c || d != tc.d {
			t.Errorf("round trip (%d,%d) = (%d,%d)", tc.c, tc.d, c, d)
		}
	}
}

// mustCatID is CategoryID for categories known to be the ontology's.
func mustCatID(c *ontology.Category) CatID {
	id, ok := CategoryID(c)
	if !ok {
		panic("not an ontology category: " + c.Name)
	}
	return id
}

// TestInternCategoryCanonical (named for the registry CategoryID replaced):
// a category's ID is its ontology index, and resolves back to it.
func TestInternCategoryCanonical(t *testing.T) {
	cats := ontology.Categories()
	for i := range cats {
		c := &cats[i]
		if id, ok := CategoryID(c); !ok || id != CatID(i) {
			t.Fatalf("CategoryID(%q) = %d,%v want %d", c.Name, id, ok, i)
		}
		if got := CategoryByID(CatID(i)); got != c {
			t.Fatalf("CategoryByID(%d) = %v, want %q", i, got, c.Name)
		}
	}
	if got := CategoryByID(CatID(len(cats))); got != nil {
		t.Errorf("CategoryByID past the ontology = %v", got)
	}
}

// TestInternCategoryCustomByName (named for the registry CategoryID
// replaced): a distinct Category value carrying an ontology name has that
// category's ID; a name outside the ontology has none, and asking adds none.
func TestInternCategoryCustomByName(t *testing.T) {
	age, _ := ontology.Lookup("Age")
	twin := &ontology.Category{Name: age.Name, Group: age.Group}
	if id, ok := CategoryID(twin); !ok || id != mustCatID(age) {
		t.Fatalf("CategoryID(twin of %q) = %d,%v", age.Name, id, ok)
	}
	custom := &ontology.Category{Name: "Custom Symbol Test A", Group: ontology.Geolocation}
	for i := 0; i < 2; i++ {
		if id, ok := CategoryID(custom); ok {
			t.Fatalf("CategoryID of a non-ontology label = %d", id)
		}
	}
	if _, ok := CategoryID(nil); ok {
		t.Error("CategoryID(nil) has an ID")
	}
	defer func() {
		if recover() == nil {
			t.Error("Set.Add took a category outside the ontology")
		}
	}()
	NewSet().Add(Flow{Category: custom, Dest: Destination{FQDN: "h.example"}}, Web)
}

// TestInternCategoryConcurrent (named for the registry CategoryID
// replaced): category IDs are fixed with the ontology, so goroutines
// resolving ontology and non-ontology labels at once share nothing mutable
// and always agree.
func TestInternCategoryConcurrent(t *testing.T) {
	cats := ontology.Categories()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				c := &cats[(n+g)%len(cats)]
				if id, ok := CategoryID(&ontology.Category{Name: c.Name}); !ok || CategoryByID(id) != c {
					t.Errorf("CategoryID(%q) = %d,%v", c.Name, id, ok)
				}
				if _, ok := CategoryID(&ontology.Category{Name: fmt.Sprintf("Concurrent Custom %d", n)}); ok {
					t.Error("a non-ontology label got an ID")
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestInternDestinationSymbols(t *testing.T) {
	d := Destination{FQDN: "stats.g.doubleclick.net", ESLD: "doubleclick.net",
		Owner: "Google LLC", Class: ThirdPartyATS}
	tab := NewTable()
	first := tab.Intern(Destination{FQDN: "first.example", Class: FirstParty})
	id := tab.Intern(d)
	if again := tab.Intern(d); again != id || tab.Len() != 2 {
		t.Fatalf("second Intern = %d (table of %d), want %d in a table of 2", again, tab.Len(), id)
	}
	if got := tab.Destination(id); got != d {
		t.Fatalf("Destination = %+v", got)
	}
	if got := tab.Class(id); got != ThirdPartyATS {
		t.Errorf("Class = %v", got)
	}
	// A second role of the same FQDN is another destination with the same
	// FQDN identity; another FQDN has another.
	other := d
	other.Class = FirstPartyATS
	// Sealing drops the index, not the symbols: IDs and content stay, and
	// the next Intern still dedupes against everything added before.
	tab.Seal()
	oid := tab.Intern(other)
	if oid == id || tab.FQDNID(oid) != tab.FQDNID(id) || tab.FQDNID(first) == tab.FQDNID(id) {
		t.Errorf("second role: id %d (first role %d), FQDN identities %d/%d/%d", oid, id,
			tab.FQDNID(oid), tab.FQDNID(id), tab.FQDNID(first))
	}
	if again := tab.Intern(d); again != id || tab.Len() != 3 {
		t.Errorf("Intern after Seal = %d (table of %d), want %d in a table of 3", again, tab.Len(), id)
	}
	if got := tab.Destination(DestID(99)); got != (Destination{}) {
		t.Errorf("unassigned ID resolves to %+v", got)
	}
}

// TestFlowKeyLessMatchesStringOrder: packed-key order must agree with the
// lexicographic order of the legacy concatenated string keys — that
// equivalence is what keeps every sorted artifact byte-identical.
func TestFlowKeyLessMatchesStringOrder(t *testing.T) {
	cats := ontology.Categories()
	hosts := []string{"a.example", "zz.example", "stats.g.doubleclick.net",
		"m.example", "↑before-arrow.example"}
	tab := NewTable()
	var keys []uint64
	var fls []Flow
	for i := range cats {
		if i%3 != 0 {
			continue
		}
		for _, h := range hosts {
			f := Flow{Category: &cats[i], Dest: Destination{FQDN: h, Class: ThirdParty}}
			keys = append(keys, PackFlowKey(mustCatID(f.Category), tab.Intern(f.Dest)))
			fls = append(fls, f)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return tab.KeyLess(keys[i], keys[j]) })
	sort.Slice(fls, func(i, j int) bool { return fls[i].Key() < fls[j].Key() })
	for i := range keys {
		if got, want := tab.FlowOfKey(keys[i]).Key(), fls[i].Key(); got != want {
			t.Fatalf("position %d: packed order %q, string order %q", i, got, want)
		}
	}

	// Every pair of categories (two IDs past the ontology included, which
	// order as the empty name) against every pair of destinations: FQDNs
	// sharing prefixes, one FQDN in two roles, the empty string, non-ASCII
	// and bytes around the separator's.
	tab = NewTable()
	var dests []DestID
	for _, h := range []string{"", "a", "a.example", "a.example.com", "ab.example", "zz.example",
		"↑before-arrow.example", "→sep.example", "é.example", "\xe2\x86", "\xff"} {
		dests = append(dests,
			tab.Intern(Destination{FQDN: h, ESLD: h, Owner: "Org A", Class: ThirdParty}),
			tab.Intern(Destination{FQDN: h, ESLD: h, Owner: "Org B", Class: ThirdPartyATS}))
	}
	ids := []CatID{CatID(len(cats)), 1 << 20}
	for i := range cats {
		ids = append(ids, CatID(i))
	}
	for _, ca := range ids {
		for _, cb := range ids {
			for _, da := range dests {
				for _, db := range dests {
					checkKeyLess(t, tab, PackFlowKey(ca, da), PackFlowKey(cb, db))
				}
			}
		}
	}
}

// refCompare is the order KeyLess must produce, from the reference: the
// concatenated string key, then destination content.
func refCompare(t *Table, a, b uint64) int {
	ca, da := SplitFlowKey(a)
	cb, db := SplitFlowKey(b)
	x, y := t.Destination(da), t.Destination(db)
	return cmp.Or(compareConcat(categoryName(ca), x.FQDN, categoryName(cb), y.FQDN),
		strings.Compare(x.ESLD, y.ESLD), strings.Compare(x.Owner, y.Owner), cmp.Compare(x.Class, y.Class))
}

// checkKeyLess holds KeyLess on one pair of keys to refCompare.
func checkKeyLess(t testing.TB, tab *Table, a, b uint64) {
	t.Helper()
	want := refCompare(tab, a, b)
	if a != b && want == 0 {
		return // two keys of one content: only IDs outside the ontology get here
	}
	if got := tab.KeyLess(a, b); got != (want < 0) {
		fa, fb := tab.FlowOfKey(a), tab.FlowOfKey(b)
		t.Fatalf("KeyLess(%d→%q, %d→%q) = %v, reference order %d",
			a>>32, fa.Dest.FQDN, b>>32, fb.Dest.FQDN, got, want)
	}
}

// FuzzKeyLess holds KeyLess to the reference order on arbitrary FQDNs and
// categories (indices past the ontology included).
//
//	go test -run '^$' -fuzz FuzzKeyLess ./internal/flows
func FuzzKeyLess(f *testing.F) {
	f.Add(uint8(0), "a.example", uint8(0), "a.example.com", false)
	f.Add(uint8(3), "", uint8(4), "→", true)
	f.Add(uint8(34), "é.example", uint8(35), "\xff", false)
	f.Fuzz(func(t *testing.T, ca uint8, x string, cb uint8, y string, otherRole bool) {
		n := len(ontology.Categories()) + 2
		tab := NewTable()
		dx := tab.Intern(Destination{FQDN: x, Class: ThirdParty})
		dy := tab.Intern(Destination{FQDN: y, Class: ThirdParty})
		if otherRole {
			dy = tab.Intern(Destination{FQDN: y, Class: FirstParty})
		}
		a, b := PackFlowKey(CatID(int(ca)%n), dx), PackFlowKey(CatID(int(cb)%n), dy)
		checkKeyLess(t, tab, a, b)
		checkKeyLess(t, tab, b, a)
	})
}

// TestNoCategoryNameContainsSeparator: KeyLess ranks categories by
// name+"→", which is their concatenation order only while no name holds
// the separator.
func TestNoCategoryNameContainsSeparator(t *testing.T) {
	for _, c := range ontology.Categories() {
		if strings.Contains(c.Name, flowKeySep) {
			t.Errorf("category %q contains %q", c.Name, flowKeySep)
		}
	}
}

func TestRangeAndRangeSorted(t *testing.T) {
	s := NewSet()
	cats := ontology.Categories()
	for i := 0; i < 6; i++ {
		s.Add(Flow{Category: &cats[i*2], Dest: Destination{FQDN: "h.example", Class: ThirdParty}}, Web)
	}
	n := 0
	s.Range(func(key uint64, m PlatformMask) {
		if m != OnWeb {
			t.Errorf("mask = %v", m)
		}
		n++
	})
	if n != s.Len() {
		t.Fatalf("Range visited %d of %d", n, s.Len())
	}
	var sortedKeys []uint64
	s.RangeSorted(func(key uint64, _ PlatformMask) { sortedKeys = append(sortedKeys, key) })
	if len(sortedKeys) != s.Len() {
		t.Fatalf("RangeSorted visited %d", len(sortedKeys))
	}
	for i := 1; i < len(sortedKeys); i++ {
		if !s.Table().KeyLess(sortedKeys[i-1], sortedKeys[i]) {
			t.Fatalf("RangeSorted out of order at %d", i)
		}
	}
	// The cached sort must survive (and stay correct across) mask-only
	// updates and be invalidated by new keys.
	s.Add(Flow{Category: &cats[0], Dest: Destination{FQDN: "h.example", Class: ThirdParty}}, Mobile)
	s.Add(Flow{Category: &cats[20], Dest: Destination{FQDN: "zz.example", Class: ThirdParty}}, Web)
	var again []uint64
	s.RangeSorted(func(key uint64, _ PlatformMask) { again = append(again, key) })
	if len(again) != s.Len() {
		t.Fatalf("after invalidation: visited %d of %d", len(again), s.Len())
	}
	for i := 1; i < len(again); i++ {
		if !s.Table().KeyLess(again[i-1], again[i]) {
			t.Fatalf("after invalidation: out of order at %d", i)
		}
	}
}

// TestPlatformsNoIntern: probing for an absent flow must not grow the
// set's symbol table (Platforms is called once per exported flow row, on
// results other goroutines are reading).
func TestPlatformsNoIntern(t *testing.T) {
	s := NewSet()
	cats := ontology.Categories()
	probe := Flow{Category: &cats[0], Dest: Destination{FQDN: "platforms-no-intern.example"}}
	if got := s.Platforms(probe); got != 0 {
		t.Fatalf("absent probe = %v", got)
	}
	if s.Table().Len() != 0 {
		t.Error("Platforms interned the probed destination")
	}
	// Same for a set that holds the probe's neighbours, sealed or not.
	s.Add(Flow{Category: &cats[0], Dest: Destination{FQDN: "a.example"}}, Web)
	s.Add(Flow{Category: &cats[0], Dest: Destination{FQDN: "z.example"}}, Mobile)
	s.Table().Seal()
	if got := s.Platforms(probe); got != 0 || s.Table().Len() != 2 {
		t.Errorf("absent probe between neighbours = %v, table of %d", got, s.Table().Len())
	}
	role := Flow{Category: &cats[0], Dest: Destination{FQDN: "z.example", Class: ThirdPartyATS}}
	if got := s.Platforms(role); got != 0 {
		t.Errorf("another role of a present FQDN = %v, want absent", got)
	}
	role.Dest.Class = FirstParty
	if got := s.Platforms(role); got != OnMobile {
		t.Errorf("present flow = %v, want mobile", got)
	}
}

// compareConcat is the reference KeyLess is held to: it compares
// xa+flowKeySep+xb against ya+flowKeySep+yb lexicographically, one byte at
// a time, without materializing either concatenation.
func compareConcat(xa, xb, ya, yb string) int {
	xs := [3]string{xa, flowKeySep, xb}
	ys := [3]string{ya, flowKeySep, yb}
	xi, xo := 0, 0 // segment index, offset within segment
	yi, yo := 0, 0
	for {
		for xi < len(xs) && xo == len(xs[xi]) {
			xi, xo = xi+1, 0
		}
		for yi < len(ys) && yo == len(ys[yi]) {
			yi, yo = yi+1, 0
		}
		xDone, yDone := xi == len(xs), yi == len(ys)
		switch {
		case xDone && yDone:
			return 0
		case xDone:
			return -1
		case yDone:
			return 1
		}
		cx, cy := xs[xi][xo], ys[yi][yo]
		if cx != cy {
			if cx < cy {
				return -1
			}
			return 1
		}
		xo++
		yo++
	}
}

func TestCompareConcat(t *testing.T) {
	cases := []struct {
		xa, xb, ya, yb string
		want           int
	}{
		{"A", "h", "A", "h", 0},
		{"A", "h", "B", "h", -1},
		{"B", "h", "A", "h", 1},
		{"A", "a", "A", "b", -1},
		{"Name", "x", "Name Extended", "a", 1}, // '→' (0xE2...) > ' ' (0x20)
		{"", "", "", "a", -1},
		{"AB", "", "A", "", -1}, // "AB→" vs "A→": 'B' sorts before '→' (0xE2)
	}
	for _, c := range cases {
		if got := compareConcat(c.xa, c.xb, c.ya, c.yb); got != c.want {
			t.Errorf("compareConcat(%q,%q | %q,%q) = %d, want %d",
				c.xa, c.xb, c.ya, c.yb, got, c.want)
		}
	}
	// Cross-check against the materialized strings.
	pairs := [][2]string{{"A", "h"}, {"Name", "x"}, {"Name Extended", "a"}, {"", ""}, {"Z", ""}}
	for _, x := range pairs {
		for _, y := range pairs {
			sx, sy := x[0]+flowKeySep+x[1], y[0]+flowKeySep+y[1]
			want := 0
			if sx < sy {
				want = -1
			} else if sx > sy {
				want = 1
			}
			if got := compareConcat(x[0], x[1], y[0], y[1]); got != want {
				t.Errorf("compareConcat(%q,%q | %q,%q) = %d, want %d", x[0], x[1], y[0], y[1], got, want)
			}
		}
	}
}

// TestFlowKeyLessTotalOrderOnRoleTies: two packed keys sharing category
// name and FQDN (one FQDN, two destination roles) must still order
// totally and deterministically — by destination content, never by the
// interleaving-dependent numeric IDs.
func TestFlowKeyLessTotalOrderOnRoleTies(t *testing.T) {
	c, ok := ontology.Lookup("Aliases")
	if !ok {
		t.Fatal("missing category")
	}
	fqdn := "tie-order.example"
	d1 := Destination{FQDN: fqdn, ESLD: fqdn, Owner: "Org A", Class: ThirdParty}
	d2 := Destination{FQDN: fqdn, ESLD: fqdn, Owner: "Org B", Class: ThirdPartyATS}
	// Interned in the opposite order, so an ID tie-break would get it wrong.
	tab := NewTable()
	k2 := PackFlowKey(mustCatID(c), tab.Intern(d2))
	k1 := PackFlowKey(mustCatID(c), tab.Intern(d1))
	if tab.KeyLess(k1, k2) == tab.KeyLess(k2, k1) {
		t.Fatalf("tie not totally ordered: less(k1,k2)=%v less(k2,k1)=%v",
			tab.KeyLess(k1, k2), tab.KeyLess(k2, k1))
	}
	if !tab.KeyLess(k1, k2) {
		t.Error("content tie-break: Org A should order before Org B")
	}
	if tab.KeyLess(k1, k1) || tab.KeyLess(k2, k2) {
		t.Error("irreflexivity violated")
	}
	// A merged-set sort over the tied keys is stable across rebuilds.
	s := NewSet()
	s.Add(Flow{Category: c, Dest: d2}, Web)
	s.Add(Flow{Category: c, Dest: d1}, Mobile)
	first := s.Flows()
	if len(first) != 2 || first[0].Dest != d1 {
		t.Fatalf("sorted flows = %+v", first)
	}
}
