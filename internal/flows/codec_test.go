package flows

import (
	"strings"
	"testing"

	"diffaudit/internal/ontology"
	"diffaudit/internal/wire"
)

// buildSet assembles a set with known flows across both platforms and two
// categories, one of them a Category value of its own with an ontology name.
func buildSet(t *testing.T) *Set {
	t.Helper()
	age, ok := ontology.Lookup("Age")
	if !ok {
		t.Fatal("canonical category missing")
	}
	sensor := ontology.CategoriesInGroup(ontology.Sensors)[0]
	custom := &ontology.Category{Name: sensor.Name, Group: sensor.Group}
	s := NewSet()
	s.Add(Flow{Category: age, Dest: Destination{FQDN: "a.example", ESLD: "example", Owner: "Example Inc", Class: FirstParty}}, Web)
	s.Add(Flow{Category: age, Dest: Destination{FQDN: "t.tracker.example", ESLD: "tracker.example", Owner: "Tracker", Class: ThirdPartyATS}}, Mobile)
	s.Add(Flow{Category: custom, Dest: Destination{FQDN: "a.example", ESLD: "example", Owner: "Example Inc", Class: FirstParty}}, Web)
	s.Add(Flow{Category: custom, Dest: Destination{FQDN: "a.example", ESLD: "example", Owner: "Example Inc", Class: FirstParty}}, Mobile)
	return s
}

// TestSetCodecRoundTrip checks what a decoded set is made of, flow by
// flow: the symbol tables decode to the same keys, destinations and
// platform masks, and every category resolves to the ontology's own
// pointer.
func TestSetCodecRoundTrip(t *testing.T) {
	s := buildSet(t)
	tables, sections := encodeColumnar(s)

	r := wire.NewReader(tables)
	dec, err := ReadSetTables(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dec.DecodeSetColumnar(sections[0])
	if err != nil {
		t.Fatal(err)
	}

	if got.Len() != s.Len() {
		t.Fatalf("decoded %d flows, want %d", got.Len(), s.Len())
	}
	want := s.Flows()
	for i, f := range got.Flows() {
		if f.Key() != want[i].Key() || f.Dest != want[i].Dest {
			t.Errorf("flow %d = %+v, want %+v", i, f, want[i])
		}
		if got.Platforms(f) != s.Platforms(f) {
			t.Errorf("flow %d platform mask = %v, want %v", i, got.Platforms(f), s.Platforms(f))
		}
	}

	// Canonical: re-encoding the decoded set reproduces the tables too.
	if again, _ := encodeColumnar(got); string(again) != string(tables) {
		t.Error("re-encoding the decoded set's tables is not byte-identical")
	}

	// Every category resolves to the ontology pointer (full metadata).
	for _, f := range got.Flows() {
		if canonical, _ := ontology.Lookup(f.Category.Name); f.Category != canonical {
			t.Errorf("category %q did not resolve to the ontology pointer", f.Category.Name)
		}
	}
}

// TestSetTablesRejectForeignCategories: a category table naming a label
// outside the ontology, or an ontology name under another group, does not
// decode — no CatID could hold it.
func TestSetTablesRejectForeignCategories(t *testing.T) {
	age, _ := ontology.Lookup("Age")
	for _, tc := range []struct {
		name  string
		group ontology.Level2
		want  string
	}{
		{"Codec Custom Type", ontology.Sensors, "not in the ontology"},
		{"age", age.Group, "not in the ontology"},
		{age.Name, age.Group + 1, "group"},
	} {
		w := &wire.Writer{}
		w.Int(1)
		w.String(tc.name)
		w.Byte(byte(tc.group))
		w.Int(0)
		_, err := ReadSetTables(wire.NewReader(w.Bytes()), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("category %q (group %d): err = %v, want %q", tc.name, tc.group, err, tc.want)
		}
	}
}

func TestAddMask(t *testing.T) {
	age, _ := ontology.Lookup("Age")
	c := mustCatID(age)
	s := NewSet()
	d := s.Table().Intern(Destination{FQDN: "m.example", ESLD: "example", Owner: "E", Class: ThirdParty})
	s.AddMask(c, d, 0) // no-op
	if s.Len() != 0 {
		t.Fatal("zero mask inserted a flow")
	}
	s.AddMask(c, d, OnWeb)
	if s.Len() != 1 {
		t.Fatal("flow not inserted")
	}
	f := s.Flows()[0]
	if got := s.Platforms(f); got != OnWeb {
		t.Errorf("mask = %v", got)
	}
	// A mask widened after a sorted read shows in the next one.
	s.AddMask(c, d, OnMobile)
	if got := s.Platforms(f); got != OnWeb|OnMobile {
		t.Errorf("widened mask = %v", got)
	}

	// A category ID past the ontology panics, as Add does, whatever the
	// mask: it has no group and no rank of its own.
	for _, id := range []CatID{CatID(len(ontology.Categories())), 1 << 20} {
		for _, m := range []PlatformMask{0, OnWeb} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("AddMask(%d, %v) did not panic", id, m)
					}
				}()
				s.AddMask(id, d, m)
			}()
		}
	}
	if s.Len() != 1 {
		t.Errorf("refused IDs left %d flows", s.Len())
	}
}
