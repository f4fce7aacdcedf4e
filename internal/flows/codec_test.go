package flows

import (
	"testing"

	"diffaudit/internal/ontology"
	"diffaudit/internal/wire"
)

// buildSet assembles a set with known flows across both platforms,
// including a custom (non-canonical) category.
func buildSet(t *testing.T) *Set {
	t.Helper()
	age, ok := ontology.Lookup("Age")
	if !ok {
		t.Fatal("canonical category missing")
	}
	custom := &ontology.Category{Name: "Codec Custom Type", Group: ontology.Sensors}
	s := NewSet()
	s.Add(Flow{Category: age, Dest: Destination{FQDN: "a.example", ESLD: "example", Owner: "Example Inc", Class: FirstParty}}, Web)
	s.Add(Flow{Category: age, Dest: Destination{FQDN: "t.tracker.example", ESLD: "tracker.example", Owner: "Tracker", Class: ThirdPartyATS}}, Mobile)
	s.Add(Flow{Category: custom, Dest: Destination{FQDN: "a.example", ESLD: "example", Owner: "Example Inc", Class: FirstParty}}, Web)
	s.Add(Flow{Category: custom, Dest: Destination{FQDN: "a.example", ESLD: "example", Owner: "Example Inc", Class: FirstParty}}, Mobile)
	return s
}

// TestSetCodecRoundTrip checks what a decoded set is made of, flow by
// flow: the symbol tables decode to the same keys, destinations and
// platform masks, custom categories keep their serialized group, and
// canonical ones resolve to the ontology's own pointer.
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

	// The custom category decodes with its serialized group, and the
	// canonical one resolves to the canonical pointer (full metadata).
	for _, f := range got.Flows() {
		switch f.Category.Name {
		case "Codec Custom Type":
			if f.Category.Group != ontology.Sensors {
				t.Errorf("custom category group = %v", f.Category.Group)
			}
		case "Age":
			if canonical, _ := ontology.Lookup("Age"); f.Category != canonical {
				t.Error("canonical category did not resolve to the ontology pointer")
			}
		}
	}
}

func TestAddMask(t *testing.T) {
	age, _ := ontology.Lookup("Age")
	c := InternCategory(age)
	s := NewSet()
	d := s.Table().Intern(Destination{FQDN: "m.example", ESLD: "example", Owner: "E", Class: ThirdParty})
	s.AddMask(c, d, 0) // no-op
	if s.Len() != 0 {
		t.Fatal("zero mask inserted a flow")
	}
	s.AddMask(c, d, OnWeb|OnMobile)
	if s.Len() != 1 {
		t.Fatal("flow not inserted")
	}
	f := s.Flows()[0]
	if got := s.Platforms(f); got != OnWeb|OnMobile {
		t.Errorf("mask = %v", got)
	}
}
