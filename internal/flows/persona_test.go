package flows

import (
	"strings"
	"sync"
	"testing"
)

// TestRegisterPersonaRoundTrip (named for the registry NewPersona replaced):
// a custom persona keeps its record, parses by name and alias through an
// index that holds it and through no other, and minting it twice makes two
// personas.
func TestRegisterPersonaRoundTrip(t *testing.T) {
	info := PersonaInfo{
		Name:     "Registry Teen",
		Aliases:  []string{"registry-teen"},
		AgeKnown: true, AgeMin: 13, AgeMax: 14,
		LoggedIn: true,
		Attrs:    map[string]string{"region": "EU"},
	}
	p, err := NewPersona(info)
	if err != nil {
		t.Fatal(err)
	}
	if p.BuiltinIndex() != -1 {
		t.Fatalf("custom persona has built-in index %d", p.BuiltinIndex())
	}
	if p.String() != "Registry Teen" {
		t.Errorf("String() = %q", p.String())
	}
	index, err := NewPersonaIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Registry Teen", "registry teen", "registry-teen", " REGISTRY-TEEN "} {
		got, ok := index.Parse(name)
		if !ok || got != p {
			t.Errorf("Parse(%q) = %v, %v; want %v", name, got, ok, p)
		}
		if _, ok := ParsePersona(name); ok {
			t.Errorf("ParsePersona(%q) resolved a custom persona", name)
		}
	}
	if !p.AgeKnown() || !p.LoggedIn() {
		t.Error("attributes lost")
	}
	if !p.AgeBelow(15) || p.AgeBelow(14) || p.AgeAtLeast(14) || !p.AgeAtLeast(13) {
		t.Error("age bracket predicates")
	}
	if p.Info().Attrs["region"] != "EU" || p.Info().Attrs["missing"] != "" {
		t.Error("attrs")
	}
	if p.Subject() != "registry teen user" {
		t.Errorf("default subject = %q", p.Subject())
	}
	// The handle owns its record: the caller's maps and slices can change.
	info.Attrs["region"] = "US"
	info.Aliases[0] = "changed"
	if p.Info().Attrs["region"] != "EU" || p.Info().Aliases[0] != "registry-teen" {
		t.Error("persona shares its caller's Attrs or Aliases")
	}

	again, err := NewPersona(p.Info())
	if err != nil || again == p || again.String() != p.String() {
		t.Errorf("second NewPersona = %v, %v; want a distinct persona of the same name", again, err)
	}
	// An index takes an identical record once and refuses a conflicting one.
	if x, err := NewPersonaIndex(p, again); err != nil || len(x.Personas()) != 5 {
		t.Errorf("index of two identical customs: %v", err)
	}
	bad := p.Info()
	bad.AgeMax = 15
	conflict, err := NewPersona(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPersonaIndex(p, conflict); err == nil {
		t.Error("index took two personas named alike with different attributes")
	}
}

// TestRegisterPersonaValidation (named for the registry NewPersona
// replaced): invalid records and records clashing with a built-in are
// refused; a record identical to a built-in is that built-in.
func TestRegisterPersonaValidation(t *testing.T) {
	if _, err := NewPersona(PersonaInfo{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewPersona(PersonaInfo{Name: "Backwards", AgeKnown: true, AgeMin: 10, AgeMax: 5}); err == nil {
		t.Error("inverted age bracket accepted")
	}
	// An alias colliding with a built-in spelling is rejected.
	if _, err := NewPersona(PersonaInfo{Name: "Teen Clone", Aliases: []string{"teen"}}); err == nil {
		t.Error("alias collision with built-in accepted")
	}
	// A name colliding with a built-in (different attributes) is rejected.
	if _, err := NewPersona(PersonaInfo{Name: "child"}); err == nil {
		t.Error("built-in name collision accepted")
	}
	for _, b := range BuiltinPersonas() {
		if p, err := NewPersona(b.Info()); err != nil || p != b {
			t.Errorf("NewPersona(%v's record) = %v, %v; want the built-in", b, p, err)
		}
	}
	// Two customs sharing an alias cannot share an index.
	a, _ := NewPersona(PersonaInfo{Name: "Alias A", Aliases: []string{"shared"}})
	b, _ := NewPersona(PersonaInfo{Name: "Alias B", Aliases: []string{"shared"}})
	if _, err := NewPersonaIndex(a, b); err == nil || !strings.Contains(err.Error(), "shared") {
		t.Errorf("alias clash between customs: %v", err)
	}
}

func TestBuiltinPersonaAttributes(t *testing.T) {
	if got := BuiltinPersonas(); len(got) != 4 ||
		got[0] != Child || got[1] != Adolescent || got[2] != Adult || got[3] != LoggedOut {
		t.Fatalf("BuiltinPersonas() = %v", got)
	}
	if (Persona{}) != Child {
		t.Error("the zero Persona is not Child")
	}
	if !Child.AgeBelow(13) || Child.AgeBelow(12) {
		t.Error("child bracket")
	}
	if !Adolescent.AgeBelow(16) || Adolescent.AgeBelow(15) || Adolescent.AgeAtLeast(14) {
		t.Error("adolescent bracket")
	}
	if !Adult.AgeAtLeast(16) || Adult.AgeBelow(1000) {
		t.Error("adult bracket is unbounded above")
	}
	if LoggedOut.AgeKnown() || LoggedOut.LoggedIn() {
		t.Error("logged-out persona must be pre-consent")
	}
	if !Child.LoggedIn() || !Adult.LoggedIn() {
		t.Error("logged-in built-ins")
	}
	if Child.Subject() != "child user (under 13)" || LoggedOut.Subject() != "unidentified user (age undisclosed)" {
		t.Error("built-in subjects")
	}
	// An index lists built-ins first, in table order, then its customs.
	custom, _ := NewPersona(PersonaInfo{Name: "Listed Custom"})
	all := mustIndex(t, custom).Personas()
	if len(all) != 5 || all[4] != custom {
		t.Fatalf("Personas() = %v", all)
	}
	for i, want := range BuiltinPersonas() {
		if all[i] != want || want.BuiltinIndex() != i {
			t.Errorf("Personas()[%d] = %v, want %v", i, all[i], want)
		}
	}
}

func mustIndex(t *testing.T, customs ...Persona) *PersonaIndex {
	t.Helper()
	x, err := NewPersonaIndex(customs...)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestSortPersonas: built-ins in table order, then customs by name, whatever
// order they were made in. Customs of one name order by their other
// attributes, so handles of different records never tie.
func TestSortPersonas(t *testing.T) {
	zed, _ := NewPersona(PersonaInfo{Name: "Zed"})
	abe, _ := NewPersona(PersonaInfo{Name: "Abe"})
	younger, _ := NewPersona(PersonaInfo{Name: "Abe", AgeKnown: true, AgeMin: 5, AgeMax: 9})
	older, _ := NewPersona(PersonaInfo{Name: "Abe", AgeKnown: true, AgeMin: 5, AgeMax: 10})
	tagged, _ := NewPersona(PersonaInfo{Name: "Abe", AgeKnown: true, AgeMin: 5, AgeMax: 10, Attrs: map[string]string{"region": "EU"}})
	abes := []Persona{abe, younger, older, tagged}
	for i, a := range abes {
		for _, b := range abes[i+1:] {
			if PersonaLess(a, b) == PersonaLess(b, a) {
				t.Errorf("%+v and %+v tie", a.Info(), b.Info())
			}
		}
	}
	first := SortPersonas([]Persona{zed, tagged, LoggedOut, older, Child, abe, Adult, younger, Adolescent})
	again := SortPersonas([]Persona{younger, Adolescent, abe, Adult, Child, older, LoggedOut, zed, tagged})
	for i, want := range BuiltinPersonas() {
		if first[i] != want {
			t.Fatalf("SortPersonas = %v, want the built-ins first", first)
		}
	}
	if first[4].String() != "Abe" || first[8] != zed {
		t.Fatalf("SortPersonas = %v, want the Abes, then Zed", first)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("SortPersonas depends on input order: %v, then %v", first, again)
		}
	}
}

// TestRegisterPersonaConcurrent (named for the registry this package no
// longer has): minting personas and building indexes share no state, so
// under the race detector concurrent goroutines each resolve exactly the
// persona they made, and the built-in index never learns a custom name.
func TestRegisterPersonaConcurrent(t *testing.T) {
	info := PersonaInfo{Name: "Concurrent Persona", AgeKnown: true, AgeMin: 20, AgeMax: 29, LoggedIn: true}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewPersona(info)
			if err != nil {
				t.Error(err)
				return
			}
			x, err := NewPersonaIndex(p)
			if err != nil {
				t.Error(err)
				return
			}
			if got, ok := x.Parse("concurrent persona"); !ok || got != p {
				t.Error("index does not resolve its own persona")
			}
			if _, ok := ParsePersona("concurrent persona"); ok {
				t.Error("built-in index learned a custom persona")
			}
		}()
	}
	wg.Wait()
}
