package flows

import (
	"testing"
	"testing/quick"

	"diffaudit/internal/ats"
	"diffaudit/internal/ontology"
)

func cat(name string) *ontology.Category {
	c, ok := ontology.Lookup(name)
	if !ok {
		panic("unknown category " + name)
	}
	return c
}

func engine() *ats.Engine {
	return ats.NewEngine(ats.List{Name: "test", Entries: []string{
		"doubleclick.net", "metrics.roblox.com",
	}})
}

func TestResolveDestinationClasses(t *testing.T) {
	e := engine()
	owner := "Roblox Corporation"
	eslds := []string{"roblox.com", "rbxcdn.com"}
	cases := []struct {
		fqdn string
		want DestClass
	}{
		{"www.roblox.com", FirstParty},
		{"metrics.roblox.com", FirstPartyATS},
		{"cdn.rbxcdn.com", FirstParty},
		{"example.org", ThirdParty},
		{"stats.g.doubleclick.net", ThirdPartyATS},
	}
	for _, c := range cases {
		d := ResolveDestination(owner, eslds, c.fqdn, e)
		if d.Class != c.want {
			t.Errorf("ResolveDestination(%q) = %v, want %v", c.fqdn, d.Class, c.want)
		}
	}
}

func TestResolveDestinationByOwner(t *testing.T) {
	// rbx.com is owned by Roblox Corporation in the entity dataset even
	// though it is not in the service's eSLD list.
	d := ResolveDestination("Roblox Corporation", []string{"roblox.com"}, "api.rbx.com", engine())
	if d.Class != FirstParty {
		t.Errorf("owner-based first party failed: %v", d.Class)
	}
}

func TestDestClassPredicates(t *testing.T) {
	if FirstParty.IsThirdParty() || FirstPartyATS.IsThirdParty() {
		t.Error("first party misclassified as third")
	}
	if !ThirdParty.IsThirdParty() || !ThirdPartyATS.IsThirdParty() {
		t.Error("third party predicates")
	}
	if !FirstPartyATS.IsATS() || !ThirdPartyATS.IsATS() || FirstParty.IsATS() {
		t.Error("ATS predicates")
	}
}

func TestPlatformMaskSymbols(t *testing.T) {
	cases := map[PlatformMask]string{
		OnWeb | OnMobile: "●",
		OnWeb:            "◐",
		OnMobile:         "◑",
		0:                "—",
	}
	for m, want := range cases {
		if got := m.Symbol(); got != want {
			t.Errorf("Symbol(%b) = %q, want %q", m, got, want)
		}
	}
}

func TestSetDedupAndPlatforms(t *testing.T) {
	s := NewSet()
	f := Flow{Category: cat("Aliases"), Dest: Destination{FQDN: "t.example", Class: ThirdParty}}
	s.Add(f, Web)
	s.Add(f, Web)
	s.Add(f, Mobile)
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1 (dedup)", s.Len())
	}
	if got := s.Platforms(f); got != OnWeb|OnMobile {
		t.Errorf("platforms = %v", got)
	}
	other := Flow{Category: cat("Age"), Dest: Destination{FQDN: "t.example", Class: ThirdParty}}
	if got := s.Platforms(other); got != 0 {
		t.Errorf("absent flow platforms = %v", got)
	}
}

func TestSetMerge(t *testing.T) {
	a, b := NewSet(), NewSet()
	f1 := Flow{Category: cat("Aliases"), Dest: Destination{FQDN: "x.example", Class: ThirdParty}}
	f2 := Flow{Category: cat("Age"), Dest: Destination{FQDN: "y.example", Class: FirstParty}}
	a.Add(f1, Web)
	b.Add(f1, Mobile)
	b.Add(f2, Web)
	a.Merge(b)
	a.Merge(nil)
	if a.Len() != 2 {
		t.Fatalf("merged len = %d", a.Len())
	}
	if got := a.Platforms(f1); got != OnWeb|OnMobile {
		t.Errorf("merged platforms = %v", got)
	}
}

func TestGroupGrid(t *testing.T) {
	s := NewSet()
	s.Add(Flow{Category: cat("Aliases"), Dest: Destination{FQDN: "a.example", Class: ThirdPartyATS}}, Web)
	s.Add(Flow{Category: cat("Name"), Dest: Destination{FQDN: "b.example", Class: ThirdPartyATS}}, Mobile)
	s.Add(Flow{Category: cat("Age"), Dest: Destination{FQDN: "c.example", Class: FirstParty}}, Web)
	grid := s.GroupGrid()
	if got := grid[ontology.PersonalIdentifiers][ThirdPartyATS]; got != OnWeb|OnMobile {
		t.Errorf("PI/3rdATS = %v, want both (two categories union)", got)
	}
	if got := grid[ontology.PersonalCharacteristics][FirstParty]; got != OnWeb {
		t.Errorf("PC/1st = %v", got)
	}
	if got := grid[ontology.Geolocation][FirstParty]; got != 0 {
		t.Errorf("absent cell = %v", got)
	}
}

func TestSetDestinations(t *testing.T) {
	s := NewSet()
	d := Destination{FQDN: "t.example", Class: ThirdParty}
	s.Add(Flow{Category: cat("Aliases"), Dest: d}, Web)
	s.Add(Flow{Category: cat("Age"), Dest: d}, Web)
	s.Add(Flow{Category: cat("Age"), Dest: Destination{FQDN: "u.example", Class: ThirdParty}}, Web)
	dests := s.Destinations()
	if len(dests) != 2 || dests[0].FQDN != "t.example" {
		t.Errorf("Destinations = %v", dests)
	}
}

// Property: Add is idempotent and Len never exceeds distinct keys.
func TestSetAddProperty(t *testing.T) {
	catNames := []string{"Aliases", "Age", "Language", "Name"}
	hosts := []string{"a.example", "b.example", "c.example"}
	f := func(ops []uint8) bool {
		s := NewSet()
		distinct := map[string]bool{}
		for _, op := range ops {
			fl := Flow{
				Category: cat(catNames[int(op)%len(catNames)]),
				Dest:     Destination{FQDN: hosts[int(op/4)%len(hosts)], Class: ThirdParty},
			}
			s.Add(fl, Platform(int(op)%2))
			distinct[fl.Key()] = true
		}
		return s.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if Child.String() != "Child" || LoggedOut.String() != "Logged Out" {
		t.Error("trace stringers")
	}
	if (TraceCategory{}).String() != "Child" {
		t.Error("zero trace stringer")
	}
	if Web.String() != "web" || Mobile.String() != "mobile" {
		t.Error("platform stringers")
	}
	if FirstParty.String() != "Collect 1st" || ThirdPartyATS.String() != "Share 3rd ATS" {
		t.Error("dest class stringers")
	}
}

func TestParseTrace(t *testing.T) {
	cases := map[string]TraceCategory{
		"child": Child, "Child": Child,
		"adolescent": Adolescent, "teen": Adolescent,
		"ADULT":     Adult,
		"loggedout": LoggedOut, "logged-out": LoggedOut, "logged_out": LoggedOut, "out": LoggedOut,
		" child ": Child,
	}
	for in, want := range cases {
		got, ok := ParsePersona(in)
		if !ok || got != want {
			t.Errorf("ParsePersona(%q) = %v, %v; want %v", in, got, ok, want)
		}
	}
	for _, in := range []string{"", "grownup", "children"} {
		if _, ok := ParsePersona(in); ok {
			t.Errorf("ParsePersona(%q) accepted", in)
		}
	}
}
