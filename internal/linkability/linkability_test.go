package linkability

import (
	"testing"
	"testing/quick"

	"diffaudit/internal/entity"
	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
)

func cat(name string) *ontology.Category {
	c, ok := ontology.Lookup(name)
	if !ok {
		panic("unknown category " + name)
	}
	return c
}

// dest builds a destination whose owner is resolved, as
// flows.ResolveDestination resolves it, from the entity registry.
func dest(fqdn string, class flows.DestClass) flows.Destination {
	return flows.Destination{FQDN: fqdn, ESLD: fqdn, Owner: entity.OwnerName(fqdn), Class: class}
}

func TestLinkableRequiresBothBuckets(t *testing.T) {
	s := flows.NewSet()
	// Party A: identifier only.
	s.Add(flows.Flow{Category: cat("Aliases"), Dest: dest("a.example", flows.ThirdParty)}, flows.Web)
	// Party B: personal information only.
	s.Add(flows.Flow{Category: cat("Language"), Dest: dest("b.example", flows.ThirdPartyATS)}, flows.Web)
	// Party C: both — linkable.
	s.Add(flows.Flow{Category: cat("Aliases"), Dest: dest("c.example", flows.ThirdPartyATS)}, flows.Web)
	s.Add(flows.Flow{Category: cat("Language"), Dest: dest("c.example", flows.ThirdPartyATS)}, flows.Mobile)
	// First party with both — not a third party, never linkable.
	s.Add(flows.Flow{Category: cat("Aliases"), Dest: dest("fp.example", flows.FirstParty)}, flows.Web)
	s.Add(flows.Flow{Category: cat("Language"), Dest: dest("fp.example", flows.FirstParty)}, flows.Web)

	parties := Analyze(s)
	if len(parties) != 3 {
		t.Fatalf("parties = %d, want 3 (first party excluded)", len(parties))
	}
	link := Linkable(parties)
	if len(link) != 1 || link[0].Dest.FQDN != "c.example" {
		t.Fatalf("linkable = %+v", link)
	}
	if CountLinkable(s) != 1 {
		t.Error("CountLinkable mismatch")
	}
}

func TestLargestSet(t *testing.T) {
	s := flows.NewSet()
	for _, name := range []string{"Aliases", "Language", "Age", "Location Time"} {
		s.Add(flows.Flow{Category: cat(name), Dest: dest("big.example", flows.ThirdPartyATS)}, flows.Web)
	}
	s.Add(flows.Flow{Category: cat("Aliases"), Dest: dest("small.example", flows.ThirdParty)}, flows.Web)
	s.Add(flows.Flow{Category: cat("Age"), Dest: dest("small.example", flows.ThirdParty)}, flows.Web)
	n, types := LargestSet(s)
	if n != 4 || len(types) != 4 {
		t.Fatalf("largest = %d", n)
	}
	// Empty set.
	if n, _ := LargestSet(flows.NewSet()); n != 0 {
		t.Errorf("empty largest = %d", n)
	}
}

func TestCommonSet(t *testing.T) {
	s := flows.NewSet()
	for _, fq := range []string{"p1.example", "p2.example", "p3.example"} {
		s.Add(flows.Flow{Category: cat("Aliases"), Dest: dest(fq, flows.ThirdPartyATS)}, flows.Web)
		s.Add(flows.Flow{Category: cat("Language"), Dest: dest(fq, flows.ThirdPartyATS)}, flows.Web)
	}
	s.Add(flows.Flow{Category: cat("Aliases"), Dest: dest("p4.example", flows.ThirdParty)}, flows.Web)
	s.Add(flows.Flow{Category: cat("Age"), Dest: dest("p4.example", flows.ThirdParty)}, flows.Web)
	names, n := CommonSet(s)
	if n != 3 || len(names) != 2 || names[0] != "Aliases" || names[1] != "Language" {
		t.Errorf("CommonSet = %v × %d", names, n)
	}
}

func TestTopATSOrgs(t *testing.T) {
	s := flows.NewSet()
	// doubleclick.net resolves to Google LLC in the entity dataset.
	for _, name := range []string{"Aliases", "Language", "Age"} {
		s.Add(flows.Flow{Category: cat(name), Dest: dest("stats.g.doubleclick.net", flows.ThirdPartyATS)}, flows.Web)
	}
	// Non-ATS third party with linkable data: excluded from Figure 5.
	s.Add(flows.Flow{Category: cat("Aliases"), Dest: dest("cdn.example", flows.ThirdParty)}, flows.Web)
	s.Add(flows.Flow{Category: cat("Age"), Dest: dest("cdn.example", flows.ThirdParty)}, flows.Web)
	orgs := TopATSOrgs(s, 10)
	if len(orgs) != 1 {
		t.Fatalf("orgs = %+v", orgs)
	}
	if orgs[0].Organization != "Google LLC" || orgs[0].Flows != 3 || len(orgs[0].Domains) != 1 {
		t.Errorf("top org = %+v", orgs[0])
	}
	// topN truncation.
	if got := TopATSOrgs(s, 0); len(got) != 1 {
		t.Errorf("topN=0 should mean unlimited, got %d", len(got))
	}
}

// TestTopATSOrgsRecordedOwner: Figure 5 attributes each ATS destination
// to the owner it recorded, as a decoded snapshot carries it, even when
// the registry of the process reading it does not know that owner.
func TestTopATSOrgsRecordedOwner(t *testing.T) {
	s := flows.NewSet()
	for _, fq := range []string{"px.recorded-owner.example", "stats.g.doubleclick.net"} {
		d := flows.Destination{FQDN: fq, ESLD: fq, Owner: "Snapshot Ads Ltd", Class: flows.ThirdPartyATS}
		s.Add(flows.Flow{Category: cat("Aliases"), Dest: d}, flows.Web)
		s.Add(flows.Flow{Category: cat("Age"), Dest: d}, flows.Web)
	}
	if _, known := entity.Owner("px.recorded-owner.example"); known {
		t.Fatal("the registry knows the recorded owner's domain")
	}
	orgs := TopATSOrgs(s, 0)
	if len(orgs) != 1 || orgs[0].Organization != "Snapshot Ads Ltd" || orgs[0].Flows != 4 || len(orgs[0].Domains) != 2 {
		t.Errorf("orgs = %+v, want one Snapshot Ads Ltd entry with 4 flows over 2 domains", orgs)
	}
}

// Property: a party is linkable iff it received ≥1 identifier and ≥1
// personal-information category (DESIGN.md invariant).
func TestLinkableInvariant(t *testing.T) {
	ids := []string{"Aliases", "Name", "Device Information"}
	pis := []string{"Language", "Age", "Network Connection Information"}
	f := func(mask uint8) bool {
		s := flows.NewSet()
		hasID, hasPI := false, false
		for i, n := range ids {
			if mask&(1<<i) != 0 {
				s.Add(flows.Flow{Category: cat(n), Dest: dest("p.example", flows.ThirdParty)}, flows.Web)
				hasID = true
			}
		}
		for i, n := range pis {
			if mask&(1<<(i+3)) != 0 {
				s.Add(flows.Flow{Category: cat(n), Dest: dest("p.example", flows.ThirdParty)}, flows.Web)
				hasPI = true
			}
		}
		want := 0
		if hasID && hasPI {
			want = 1
		}
		return CountLinkable(s) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the largest set size is ≥ every party's set size.
func TestLargestSetDominates(t *testing.T) {
	s := flows.NewSet()
	names := []string{"Aliases", "Language", "Age", "Name", "Location Time"}
	hosts := []string{"a.example", "b.example", "c.example"}
	f := func(ops []uint8) bool {
		for _, op := range ops {
			s.Add(flows.Flow{
				Category: cat(names[int(op)%len(names)]),
				Dest:     dest(hosts[int(op/8)%len(hosts)], flows.ThirdPartyATS),
			}, flows.Web)
		}
		max, _ := LargestSet(s)
		for _, p := range Linkable(Analyze(s)) {
			if len(p.Types) > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTopATSOrgsTieBreaking pins the deterministic rank order: equal flow
// counts break ties alphabetically by organization, byte-identically
// across repeated index builds.
func TestTopATSOrgsTieBreaking(t *testing.T) {
	s := flows.NewSet()
	// Two ATS orgs with identical linkable flow counts (2 each).
	// doubleclick.net → Google LLC; facebook.com → Meta Platforms, Inc.
	// (falls back to the eSLD if unregistered — either way deterministic).
	for _, fq := range []string{"ads.doubleclick.net", "pixel.facebook.com"} {
		s.Add(flows.Flow{Category: cat("Aliases"), Dest: dest(fq, flows.ThirdPartyATS)}, flows.Web)
		s.Add(flows.Flow{Category: cat("Age"), Dest: dest(fq, flows.ThirdPartyATS)}, flows.Web)
	}
	var want []OrgCount
	for i := 0; i < 10; i++ {
		got := NewIndex(s).TopATSOrgs(0)
		if len(got) != 2 {
			t.Fatalf("orgs = %+v", got)
		}
		if got[0].Flows != got[1].Flows {
			t.Fatalf("tie expected, flows = %d vs %d", got[0].Flows, got[1].Flows)
		}
		if got[0].Organization >= got[1].Organization {
			t.Fatalf("tie not broken alphabetically: %q then %q",
				got[0].Organization, got[1].Organization)
		}
		if i == 0 {
			want = got
			continue
		}
		for j := range want {
			if got[j].Organization != want[j].Organization || got[j].Flows != want[j].Flows {
				t.Fatalf("run %d rank %d: %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestIndexMatchesLegacyEntryPoints checks the Index-backed statistics
// agree with the Analyze-based composition on a mixed set.
func TestIndexMatchesLegacyEntryPoints(t *testing.T) {
	s := flows.NewSet()
	for _, fq := range []string{"x.example", "y.example"} {
		s.Add(flows.Flow{Category: cat("Aliases"), Dest: dest(fq, flows.ThirdPartyATS)}, flows.Web)
		s.Add(flows.Flow{Category: cat("Language"), Dest: dest(fq, flows.ThirdPartyATS)}, flows.Mobile)
	}
	s.Add(flows.Flow{Category: cat("Age"), Dest: dest("z.example", flows.ThirdParty)}, flows.Web)
	ix := NewIndex(s)
	if got, want := ix.CountLinkable(), len(Linkable(Analyze(s))); got != want {
		t.Errorf("CountLinkable = %d, want %d", got, want)
	}
	parties := ix.Parties()
	analyzed := Analyze(s)
	if len(parties) != len(analyzed) {
		t.Fatalf("parties = %d, analyzed = %d", len(parties), len(analyzed))
	}
	for i := range parties {
		if parties[i].Dest != analyzed[i].Dest || parties[i].Linkable != analyzed[i].Linkable {
			t.Errorf("party %d: %+v vs %+v", i, parties[i], analyzed[i])
		}
	}
}

// TestMultiRoleFQDNRepresentative: when a cross-service merged set holds
// several destination roles for one FQDN, the representative must be the
// first *third-party* flow in key order — a first-party role of the same
// FQDN (invisible to the analysis) must never be selected, and the result
// must be stable across index rebuilds.
func TestMultiRoleFQDNRepresentative(t *testing.T) {
	s := flows.NewSet()
	fqdn := "multi-role.example"
	// First-party role whose flow key sorts earliest (category "Age").
	s.Add(flows.Flow{Category: cat("Age"),
		Dest: flows.Destination{FQDN: fqdn, ESLD: fqdn, Owner: "Svc A", Class: flows.FirstParty}}, flows.Web)
	// Two third-party roles for the same FQDN (merged across services).
	third := flows.Destination{FQDN: fqdn, ESLD: fqdn, Owner: "Svc B", Class: flows.ThirdParty}
	thirdATS := flows.Destination{FQDN: fqdn, ESLD: fqdn, Owner: "Svc C", Class: flows.ThirdPartyATS}
	s.Add(flows.Flow{Category: cat("Aliases"), Dest: third}, flows.Web)
	s.Add(flows.Flow{Category: cat("Language"), Dest: thirdATS}, flows.Mobile)

	for i := 0; i < 5; i++ {
		parties := NewIndex(s).Parties()
		if len(parties) != 1 {
			t.Fatalf("parties = %+v", parties)
		}
		p := parties[0]
		if !p.Dest.Class.IsThirdParty() {
			t.Fatalf("representative took the first-party role: %+v", p.Dest)
		}
		// "Aliases" < "Language", so the ThirdParty role's flow is first
		// in key order among the third-party flows.
		if p.Dest != third {
			t.Fatalf("representative = %+v, want %+v", p.Dest, third)
		}
		// Both third-party categories collected; the first-party flow's
		// category ("Age") excluded, as with the legacy Analyze.
		if len(p.Types) != 2 || p.Types[0].Name != "Aliases" || p.Types[1].Name != "Language" {
			t.Fatalf("types = %v", p.TypeNames())
		}
	}
}
