package policy

import (
	"strings"
	"testing"

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

func traceSet(pairs ...flows.Flow) map[flows.TraceCategory]*flows.Set {
	out := map[flows.TraceCategory]*flows.Set{}
	for _, t := range flows.BuiltinPersonas() {
		out[t] = flows.NewSet()
	}
	for _, f := range pairs {
		out[flows.Child].Add(f, flows.Web)
	}
	return out
}

func TestModelsCoverAllSixServices(t *testing.T) {
	m := Models()
	for _, svc := range []string{"Duolingo", "Minecraft", "Quizlet", "Roblox", "TikTok", "YouTube"} {
		if _, ok := m[svc]; !ok {
			t.Errorf("no policy model for %s", svc)
		}
	}
	if len(m["YouTube"].Constraints) != 0 {
		t.Error("YouTube's policy was consistent in the paper; its model must have no falsifiable constraints")
	}
	for _, svc := range []string{"Duolingo", "Minecraft", "Quizlet", "Roblox", "TikTok"} {
		if len(m[svc].Constraints) == 0 {
			t.Errorf("%s must have at least one falsifiable constraint", svc)
		}
	}
}

func TestAuditFindsContradiction(t *testing.T) {
	m := Models()["Duolingo"]
	byTrace := traceSet(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "t.ats.example", Class: flows.ThirdPartyATS},
	})
	violations := Audit(m, byTrace)
	if len(violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(violations))
	}
	v := violations[0]
	if v.Trace != flows.Child || v.Flow.Dest.FQDN != "t.ats.example" {
		t.Errorf("violation = %+v", v)
	}
	if !strings.Contains(v.String(), "contradicts") {
		t.Errorf("violation string = %q", v.String())
	}
}

func TestAuditRespectsGroupFilter(t *testing.T) {
	m := Models()["Quizlet"] // constraint limited to identifier groups, logged-out
	byTrace := map[flows.TraceCategory]*flows.Set{
		flows.LoggedOut: flows.NewSet(),
	}
	// Personal information only: no identifier groups → no violation.
	byTrace[flows.LoggedOut].Add(flows.Flow{
		Category: cat("Language"),
		Dest:     flows.Destination{FQDN: "x.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	if v := Audit(m, byTrace); len(v) != 0 {
		t.Errorf("non-identifier flow should not violate: %+v", v)
	}
	// Identifier: violation.
	byTrace[flows.LoggedOut].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "x.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	if v := Audit(m, byTrace); len(v) != 1 {
		t.Errorf("identifier flow should violate: %+v", v)
	}
}

func TestAuditIgnoresFirstPartyAndAdult(t *testing.T) {
	m := Models()["TikTok"] // child-only ATS constraint
	byTrace := map[flows.TraceCategory]*flows.Set{
		flows.Child: flows.NewSet(),
		flows.Adult: flows.NewSet(),
	}
	byTrace[flows.Child].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "fp.tiktok.com", Class: flows.FirstParty},
	}, flows.Web)
	byTrace[flows.Adult].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "ats.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	if v := Audit(m, byTrace); len(v) != 0 {
		t.Errorf("first-party child and third-party adult flows must not violate: %+v", v)
	}
}

func TestAuditNilTrace(t *testing.T) {
	m := Models()["Minecraft"]
	if v := Audit(m, map[flows.TraceCategory]*flows.Set{}); v != nil {
		t.Errorf("empty trace map should yield nil, got %+v", v)
	}
}

// TestConstraintsCoverCustomPersonas pins the open-persona contract for
// the policy layer: disclosures predicated on audience attributes cover
// personas defined after the model was written.
func TestConstraintsCoverCustomPersonas(t *testing.T) {
	p, err := flows.NewPersona(flows.PersonaInfo{
		Name: "Policy Kid", AgeKnown: true, AgeMin: 7, AgeMax: 10, LoggedIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	byTrace := map[flows.Persona]*flows.Set{p: flows.NewSet()}
	byTrace[p].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "trk.example", Class: flows.ThirdPartyATS},
	}, flows.Web)

	// Duolingo's "users under 16" disclosure covers a 7-10 persona.
	violations := Audit(Models()["Duolingo"], byTrace)
	if len(violations) != 1 || violations[0].Trace != p {
		t.Fatalf("violations = %v", violations)
	}
	// TikTok's "children" disclosure (under 13) covers it too; an
	// of-age-only statement would not.
	if got := Audit(Models()["TikTok"], byTrace); len(got) != 1 {
		t.Errorf("TikTok violations = %v", got)
	}
}
