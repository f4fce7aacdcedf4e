package lawaudit

import (
	"reflect"
	"strings"
	"testing"

	"diffaudit/internal/flows"
)

// TestDefaultScenarioEqualsAudit pins that the package-level Audit and the
// explicitly-built default scenario are the same engine.
func TestDefaultScenarioEqualsAudit(t *testing.T) {
	byTrace := emptyTraces()
	byTrace[flows.LoggedOut].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "trk.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	byTrace[flows.Child].Add(flows.Flow{
		Category: cat("Device Software Identifiers"),
		Dest:     flows.Destination{FQDN: "ads.example", Class: flows.ThirdPartyATS},
	}, flows.Mobile)
	a := Audit("TestSvc", byTrace)
	b := DefaultScenario().Audit("TestSvc", byTrace)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Audit != DefaultScenario().Audit:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Error("no findings")
	}
}

// TestGDPRAgeOfConsent checks the configurable age line: an adolescent
// (13-15) is below a 16-year consent age but not below a 13-year one.
func TestGDPRAgeOfConsent(t *testing.T) {
	byTrace := emptyTraces()
	byTrace[flows.Adolescent].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "ads.example", Class: flows.ThirdPartyATS},
	}, flows.Web)

	rules := func(age int) []string {
		sc := &Scenario{Packs: []*Pack{GDPRPack(age)}}
		var out []string
		for _, f := range sc.Audit("TestSvc", byTrace) {
			if f.Trace == flows.Adolescent {
				out = append(out, f.Rule)
			}
		}
		return out
	}

	at16 := strings.Join(rules(16), ",")
	if !strings.Contains(at16, "child-profiling") {
		t.Errorf("age-of-consent 16: adolescent ATS flow not flagged: %v", at16)
	}
	at13 := strings.Join(rules(13), ",")
	if strings.Contains(at13, "child-profiling") {
		t.Errorf("age-of-consent 13: adolescent wrongly treated as child: %v", at13)
	}

	// A bracket straddling the consent line (13-15 vs age 14) matches
	// neither "under" nor "of age" predicates: no finding, no false claim.
	if got := rules(14); got != nil {
		t.Errorf("age-of-consent 14: straddling bracket produced findings: %v", got)
	}

	// The citation carries the configured age.
	sc := &Scenario{Packs: []*Pack{GDPRPack(16)}}
	fs := sc.Audit("TestSvc", byTrace)
	if len(fs) == 0 {
		t.Fatal("no GDPR findings for adolescent at age-of-consent 16")
	}
	if !strings.Contains(string(fs[0].Law), "age of consent 16") {
		t.Errorf("law citation = %q", fs[0].Law)
	}
}

// TestGDPRPreConsent checks pre-consent rules fire for the logged-out
// persona under GDPR, with sharing graded more severely than collection.
func TestGDPRPreConsent(t *testing.T) {
	byTrace := emptyTraces()
	byTrace[flows.LoggedOut].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "api.svc.example", Class: flows.FirstParty},
	}, flows.Web)
	byTrace[flows.LoggedOut].Add(flows.Flow{
		Category: cat("Language"),
		Dest:     flows.Destination{FQDN: "trk.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	sc := &Scenario{Packs: []*Pack{GDPRPack(16)}}
	fs := sc.Audit("TestSvc", byTrace)
	var processing, sharing *Finding
	for i := range fs {
		switch fs[i].Rule {
		case "pre-consent-processing":
			processing = &fs[i]
		case "pre-consent-sharing":
			sharing = &fs[i]
		}
	}
	if processing == nil || sharing == nil {
		t.Fatal("missing GDPR pre-consent findings")
	}
	if processing.Severity != Concern || sharing.Severity != Serious {
		t.Errorf("severities: processing=%v sharing=%v", processing.Severity, sharing.Severity)
	}
}

// TestGDPRCINorms checks the GDPR pack's contextual-integrity norms.
func TestGDPRCINorms(t *testing.T) {
	sc := &Scenario{Packs: []*Pack{GDPRPack(16)}}
	cases := []struct {
		trace flows.Persona
		class flows.DestClass
		want  Verdict
	}{
		{flows.Child, flows.ThirdPartyATS, Inappropriate},
		{flows.Adolescent, flows.ThirdPartyATS, Inappropriate}, // under 16 = under GDPR consent age
		{flows.Adolescent, flows.FirstParty, Appropriate},
		{flows.LoggedOut, flows.ThirdParty, Inappropriate},
		{flows.LoggedOut, flows.FirstParty, Questionable},
		{flows.Adult, flows.ThirdPartyATS, Appropriate},
	}
	for _, c := range cases {
		byTrace := emptyTraces()
		byTrace[c.trace].Add(flows.Flow{
			Category: cat("Aliases"),
			Dest:     flows.Destination{FQDN: "d.example", Owner: "D Corp", Class: c.class},
		}, flows.Web)
		as := sc.CIAnalysis("TestSvc", byTrace)
		if len(as) != 1 {
			t.Fatalf("%v/%v: %d assessments", c.trace, c.class, len(as))
		}
		if as[0].Verdict != c.want {
			t.Errorf("%v/%v: verdict %v, want %v (%s)", c.trace, c.class, as[0].Verdict, c.want, as[0].Reason)
		}
		if as[0].Tuple.TransmissionPrinciple == "" {
			t.Errorf("%v: empty transmission principle", c.trace)
		}
	}
	// The GDPR consent norm names parental responsibility for minors.
	if p := sc.Principle(flows.Child); !strings.Contains(p, "parental responsibility") {
		t.Errorf("child principle = %q", p)
	}
}

func TestPackRegistry(t *testing.T) {
	names := PackNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"coppa", "ccpa", "gdpr"} {
		if !strings.Contains(joined, want) {
			t.Errorf("PackNames() = %v, missing %q", names, want)
		}
	}
	if err := RegisterPack(&Pack{Name: "coppa"}); err == nil {
		t.Error("duplicate pack registration accepted")
	}
	if _, err := BuildPack("no-such-pack"); err == nil {
		t.Error("unknown pack accepted")
	}
	if _, err := BuildPack("gdpr=20"); err == nil {
		t.Error("out-of-range GDPR age accepted")
	}
	if _, err := BuildPack("gdpr=15"); err != nil {
		t.Errorf("gdpr=15: %v", err)
	}
	if _, err := BuildPack("coppa=1"); err == nil {
		t.Error("argument to fixed pack accepted")
	}
	sc, err := ScenarioFor()
	if err != nil || len(sc.Packs) != 2 {
		t.Errorf("empty ScenarioFor = %v, %v", sc, err)
	}
	sc, err = ScenarioFor("coppa", "gdpr=13")
	if err != nil || len(sc.Packs) != 2 || sc.Packs[1].Name != "gdpr" {
		t.Errorf("ScenarioFor(coppa, gdpr=13) = %+v, %v", sc, err)
	}
}

// TestCustomPackCoversRegisteredPersona pins the open-persona contract: a
// rule predicating on attributes covers personas defined after the pack.
func TestCustomPackCoversRegisteredPersona(t *testing.T) {
	p, err := flows.NewPersona(flows.PersonaInfo{
		Name: "Pack Test Kid", AgeKnown: true, AgeMin: 6, AgeMax: 9, LoggedIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	byTrace := map[flows.Persona]*flows.Set{p: flows.NewSet()}
	byTrace[p].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "ads.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	found := false
	for _, f := range Audit("TestSvc", byTrace) {
		if f.Rule == "minor-ats-sharing" && f.Trace == p {
			found = true
			if f.Law != COPPA {
				t.Errorf("under-13 persona cites %s, want COPPA", f.Law)
			}
		}
	}
	if !found {
		t.Error("COPPA pack did not cover a custom under-13 persona")
	}
}
