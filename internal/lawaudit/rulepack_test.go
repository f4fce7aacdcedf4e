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

// TestBuildPack pins the fixed pack lookup and ScenarioFor's spec rules:
// every error names the offending pack.
func TestBuildPack(t *testing.T) {
	if got := strings.Join(PackNames(), ","); got != "coppa,ccpa,gdpr" {
		t.Errorf("PackNames() = %s", got)
	}
	for _, spec := range []string{"coppa", "CCPA", " gdpr ", "gdpr=15", "gdpr = 13", "coppa="} {
		if _, err := BuildPack(spec); err != nil {
			t.Errorf("BuildPack(%q): %v", spec, err)
		}
	}
	if p, _ := BuildPack("gdpr=14"); p.Law != GDPRPack(14).Law {
		t.Errorf("gdpr=14 law = %q", p.Law)
	}
	cases := []struct {
		specs []string
		want  string // substring of the error
	}{
		{[]string{"no-such-pack"}, `unknown rule pack "no-such-pack" (have coppa, ccpa, gdpr)`},
		{[]string{"gdpr=20"}, "must be 13-16, got 20"},
		{[]string{"gdpr=x"}, `gdpr age of consent "x"`},
		{[]string{"coppa=1"}, `rule pack "coppa" takes no argument`},
		{[]string{"coppa", "coppa"}, `rule pack "coppa" given twice`},
		{[]string{"gdpr=15", "gdpr"}, `rule pack "gdpr" given twice`},
		{[]string{"ccpa", "coppa", "CCPA"}, `rule pack "ccpa" given twice`},
	}
	for _, c := range cases {
		sc, err := ScenarioFor(c.specs...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ScenarioFor(%q) = %v, %v; want error containing %q", c.specs, sc, err, c.want)
		}
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

// TestCustomPackIsAValue pins that a pack nobody registered evaluates
// beside the built-ins once appended to a scenario's Packs.
func TestCustomPackIsAValue(t *testing.T) {
	sc, err := ScenarioFor("coppa")
	if err != nil {
		t.Fatal(err)
	}
	sc.Packs = append(sc.Packs, &Pack{
		Name: "house", Law: "House rules",
		Rules: []Rule{{
			Name: "any-third-party", Stage: StageMinorSharing, Kind: FlowRule, Severity: Info,
			Classes: []flows.DestClass{flows.ThirdParty}, Detail: "third-party flow",
		}},
	})
	byTrace := emptyTraces()
	byTrace[flows.Adult].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "cdn.example", Class: flows.ThirdParty},
	}, flows.Web)
	fs := sc.Audit("TestSvc", byTrace)
	if len(fs) != 1 || fs[0].Rule != "any-third-party" || fs[0].Law != "House rules" {
		t.Errorf("findings = %v, want the custom pack's one", fs)
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
