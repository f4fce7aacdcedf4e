package lawaudit

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

func emptyTraces() map[flows.TraceCategory]*flows.Set {
	out := map[flows.TraceCategory]*flows.Set{}
	for _, t := range flows.BuiltinPersonas() {
		out[t] = flows.NewSet()
	}
	return out
}

func TestPreConsentFindings(t *testing.T) {
	byTrace := emptyTraces()
	byTrace[flows.LoggedOut].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "api.svc.example", Class: flows.FirstParty},
	}, flows.Web)
	byTrace[flows.LoggedOut].Add(flows.Flow{
		Category: cat("Language"),
		Dest:     flows.Destination{FQDN: "trk.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	findings := Audit("TestSvc", byTrace)
	var rules []string
	for _, f := range findings {
		rules = append(rules, f.Rule)
	}
	joined := strings.Join(rules, ",")
	if !strings.Contains(joined, "pre-consent-collection") {
		t.Errorf("missing pre-consent-collection finding: %v", rules)
	}
	if !strings.Contains(joined, "pre-consent-sharing") {
		t.Errorf("missing pre-consent-sharing finding: %v", rules)
	}
	for _, f := range findings {
		if f.Rule == "pre-consent-sharing" && f.Severity != Serious {
			t.Error("pre-consent sharing must be serious")
		}
	}
}

func TestMinorATSSharing(t *testing.T) {
	byTrace := emptyTraces()
	byTrace[flows.Child].Add(flows.Flow{
		Category: cat("Device Software Identifiers"),
		Dest:     flows.Destination{FQDN: "ads.example", Class: flows.ThirdPartyATS},
	}, flows.Mobile)
	byTrace[flows.Adolescent].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "ads.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	findings := Audit("TestSvc", byTrace)
	var child, adol bool
	for _, f := range findings {
		if f.Rule != "minor-ats-sharing" {
			continue
		}
		switch f.Trace {
		case flows.Child:
			child = true
			if f.Law != COPPA {
				t.Errorf("child ATS finding cites %s, want COPPA", f.Law)
			}
		case flows.Adolescent:
			adol = true
			if f.Law != CCPA {
				t.Errorf("adolescent ATS finding cites %s, want CCPA", f.Law)
			}
		}
	}
	if !child || !adol {
		t.Errorf("minor-ats-sharing findings: child=%v adolescent=%v", child, adol)
	}
}

func TestNoAgeDifferentiation(t *testing.T) {
	byTrace := emptyTraces()
	// Identical child and adult flows → differentiation finding.
	for _, tc := range []flows.TraceCategory{flows.Child, flows.Adult} {
		byTrace[tc].Add(flows.Flow{
			Category: cat("Aliases"),
			Dest:     flows.Destination{FQDN: "x.example", Class: flows.ThirdPartyATS},
		}, flows.Web)
	}
	found := false
	for _, f := range Audit("TestSvc", byTrace) {
		if f.Rule == "no-age-differentiation" && f.Trace == flows.Child {
			found = true
			if !strings.Contains(f.Detail, "%") {
				t.Errorf("detail should carry the match percentage: %q", f.Detail)
			}
		}
	}
	if !found {
		t.Error("identical child/adult processing not flagged")
	}
}

func TestLinkableSharingFinding(t *testing.T) {
	byTrace := emptyTraces()
	byTrace[flows.Child].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "p.example", Class: flows.ThirdParty},
	}, flows.Web)
	byTrace[flows.Child].Add(flows.Flow{
		Category: cat("Language"),
		Dest:     flows.Destination{FQDN: "p.example", Class: flows.ThirdParty},
	}, flows.Web)
	found := false
	for _, f := range Audit("TestSvc", byTrace) {
		if f.Rule == "linkable-data-sharing" && f.Trace == flows.Child {
			found = true
			if f.Law != COPPA || f.Severity != Serious {
				t.Errorf("linkable child finding = %+v", f)
			}
		}
	}
	if !found {
		t.Error("linkable sharing not flagged")
	}
}

func TestPolicyInconsistencyFolding(t *testing.T) {
	byTrace := emptyTraces()
	byTrace[flows.Child].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "trk.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	found := false
	for _, f := range Audit("Duolingo", byTrace) {
		if f.Rule == "policy-inconsistency" {
			found = true
			if !strings.Contains(f.Detail, "contradict") {
				t.Errorf("detail = %q", f.Detail)
			}
		}
	}
	if !found {
		t.Error("Duolingo child ATS flow must contradict its policy model")
	}
	// Unknown service: no policy findings, no crash.
	for _, f := range Audit("UnknownSvc", byTrace) {
		if f.Rule == "policy-inconsistency" {
			t.Error("unknown service cannot have policy findings")
		}
	}
}

func TestCleanServiceNoFindings(t *testing.T) {
	byTrace := emptyTraces()
	// Adult-only first-party collection: nothing to flag.
	byTrace[flows.Adult].Add(flows.Flow{
		Category: cat("Language"),
		Dest:     flows.Destination{FQDN: "api.svc.example", Class: flows.FirstParty},
	}, flows.Web)
	for _, f := range Audit("TestSvc", byTrace) {
		// no-age-differentiation may fire vacuously when child and adult
		// are both (nearly) empty; everything else must stay silent.
		if f.Rule != "no-age-differentiation" {
			t.Errorf("unexpected finding: %+v", f)
		}
	}
}

func TestFindingsSortedBySeverity(t *testing.T) {
	byTrace := emptyTraces()
	byTrace[flows.LoggedOut].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "api.svc.example", Class: flows.FirstParty},
	}, flows.Web)
	byTrace[flows.Child].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "ads.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	findings := Audit("TestSvc", byTrace)
	for i := 1; i < len(findings); i++ {
		if findings[i-1].Severity < findings[i].Severity {
			t.Fatal("findings not sorted by severity")
		}
	}
	if len(findings) > 0 && findings[0].String() == "" {
		t.Error("finding stringer")
	}
}

func TestCITupleAndVerdicts(t *testing.T) {
	cases := []struct {
		trace flows.TraceCategory
		class flows.DestClass
		want  Verdict
	}{
		{flows.LoggedOut, flows.ThirdPartyATS, Inappropriate},
		{flows.LoggedOut, flows.ThirdParty, Inappropriate},
		{flows.LoggedOut, flows.FirstParty, Questionable},
		{flows.Child, flows.ThirdPartyATS, Inappropriate},
		{flows.Child, flows.ThirdParty, Questionable},
		{flows.Child, flows.FirstPartyATS, Questionable},
		{flows.Child, flows.FirstParty, Appropriate},
		{flows.Adolescent, flows.ThirdPartyATS, Inappropriate},
		{flows.Adult, flows.ThirdPartyATS, Appropriate},
	}
	for _, c := range cases {
		byTrace := emptyTraces()
		f := flows.Flow{
			Category: cat("Aliases"),
			Dest:     flows.Destination{FQDN: "d.example", Owner: "D Corp", Class: c.class},
		}
		byTrace[c.trace].Add(f, flows.Web)
		as := CIAnalysis("TestSvc", byTrace)
		if len(as) != 1 {
			t.Fatalf("%v/%v: assessments = %d", c.trace, c.class, len(as))
		}
		if as[0].Verdict != c.want {
			t.Errorf("%v/%v: verdict = %v, want %v (%s)",
				c.trace, c.class, as[0].Verdict, c.want, as[0].Reason)
		}
		tuple := as[0].Tuple
		if tuple.Sender != "TestSvc" || tuple.InformationType != "Aliases" {
			t.Errorf("tuple = %+v", tuple)
		}
		if tuple.TransmissionPrinciple == "" || tuple.Subject == "" || tuple.Recipient == "" {
			t.Errorf("incomplete tuple: %+v", tuple)
		}
	}
}

func TestCISummary(t *testing.T) {
	byTrace := emptyTraces()
	byTrace[flows.Child].Add(flows.Flow{
		Category: cat("Aliases"),
		Dest:     flows.Destination{FQDN: "a.example", Class: flows.FirstParty},
	}, flows.Web)
	byTrace[flows.Child].Add(flows.Flow{
		Category: cat("Language"),
		Dest:     flows.Destination{FQDN: "b.example", Class: flows.ThirdPartyATS},
	}, flows.Web)
	sum := CISummary(CIAnalysis("S", byTrace))
	if sum[Appropriate] != 1 || sum[Inappropriate] != 1 {
		t.Errorf("summary = %v", sum)
	}
	if Appropriate.String() != "appropriate" || Inappropriate.String() != "inappropriate" ||
		Questionable.String() != "questionable" {
		t.Error("verdict stringers")
	}
}
