package diffaudit_test

import (
	"bytes"
	"strings"
	"testing"

	"diffaudit"
	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
	"diffaudit/internal/services"
)

// newEUTeen makes the fifth persona the acceptance test audits: an EU teen
// below a 15-year GDPR age of digital consent, generating traffic like the
// paper's adolescent trace.
func newEUTeen(t *testing.T) diffaudit.Persona {
	t.Helper()
	p, err := diffaudit.NewPersona(diffaudit.PersonaInfo{
		Name:     "EU Teen",
		Aliases:  []string{"eu-teen"},
		AgeKnown: true, AgeMin: 13, AgeMax: 14,
		LoggedIn: true,
		Subject:  "EU teen user (13-14)",
		Attrs:    map[string]string{"region": "EU"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fivePersonaResult generates Quizlet traffic for the four built-ins plus
// the EU teen persona and audits it end to end.
func fivePersonaResult(t *testing.T, p diffaudit.Persona) *diffaudit.ServiceResult {
	t.Helper()
	plans := make([]diffaudit.PersonaPlan, 0, 5)
	for _, b := range diffaudit.BuiltinPersonas() {
		plans = append(plans, diffaudit.PersonaPlan{Persona: b, Like: b})
	}
	plans = append(plans, diffaudit.PersonaPlan{Persona: p, Like: diffaudit.Adolescent})
	ds := diffaudit.GenerateDatasetWith(diffaudit.DatasetConfig{Scale: 0.01, Personas: plans})
	st := ds.Service("Quizlet")
	return diffaudit.New().AuditRecords(st.Identity(), st.Records())
}

// TestFifthPersonaEndToEnd is the acceptance test for the open persona
// space: a fifth persona rides the whole pipeline — synthetic traffic,
// flow-set grouping, report columns — alongside the built-in four.
func TestFifthPersonaEndToEnd(t *testing.T) {
	p := newEUTeen(t)
	res := fivePersonaResult(t, p)

	personas := res.Personas()
	if len(personas) != 5 || personas[4] != p {
		t.Fatalf("result personas = %v, want built-ins + %v", personas, p)
	}
	set := res.ByTrace[p]
	if set == nil || set.Len() == 0 {
		t.Fatal("no flows accumulated for the fifth persona")
	}

	// The realized flow grid of the fifth persona matches its template
	// column (the adolescent trace) of the calibrated profile exactly.
	spec, _ := services.ByName("Quizlet")
	grid := set.GroupGrid()
	for _, g := range ontology.FlowGroups() {
		for _, c := range flows.DestClasses() {
			want := spec.Grid.Mask(g, c, flows.Adolescent)
			if got := grid[g][c]; got != want {
				t.Errorf("%v/%v: mask %s, want %s", g, c, got.Symbol(), want.Symbol())
			}
		}
	}

	// Report artifacts grow a fifth column, named after the persona.
	table4 := diffaudit.RenderTable4([]*diffaudit.ServiceResult{res})
	if !strings.Contains(table4, "EU Teen") {
		t.Error("Table 4 missing the EU Teen column")
	}
	report := diffaudit.RenderAuditReport(res)
	if !strings.Contains(report, "| EU Teen |") {
		t.Error("audit report missing the EU Teen flow row")
	}
	// The under-16 persona participates in the age differential.
	sims := core.AgeDifferential(res)
	if _, ok := sims[p]; !ok {
		t.Errorf("core.AgeDifferential = %v, missing the minor fifth persona", sims)
	}

	// CSV export carries the persona's flows.
	csv, err := diffaudit.ExportFlowsCSV([]*diffaudit.ServiceResult{res})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv, "EU Teen") {
		t.Error("CSV export missing EU Teen flows")
	}
}

// TestFifthPersonaGDPRVerdicts is the acceptance test for pluggable rule
// packs: the GDPR pack with a 15-year age of digital consent flags the EU
// teen (13-14) persona's flows, end to end from synthetic traffic.
func TestFifthPersonaGDPRVerdicts(t *testing.T) {
	p := newEUTeen(t)
	res := fivePersonaResult(t, p)

	sc, err := diffaudit.NewScenario("gdpr=15")
	if err != nil {
		t.Fatal(err)
	}
	findings := diffaudit.FindingsScenario(res, sc)
	var gotProfiling, gotLinkable bool
	for _, f := range findings {
		if f.Trace != p {
			continue
		}
		switch f.Rule {
		case "child-profiling":
			gotProfiling = true
			if !strings.Contains(string(f.Law), "age of consent 15") {
				t.Errorf("law citation = %q", f.Law)
			}
		case "linkable-profiling":
			gotLinkable = true
		}
	}
	if !gotProfiling || !gotLinkable {
		t.Errorf("GDPR findings for the fifth persona: profiling=%v linkable=%v (of %d findings)",
			gotProfiling, gotLinkable, len(findings))
	}

	// CI verdicts under GDPR: the under-consent-age persona's third-party
	// ATS flows are inappropriate; its first-party flows are appropriate.
	var inappropriate, appropriate bool
	for _, a := range diffaudit.ContextualIntegrityScenario(res, sc) {
		if a.Trace != p {
			continue
		}
		if a.Tuple.Subject != "EU teen user (13-14)" {
			t.Fatalf("CI subject = %q", a.Tuple.Subject)
		}
		switch {
		case a.Flow.Dest.Class == diffaudit.ThirdPartyATS && a.Verdict == diffaudit.CIInappropriate:
			inappropriate = true
		case a.Flow.Dest.Class == diffaudit.FirstParty && a.Verdict == diffaudit.CIAppropriate:
			appropriate = true
		}
	}
	if !inappropriate || !appropriate {
		t.Errorf("GDPR CI verdicts: inappropriate-ATS=%v appropriate-FP=%v", inappropriate, appropriate)
	}

	// Under the default COPPA+CCPA scenario the same persona is a CCPA
	// minor (13-14 < 16): the attribute-predicated packs cover it too.
	var ccpaMinor bool
	for _, f := range diffaudit.Findings(res) {
		if f.Trace == p && f.Rule == "minor-ats-sharing" {
			ccpaMinor = true
		}
	}
	if !ccpaMinor {
		t.Error("default scenario did not treat the 13-14 persona as a CCPA minor")
	}
}

// TestBuiltinOnlyArtifactsUnchangedByRegistration pins the invariant the
// reproduction suite depends on: merely defining extra personas (without
// generating traffic for them) leaves built-in-only artifacts untouched.
func TestBuiltinOnlyArtifactsUnchangedByRegistration(t *testing.T) {
	before := quizletResult(t)
	table4Before := diffaudit.RenderTable4([]*diffaudit.ServiceResult{before})

	newEUTeen(t)

	after := quizletResult(t)
	table4After := diffaudit.RenderTable4([]*diffaudit.ServiceResult{after})
	if table4Before != table4After {
		t.Error("defining a persona changed built-in-only Table 4 output")
	}
	if got := len(after.Personas()); got != 4 {
		t.Errorf("built-in-only result has %d personas", got)
	}
}

// TestPersonaColumnsIndependentOfConstructionOrder: a result lists the
// built-ins in table order, then its custom personas by name — not in the
// order the personas were made or their records arrived — so a stored
// result renders the same report.json in every process.
func TestPersonaColumnsIndependentOfConstructionOrder(t *testing.T) {
	teen := func(name string) diffaudit.Persona {
		p, err := diffaudit.NewPersona(diffaudit.PersonaInfo{Name: name, AgeKnown: true, AgeMin: 13, AgeMax: 14, LoggedIn: true})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	zed, abe := teen("Zed Teen"), teen("Abe Teen")
	plans := make([]diffaudit.PersonaPlan, 0, 6)
	for _, b := range diffaudit.BuiltinPersonas() {
		plans = append(plans, diffaudit.PersonaPlan{Persona: b, Like: b})
	}
	plans = append(plans, diffaudit.PersonaPlan{Persona: zed, Like: diffaudit.Adolescent}, diffaudit.PersonaPlan{Persona: abe})
	st := diffaudit.GenerateDatasetWith(diffaudit.DatasetConfig{Scale: 0.005, Personas: plans}).Service("Quizlet")
	recs := st.Records()
	first := diffaudit.New().AuditRecords(st.Identity(), recs)

	// The same records under personas made the other way round, fed in
	// reverse.
	abe2, zed2 := teen("Abe Teen"), teen("Zed Teen")
	swapped := make([]diffaudit.RequestRecord, len(recs))
	for i, r := range recs {
		switch r.Trace {
		case zed:
			r.Trace = zed2
		case abe:
			r.Trace = abe2
		}
		swapped[len(recs)-1-i] = r
	}
	second := diffaudit.New().AuditRecords(st.Identity(), swapped)

	var names []string
	for _, p := range second.Personas() {
		names = append(names, p.String())
	}
	if strings.Join(names, ",") != "Child,Adolescent,Adult,Logged Out,Abe Teen,Zed Teen" {
		t.Errorf("personas = %v, want the built-ins then the customs by name", names)
	}
	a, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{first})
	if err != nil {
		t.Fatal(err)
	}
	b, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{second})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("report.json depends on the order the custom personas were made in")
	}
}

// quizletResult audits built-in-only Quizlet traffic.
func quizletResult(t *testing.T) *diffaudit.ServiceResult {
	t.Helper()
	ds := diffaudit.GenerateDataset(0.01)
	st := ds.Service("Quizlet")
	return diffaudit.New().AuditRecords(st.Identity(), st.Records())
}
