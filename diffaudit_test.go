package diffaudit_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diffaudit"
	"diffaudit/internal/core"
	"diffaudit/internal/services"
)

func TestAuditAllEndToEnd(t *testing.T) {
	results := diffaudit.AuditAll(0.002)
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6", len(results))
	}
	// Headline paper findings, re-derived through the public API.
	for _, r := range results {
		findings := diffaudit.Findings(r)
		var hasPreConsent bool
		for _, f := range findings {
			if f.Rule == "pre-consent-collection" || f.Rule == "pre-consent-sharing" {
				hasPreConsent = true
			}
		}
		if !hasPreConsent {
			t.Errorf("%s: every audited service processed data before consent in the paper", r.Identity.Name)
		}
	}
}

// TestSnapshotWorkflowPublicAPI drives the snapshot surface end to end:
// save an audit, reload it, verify the reload renders identically, and
// diff it against a later audit with an injected flow.
func TestSnapshotWorkflowPublicAPI(t *testing.T) {
	auditor := diffaudit.New()
	id := diffaudit.ServiceIdentity{Name: "snap-svc", Owner: "Snap Inc", FirstPartyESLDs: []string{"snap.example"}}
	base := []diffaudit.RequestRecord{{
		Trace: diffaudit.Adult, Platform: diffaudit.Web, Method: "GET",
		URL: "https://api.snap.example/v1?email=a@b.c", FQDN: "api.snap.example",
	}}
	first := auditor.AuditRecords(id, base)

	path := filepath.Join(t.TempDir(), "first.snap")
	if err := diffaudit.SaveSnapshot(path, first); err != nil {
		t.Fatal(err)
	}
	reloaded, err := diffaudit.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{first})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{reloaded})
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("reloaded snapshot renders differently")
	}
	if string(diffaudit.EncodeSnapshot(reloaded)) != string(diffaudit.EncodeSnapshot(first)) {
		t.Error("snapshot encoding is not canonical through the public API")
	}

	second := auditor.AuditRecords(id, append(append([]diffaudit.RequestRecord(nil), base...),
		diffaudit.RequestRecord{
			Trace: diffaudit.Adult, Platform: diffaudit.Mobile, Method: "POST",
			URL: "https://pixel.mathtag.com/sync?advertising_id=x1", FQDN: "pixel.mathtag.com",
		}))
	d := diffaudit.DiffSnapshots(reloaded, second)
	if !d.Changed() {
		t.Fatal("injected flow not detected")
	}
	md := diffaudit.RenderDiffReport(d)
	if !strings.Contains(md, "pixel.mathtag.com") {
		t.Errorf("diff report missing injected destination:\n%s", md)
	}
	js, err := diffaudit.ExportDiffJSON(d)
	if err != nil || !strings.Contains(string(js), `"changed": true`) {
		t.Errorf("diff JSON: %v\n%s", err, js)
	}
}

func TestPolicyConsistencyMatchesPaper(t *testing.T) {
	// "All but one of the services had privacy policies that were
	// inconsistent with the data flows we observed" — YouTube is the one.
	for _, r := range diffaudit.AuditAll(0.002) {
		v := diffaudit.PolicyViolations(r)
		if r.Identity.Name == "YouTube" {
			if len(v) != 0 {
				t.Errorf("YouTube policy must be consistent, got %d violations", len(v))
			}
			continue
		}
		if len(v) == 0 {
			t.Errorf("%s policy must be inconsistent with observed flows", r.Identity.Name)
		}
	}
}

func TestLinkablePartiesViaPublicAPI(t *testing.T) {
	results := diffaudit.AuditAll(0.002)
	for _, r := range results {
		parties := diffaudit.LinkableParties(r.ByTrace[diffaudit.Child])
		spec := specFor(t, r.Identity.Name)
		if got, want := len(parties), spec.LinkableParties[0]; got != want {
			t.Errorf("%s child linkable parties = %d, want %d", r.Identity.Name, got, want)
		}
	}
}

func specFor(t *testing.T, name string) *diffaudit.ServiceSpec {
	t.Helper()
	s, ok := services.ByName(name)
	if !ok {
		t.Fatalf("no spec for %s", name)
	}
	return s
}

func TestHARFileWorkflow(t *testing.T) {
	ds := diffaudit.GenerateDataset(0.002)
	st := ds.Service("Duolingo")
	dir := t.TempDir()
	path := filepath.Join(dir, "duolingo-child-web.har")
	if err := st.EmitHAR(diffaudit.Child).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	a := diffaudit.New()
	recs, err := a.LoadHARFile(path, diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records from HAR")
	}
	res := a.AuditRecords(st.Identity(), recs)
	if res.ByTrace[diffaudit.Child].Len() == 0 {
		t.Error("no child flows from HAR workflow")
	}
}

func TestRenderersThroughPublicAPI(t *testing.T) {
	results := diffaudit.AuditAll(0.002)
	if out := diffaudit.RenderTable1(results); !strings.Contains(out, "Table 1") {
		t.Error("RenderTable1")
	}
	if out := diffaudit.RenderTable4(results); !strings.Contains(out, "Quizlet") {
		t.Error("RenderTable4")
	}
	if out := diffaudit.RenderFigure3(results); !strings.Contains(out, "Figure 3") {
		t.Error("RenderFigure3")
	}
	if out := diffaudit.RenderTable5(); !strings.Contains(out, "Ontology") {
		t.Error("RenderTable5")
	}
	rows := diffaudit.ValidateClassifier()
	if len(rows) != 7 {
		t.Fatalf("classifier validation rows = %d, want 7 (5 temps + 2 ensembles)", len(rows))
	}
	if out := diffaudit.RenderTable3(rows); !strings.Contains(out, "Majority-Avg") {
		t.Error("RenderTable3")
	}
}

func TestGuessIdentityPublic(t *testing.T) {
	recs := []diffaudit.RequestRecord{
		{FQDN: "app.myservice.io"}, {FQDN: "api.myservice.io"}, {FQDN: "cdn.other.net"},
	}
	id := diffaudit.GuessIdentity("MyService", recs)
	if len(id.FirstPartyESLDs) != 1 || id.FirstPartyESLDs[0] != "myservice.io" {
		t.Errorf("GuessIdentity = %+v", id)
	}
}

func TestDifferentialAPIs(t *testing.T) {
	results := diffaudit.AuditAll(0.002)
	for _, r := range results {
		// Logged-out vs child diff: both directions populated for the
		// services that behave differently pre-consent.
		d := core.Diff(r.ByTrace[diffaudit.LoggedOut], r.ByTrace[diffaudit.Child])
		if d.Jaccard() < 0 || d.Jaccard() > 1 {
			t.Errorf("%s: jaccard out of range", r.Identity.Name)
		}
		sims := core.AgeDifferential(r)
		if sims[diffaudit.Child] < 0.75 {
			t.Errorf("%s: child/adult similarity %.2f below the paper's near-identical finding",
				r.Identity.Name, sims[diffaudit.Child])
		}
	}
}

func TestContextualIntegrityAPI(t *testing.T) {
	results := diffaudit.AuditAll(0.002)
	sc, err := diffaudit.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		as := diffaudit.ContextualIntegrityScenario(r, sc)
		if len(as) == 0 {
			t.Fatalf("%s: no CI assessments", r.Identity.Name)
		}
		inappropriate := 0
		for _, a := range as {
			if a.Verdict.String() == "inappropriate" {
				inappropriate++
			}
			if a.Tuple.Sender != r.Identity.Name {
				t.Fatalf("tuple sender = %q", a.Tuple.Sender)
			}
		}
		if r.Identity.Name == "YouTube" {
			if inappropriate != 0 {
				t.Errorf("YouTube has %d inappropriate flows (no third parties contacted)", inappropriate)
			}
		} else if inappropriate == 0 {
			t.Errorf("%s: expected inappropriate flows (pre-consent third-party sharing)", r.Identity.Name)
		}
	}
}

func TestExportAPIs(t *testing.T) {
	results := diffaudit.AuditAll(0.002)
	data, err := diffaudit.ExportJSON(results)
	if err != nil || len(data) == 0 {
		t.Fatalf("json export: %v", err)
	}
	csvOut, err := diffaudit.ExportFlowsCSV(results)
	if err != nil || !strings.HasPrefix(csvOut, "service,") {
		t.Fatalf("csv export: %v", err)
	}
}

func TestPCAPFileWorkflowMixedTLS(t *testing.T) {
	ds := diffaudit.GenerateDataset(0.002)
	st := ds.Service("Minecraft")
	capt, err := st.EmitPCAP(diffaudit.Adolescent)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "adolescent-mobile.pcapng")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcapng(f, capt); err != nil {
		t.Fatal(err)
	}
	f.Close()
	a := diffaudit.New()
	recs, stats, err := a.LoadPCAPFile(path, "", diffaudit.Adolescent)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || stats.TLS12Streams == 0 || stats.DNSQueries == 0 {
		t.Errorf("mixed pcap workflow: recs=%d tls12=%d dns=%d", len(recs), stats.TLS12Streams, stats.DNSQueries)
	}
}

func TestPCAPWorkflowExternalKeylog(t *testing.T) {
	// The PCAPdroid workflow: classic pcap (no embedded secrets) plus an
	// SSLKEYLOGFILE on the side.
	ds := diffaudit.GenerateDataset(0.002)
	st := ds.Service("Duolingo")
	capt, err := st.EmitPCAP(diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	var keylog []byte
	for _, s := range capt.Secrets {
		keylog = append(keylog, s...)
	}
	capt.Secrets = nil

	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "child.pcap")
	klPath := filepath.Join(dir, "child.keylog")
	f, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writePcap(f, capt); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(klPath, keylog, 0o644); err != nil {
		t.Fatal(err)
	}

	a := diffaudit.New()
	// Without the keylog everything stays opaque.
	recs, stats, err := a.LoadPCAPFile(pcapPath, "", diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.DecryptedStreams != 0 {
		t.Errorf("no-keys load: recs=%d decrypted=%d", len(recs), stats.DecryptedStreams)
	}
	// With the external keylog the capture decrypts.
	recs, stats, err = a.LoadPCAPFile(pcapPath, klPath, diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || stats.DecryptedStreams == 0 {
		t.Errorf("keylog load: recs=%d decrypted=%d", len(recs), stats.DecryptedStreams)
	}
}
