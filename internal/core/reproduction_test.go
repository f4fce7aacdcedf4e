// Reproduction tests: the audit pipeline must re-derive the paper's
// published results from the synthetic traffic without consulting the
// calibration profiles.
package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/linkability"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/ontology"
	"diffaudit/internal/synth"
)

// analyzeAll runs the pipeline over the whole dataset at the given scale.
func analyzeAll(t testing.TB, scale float64) (*synth.Dataset, []*core.ServiceResult) {
	t.Helper()
	ds := synth.Generate(synth.Config{Scale: scale})
	pipe := core.NewPipeline()
	var results []*core.ServiceResult
	for _, st := range ds.Services {
		results = append(results, pipe.AnalyzeRecords(st.Identity(), st.Records()))
	}
	return ds, results
}

// harRecords serializes a HAR document and reads it back through the HAR
// source, as an upload is read.
func harRecords(t testing.TB, h *har.HAR, trace flows.TraceCategory) []core.RequestRecord {
	t.Helper()
	data, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := core.Drain(core.NewHARSource(har.NewStreamDecoder(bytes.NewReader(data)), trace))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// pcapRecords writes a capture as pcapng bytes and reads them back through
// pcapio.NewReader and the PCAP source, as an upload is read.
func pcapRecords(t testing.TB, capt *pcapio.Capture, trace flows.TraceCategory) ([]core.RequestRecord, core.PCAPStats) {
	t.Helper()
	var buf bytes.Buffer
	if err := pcapio.WritePcapng(&buf, capt); err != nil {
		t.Fatal(err)
	}
	rd, err := pcapio.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src := core.NewPCAPSource(context.Background(), rd, nil, trace)
	recs, err := core.Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	return recs, src.Stats()
}

func TestTable1ExactReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale dataset")
	}
	ds, results := analyzeAll(t, 1)
	for i, st := range ds.Services {
		r := results[i]
		row := st.Spec.Table1
		if len(r.Domains) != row.Domains {
			t.Errorf("%s domains = %d, want %d", st.Spec.Name, len(r.Domains), row.Domains)
		}
		if len(r.ESLDs) != row.ESLDs {
			t.Errorf("%s eSLDs = %d, want %d", st.Spec.Name, len(r.ESLDs), row.ESLDs)
		}
		if r.Packets != row.Packets {
			t.Errorf("%s packets = %d, want %d", st.Spec.Name, r.Packets, row.Packets)
		}
		if r.TCPFlows != row.TCPFlows {
			t.Errorf("%s TCP flows = %d, want %d", st.Spec.Name, r.TCPFlows, row.TCPFlows)
		}
	}
	tot := core.Totals(results)
	if tot.Domains != 964 || tot.ESLDs != 326 || tot.Packets != 440513 || tot.TCPFlows != 14568 {
		t.Errorf("totals = %+v, want 964 domains / 326 eSLDs / 440513 packets / 14568 flows", tot)
	}
}

func TestTable4GridExactReproduction(t *testing.T) {
	ds, results := analyzeAll(t, 0.01)
	for i, st := range ds.Services {
		got := core.Grid(results[i])
		for _, g := range ontology.FlowGroups() {
			for _, c := range flows.DestClasses() {
				for _, tc := range flows.BuiltinPersonas() {
					want := st.Spec.Grid.Mask(g, c, tc)
					if gm := got[g][c][tc]; gm != want {
						t.Errorf("%s / %v / %v / %v: got %s, want %s",
							st.Spec.Name, g, c, tc, gm.Symbol(), want.Symbol())
					}
				}
			}
		}
	}
}

func TestFigure3ExactReproduction(t *testing.T) {
	ds, results := analyzeAll(t, 0.01)
	for i, st := range ds.Services {
		for ti, tc := range flows.BuiltinPersonas() {
			got := linkability.CountLinkable(results[i].ByTrace[tc])
			if want := st.Spec.LinkableParties[ti]; got != want {
				t.Errorf("%s / %v: %d linkable third parties, want %d", st.Spec.Name, tc, got, want)
			}
		}
	}
}

func TestFigure4ExactReproduction(t *testing.T) {
	ds, results := analyzeAll(t, 0.01)
	for i, st := range ds.Services {
		for ti, tc := range flows.BuiltinPersonas() {
			got, _ := linkability.LargestSet(results[i].ByTrace[tc])
			if want := st.Spec.LargestSet[ti]; got != want {
				t.Errorf("%s / %v: largest linkable set %d, want %d", st.Spec.Name, tc, got, want)
			}
		}
	}
}

func TestQuizletAdultLargestSetContents(t *testing.T) {
	// The paper enumerates the 13 data types of the dataset's largest
	// linkable set (Quizlet, adult trace).
	_, results := analyzeAll(t, 0.01)
	var quizlet *core.ServiceResult
	for _, r := range results {
		if r.Identity.Name == "Quizlet" {
			quizlet = r
		}
	}
	n, types := linkability.LargestSet(quizlet.ByTrace[flows.Adult])
	if n != 13 {
		t.Fatalf("largest set = %d, want 13", n)
	}
	want := map[string]bool{
		"Network Connection Information": true, "Language": true,
		"Device Information": true, "App or Service Usage": true,
		"Service Information": true, "Products and Advertising": true,
		"Account Settings": true, "Aliases": true, "Name": true,
		"Login Information": true, "Location Time": true,
		"Device Software Identifiers":              true,
		"Reasonably Linkable Personal Identifiers": true,
	}
	for _, c := range types {
		if !want[c.Name] {
			t.Errorf("unexpected type %q in Quizlet adult largest set", c.Name)
		}
		delete(want, c.Name)
	}
	for missing := range want {
		t.Errorf("type %q missing from Quizlet adult largest set", missing)
	}
}

func TestFigure5TopOrgsIncludePaperNames(t *testing.T) {
	_, results := analyzeAll(t, 0.01)
	// Across the dataset, the paper's headline organizations must appear
	// among the ATS receiving linkable data.
	seen := map[string]bool{}
	for _, r := range results {
		for _, tc := range flows.BuiltinPersonas() {
			for _, o := range linkability.TopATSOrgs(r.ByTrace[tc], 0) {
				seen[o.Organization] = true
			}
		}
	}
	for _, org := range []string{
		"Google LLC", "PubMatic, Inc.", "Amazon Technologies",
		"Adobe Inc.", "MediaMath, Inc.", "AppsFlyer",
	} {
		if !seen[org] {
			t.Errorf("organization %q absent from linkable-data ATS set", org)
		}
	}
	// YouTube must contribute nothing.
	for _, r := range results {
		if r.Identity.Name != "YouTube" {
			continue
		}
		for _, tc := range flows.BuiltinPersonas() {
			if n := len(linkability.TopATSOrgs(r.ByTrace[tc], 0)); n != 0 {
				t.Errorf("YouTube %v: %d ATS orgs, want 0", tc, n)
			}
		}
	}
}

func TestObservedCategoriesMatchTable2(t *testing.T) {
	_, results := analyzeAll(t, 0.01)
	seen := map[string]bool{}
	for _, r := range results {
		for _, tc := range flows.BuiltinPersonas() {
			for _, f := range r.ByTrace[tc].Flows() {
				seen[f.Category.Name] = true
			}
		}
	}
	for _, c := range ontology.ObservedCategories() {
		if !seen[c.Name] {
			t.Errorf("category %q marked observed in Table 2 but absent from dataset", c.Name)
		}
	}
	if len(seen) != 19 {
		t.Errorf("dataset observed %d categories, paper reports 19", len(seen))
	}
}

func TestWireFormatsAgreeWithRecords(t *testing.T) {
	// The HAR path (web) and the PCAP path (mobile, TLS-decrypted) must
	// yield exactly the flow sets of the record path.
	ds := synth.Generate(synth.Config{Scale: 0.002})
	pipe := core.NewPipeline()
	for _, st := range ds.Services {
		recRes := pipe.AnalyzeRecords(st.Identity(), st.Records())
		var wireRecs []core.RequestRecord
		for _, tc := range flows.BuiltinPersonas() {
			wireRecs = append(wireRecs, harRecords(t, st.EmitHAR(tc), tc)...)
			capt, err := st.EmitPCAP(tc)
			if err != nil {
				t.Fatal(err)
			}
			recs, stats := pcapRecords(t, capt, tc)
			if stats.OpaqueStreams == 0 {
				t.Errorf("%s/%v: capture should include an undecryptable flow", st.Spec.Name, tc)
			}
			if stats.DecryptedStreams == 0 && len(recs) > 0 {
				t.Errorf("%s/%v: records without decrypted streams", st.Spec.Name, tc)
			}
			if stats.TLSStreams > 4 && stats.TLS12Streams == 0 {
				t.Errorf("%s/%v: mixed capture should include TLS 1.2 flows", st.Spec.Name, tc)
			}
			if stats.TLS12Streams >= stats.TLSStreams {
				t.Errorf("%s/%v: capture should include TLS 1.3 flows too", st.Spec.Name, tc)
			}
			wireRecs = append(wireRecs, recs...)
		}
		wireRes := pipe.AnalyzeRecords(st.Identity(), wireRecs)
		for _, tc := range flows.BuiltinPersonas() {
			a, b := recRes.ByTrace[tc].Flows(), wireRes.ByTrace[tc].Flows()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%v: wire flows (%d) != record flows (%d)",
					st.Spec.Name, tc, len(b), len(a))
			}
		}
	}
}

func TestDroppedKeysMatchNoiseTail(t *testing.T) {
	// Exactly the planted sub-threshold noise keys must be dropped: the
	// curated pools always classify, the noise tail never does.
	ds, results := analyzeAll(t, 0.002)
	for i, r := range results {
		want := ds.Services[i].Spec.NoiseKeys
		if r.DroppedKeys != want {
			t.Errorf("%s: dropped %d extracted pairs, want the %d noise keys",
				r.Identity.Name, r.DroppedKeys, want)
		}
	}
}

func TestUniqueRawDataTypesNearPaper(t *testing.T) {
	// The paper extracted 3,968 unique data types; the synthetic dataset
	// is calibrated to the same count (classifiable keys + noise tail).
	_, results := analyzeAll(t, 0.002)
	tot := core.Totals(results)
	if tot.UniqueRawKeys < 3800 || tot.UniqueRawKeys > 4100 {
		t.Errorf("unique raw data types = %d, want ≈3968", tot.UniqueRawKeys)
	}
}

func TestGuessIdentity(t *testing.T) {
	recs := []core.RequestRecord{
		{FQDN: "www.newapp.example"}, {FQDN: "api.newapp.example"},
		{FQDN: "tracker.ads.example"},
	}
	id := core.GuessIdentity("NewApp", recs)
	if id.Name != "NewApp" || len(id.FirstPartyESLDs) != 1 || id.FirstPartyESLDs[0] != "newapp.example" {
		t.Errorf("GuessIdentity = %+v", id)
	}
	if got := core.GuessIdentity("x", nil); len(got.FirstPartyESLDs) != 0 {
		t.Errorf("empty records should give no first party: %+v", got)
	}
}

func TestPCAPIncludesDNSLookups(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.002})
	st := ds.Service("Roblox")
	capt, err := st.EmitPCAP(flows.Child)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := pcapRecords(t, capt, flows.Child)
	if stats.DNSQueries == 0 {
		t.Fatal("capture carries no DNS lookups")
	}
	if len(stats.QueriedNames) == 0 {
		t.Fatal("no queried names collected")
	}
	// Every TLS flow is preceded by a lookup of its destination.
	found := false
	for _, n := range stats.QueriedNames {
		if n == "metrics.roblox.com" {
			found = true
		}
	}
	if !found {
		t.Errorf("metrics.roblox.com missing from queried names: %v", stats.QueriedNames[:5])
	}
}

func TestOpaqueStreamsSurfaceSNI(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.002})
	st := ds.Service("Duolingo")
	capt, err := st.EmitPCAP(flows.Child)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := pcapRecords(t, capt, flows.Child)
	if stats.OpaqueStreams == 0 || len(stats.OpaqueSNIs) == 0 {
		t.Fatalf("opaque=%d snis=%v", stats.OpaqueStreams, stats.OpaqueSNIs)
	}
	if stats.OpaqueSNIs[0] != "www.duolingo.com" {
		t.Errorf("opaque SNI = %q", stats.OpaqueSNIs[0])
	}
}

func TestScaleInvarianceOfFlows(t *testing.T) {
	// The flow structure (and hence every grid/linkability artifact) must
	// be identical across scales; only repeat counts change.
	pipe := core.NewPipeline()
	small := synth.Generate(synth.Config{Scale: 0.002})
	large := synth.Generate(synth.Config{Scale: 0.05})
	for i := range small.Services {
		a := pipe.AnalyzeRecords(small.Services[i].Identity(), small.Services[i].Records())
		b := pipe.AnalyzeRecords(large.Services[i].Identity(), large.Services[i].Records())
		for _, tc := range flows.BuiltinPersonas() {
			if !reflect.DeepEqual(a.ByTrace[tc].Flows(), b.ByTrace[tc].Flows()) {
				t.Errorf("%s/%v: flows differ across scales", a.Identity.Name, tc)
			}
		}
		if len(a.Domains) != len(b.Domains) || len(a.RawKeys) != len(b.RawKeys) {
			t.Errorf("%s: domains/keys differ across scales", a.Identity.Name)
		}
		if a.Packets >= b.Packets {
			t.Errorf("%s: packet counts should scale (%d vs %d)", a.Identity.Name, a.Packets, b.Packets)
		}
	}
}

func TestRecordOrderInvariance(t *testing.T) {
	// Flow sets are order-independent: shuffling the input records must
	// not change any analysis output.
	ds := synth.Generate(synth.Config{Scale: 0.002})
	st := ds.Service("TikTok")
	pipe := core.NewPipeline()
	recs := st.Records()
	base := pipe.AnalyzeRecords(st.Identity(), recs)

	shuffled := make([]core.RequestRecord, len(recs))
	copy(shuffled, recs)
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	got := pipe.AnalyzeRecords(st.Identity(), shuffled)

	for _, tc := range flows.BuiltinPersonas() {
		if !reflect.DeepEqual(base.ByTrace[tc].Flows(), got.ByTrace[tc].Flows()) {
			t.Errorf("%v: flows depend on record order", tc)
		}
	}
	if base.Packets != got.Packets || base.TCPFlows != got.TCPFlows {
		t.Error("counts depend on record order")
	}
}
