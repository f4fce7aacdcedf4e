package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/linkability"
	"diffaudit/internal/ontology"
	"diffaudit/internal/synth"
)

// The struct form of the export, rendered by encoding/json. It was the
// production render until AppendJSON replaced it and stays as the
// reference AppendJSON must equal byte for byte; the round-trip and schema
// tests decode into its types.

// ExportedFlow is one data flow in export form.
type ExportedFlow struct {
	Service    string `json:"service"`
	Trace      string `json:"trace"`
	Category   string `json:"data_type_category"`
	Group      string `json:"data_type_group"`
	Identifier bool   `json:"is_identifier"`
	FQDN       string `json:"destination"`
	ESLD       string `json:"esld"`
	Owner      string `json:"owner"`
	Class      string `json:"destination_class"`
	Platforms  string `json:"platforms"`
}

// ExportedService is one service's audit summary in export form.
type ExportedService struct {
	Service         string         `json:"service"`
	Domains         int            `json:"domains"`
	ESLDs           int            `json:"eslds"`
	Packets         int            `json:"packets"`
	TCPFlows        int            `json:"tcp_flows"`
	UniqueDataTypes int            `json:"unique_data_types"`
	DroppedKeys     int            `json:"dropped_keys"`
	Flows           []ExportedFlow `json:"flows"`
	LinkableParties map[string]int `json:"linkable_parties"`
	LargestSets     map[string]int `json:"largest_linkable_sets"`
}

// exportService flattens one result.
func exportService(r *core.ServiceResult) ExportedService {
	out := ExportedService{
		Service:         r.Identity.Name,
		Domains:         len(r.Domains),
		ESLDs:           len(r.ESLDs),
		Packets:         r.Packets,
		TCPFlows:        r.TCPFlows,
		UniqueDataTypes: len(r.RawKeys),
		DroppedKeys:     r.DroppedKeys,
		LinkableParties: map[string]int{},
		LargestSets:     map[string]int{},
	}
	for _, t := range r.Personas() {
		set := r.ByTrace[t]
		set.RangeSorted(func(key uint64, m flows.PlatformMask) {
			f := set.Table().FlowOfKey(key)
			out.Flows = append(out.Flows, ExportedFlow{
				Service:    r.Identity.Name,
				Trace:      t.String(),
				Category:   f.Category.Name,
				Group:      f.Category.Group.String(),
				Identifier: f.Category.IsIdentifier(),
				FQDN:       f.Dest.FQDN,
				ESLD:       f.Dest.ESLD,
				Owner:      f.Dest.Owner,
				Class:      f.Dest.Class.String(),
				Platforms:  m.Symbol(),
			})
		})
		ix := linkability.NewIndex(set)
		out.LinkableParties[t.String()] = ix.CountLinkable()
		n, _ := ix.LargestSet()
		out.LargestSets[t.String()] = n
	}
	return out
}

// referenceJSON is ExportJSON as it was: reflect-marshal, then indent.
func referenceJSON(results []*core.ServiceResult) ([]byte, error) {
	var doc struct {
		Services []ExportedService `json:"services"`
		Totals   core.Table1Totals `json:"totals"`
	}
	for _, r := range results {
		doc.Services = append(doc.Services, exportService(r))
	}
	doc.Totals = core.Totals(results)
	return json.MarshalIndent(doc, "", "  ")
}

// hostileStrings exercise every string rule of encoding/json: the quote,
// the backslash, the HTML-escaped trio, a control byte, DEL, the two line
// separators JavaScript rejects, plain non-ASCII and invalid UTF-8.
var hostileStrings = []string{
	"", "plain.example.com", `quo"te`, `back\slash`, "<script>&amp;</script>",
	"bell\x07tab\tnl\n", "del\x7f", "sep\u2028\u2029", "épinglé ● 日本", "bad\xff\xfeutf8", "\xe2\x80",
}

// synthResults audits every synthetic service at the given scale.
func synthResults(scale float64) []*core.ServiceResult {
	pipe := core.NewPipeline()
	var out []*core.ServiceResult
	for _, st := range synth.Generate(synth.Config{Scale: scale}).Services {
		out = append(out, pipe.AnalyzeRecords(st.Identity(), st.Records()))
	}
	return out
}

// handResult assembles a result by hand: one persona set per entry of
// personas, each holding one flow per (category, fqdn) pair.
func handResult(name, owner string, personas []flows.Persona, fqdns []string) *core.ServiceResult {
	cats := ontology.Categories()
	tab := flows.NewTable()
	r := &core.ServiceResult{
		Identity: core.ServiceIdentity{Name: name, Owner: owner},
		ByTrace:  map[flows.Persona]*flows.Set{},
		Packets:  7, TCPFlows: 3, DroppedKeys: 1,
		Domains: map[string]bool{}, ESLDs: map[string]bool{}, RawKeys: map[string]bool{"k": true},
	}
	for pi, p := range personas {
		set := tab.NewSet(0)
		for i, fqdn := range fqdns {
			r.Domains[fqdn] = true
			dest := flows.Destination{FQDN: fqdn, ESLD: "esld-" + fqdn, Owner: owner + fqdn, Class: flows.DestClass(i % 4)}
			set.Add(flows.Flow{Category: &cats[(i+pi)%len(cats)], Dest: dest}, flows.Platform(i%2))
			if i%3 == 0 {
				set.Add(flows.Flow{Category: &cats[(i+pi)%len(cats)], Dest: dest}, flows.Mobile)
			}
		}
		r.ByTrace[p] = set
	}
	return r
}

// TestAppendJSONMatchesReference is the export's identity contract: the
// one-pass encoder and the reflective reference agree on every byte.
func TestAppendJSONMatchesReference(t *testing.T) {
	// A custom persona whose name sorts before every built-in, so map
	// order (by name) and row order (built-ins first) disagree.
	early, err := flows.NewPersona(flows.PersonaInfo{Name: "AAA EU Teen <16>", AgeKnown: true, AgeMin: 13, AgeMax: 15, LoggedIn: true})
	if err != nil {
		t.Fatal(err)
	}
	odd, err := flows.NewPersona(flows.PersonaInfo{Name: "Persona(9999) \"q\" \u2028"})
	if err != nil {
		t.Fatal(err)
	}
	// Two personas that print the same name: one map key, two row groups.
	// No audit or decoded snapshot holds such a pair, but a result built by
	// hand can, and the two must still render in one order.
	twin, err := flows.NewPersona(flows.PersonaInfo{Name: "AAA EU Teen <16>", AgeKnown: true, AgeMin: 14, AgeMax: 15, LoggedIn: true})
	if err != nil {
		t.Fatal(err)
	}
	small, full := synthResults(0.002), synthResults(1)
	builtins := flows.BuiltinPersonas()
	hostile := handResult(`sv"c\<&>`+"\x01\u2028é\xff", "Ow\"ner\\&\x1f", append([]flows.Persona{twin, early, odd}, builtins...), hostileStrings)
	emptyPersona := handResult("Empty", "Org", builtins[:2], []string{"a.example.com", "b.example.com"})
	emptyPersona.ByTrace[flows.Adult] = flows.NewSet()

	cases := map[string][]*core.ServiceResult{
		"nil":            nil,
		"all small":      small,
		"all full":       full,
		"hostile":        {hostile},
		"custom persona": {handResult("Custom", "Org", []flows.Persona{flows.LoggedOut, early, flows.Child}, []string{"x.example.com"})},
		"empty persona":  {emptyPersona},
		"no flows":       {handResult("Nothing", "Org", builtins, nil)},
		"no personas":    {handResult("Bare", "Org", nil, nil)},
		"mixed":          {hostile, small[0], emptyPersona},
	}
	for i, r := range small {
		cases[fmt.Sprintf("small %s", r.Identity.Name)] = small[i : i+1]
		cases[fmt.Sprintf("full %s", r.Identity.Name)] = full[i : i+1]
	}
	for name, rs := range cases {
		want, err := referenceJSON(rs)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := AppendJSON(nil, rs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendJSON differs from the reference at byte %d of %d/%d:\n got …%s\nwant …%s",
				name, firstDiff(got, want), len(got), len(want), around(got, firstDiff(got, want)), around(want, firstDiff(got, want)))
		}
		// Appending keeps what dst already held.
		prefixed, _ := AppendJSON([]byte("prefix"), rs)
		if !bytes.Equal(prefixed, append([]byte("prefix"), want...)) {
			t.Errorf("%s: AppendJSON onto a non-empty dst lost the prefix or the document", name)
		}
	}
}

// TestJSONSizeHint pins the estimate to the documents it was measured on:
// a buffer of that size holds the render without growing and is not
// grossly oversized.
func TestJSONSizeHint(t *testing.T) {
	for _, r := range synthResults(0.002) {
		one := []*core.ServiceResult{r}
		doc, err := ExportJSON(one)
		if err != nil {
			t.Fatal(err)
		}
		if est := JSONSizeHint(one); est < len(doc) || est > len(doc)*11/10 {
			t.Errorf("%s: JSONSizeHint %d for a %d-byte document", r.Identity.Name, est, len(doc))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func around(b []byte, at int) string {
	return fmt.Sprintf("%q", b[max(0, at-60):min(len(b), at+60)])
}

// FuzzAppendJSONString holds appendJSONString to encoding/json's string
// rules on arbitrary bytes.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got[1:], want)
		}
	})
}

// BenchmarkExportJSON renders each synthetic service's export, the body
// of report.json and /v1/snapshots/{ref}.
func BenchmarkExportJSON(b *testing.B) {
	for _, r := range synthResults(0.002) {
		one := []*core.ServiceResult{r}
		b.Run(r.Identity.Name, func(b *testing.B) {
			out, err := ExportJSON(one)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(out)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, err = ExportJSON(one); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCSVSizeHint pins the CSV estimate the way TestJSONSizeHint pins the
// JSON one.
func TestCSVSizeHint(t *testing.T) {
	for _, r := range synthResults(0.002) {
		one := []*core.ServiceResult{r}
		doc, err := AppendFlowsCSV(nil, one)
		if err != nil {
			t.Fatal(err)
		}
		est := CSVSizeHint(one)
		if est < len(doc) || est > len(doc)*11/10 {
			t.Errorf("%s: CSVSizeHint %d for a %d-byte document", r.Identity.Name, est, len(doc))
		}
	}
}
