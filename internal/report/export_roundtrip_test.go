package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
)

// exportDoc mirrors the full ExportJSON document for round-trip decoding.
type exportDoc struct {
	Services []ExportedService `json:"services"`
	Totals   core.Table1Totals `json:"totals"`
}

// TestExportJSONRoundTrip decodes the export back and checks every field
// against the source results — the golden contract that downstream
// consumers (the serve-mode report endpoint, released datasets) can trust
// the document to carry exactly what the pipeline computed.
func TestExportJSONRoundTrip(t *testing.T) {
	rs := results(t)
	data, err := ExportJSON(rs)
	if err != nil {
		t.Fatal(err)
	}

	var doc exportDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Services) != len(rs) {
		t.Fatalf("services = %d, want %d", len(doc.Services), len(rs))
	}
	if doc.Totals != core.Totals(rs) {
		t.Errorf("totals = %+v, want %+v", doc.Totals, core.Totals(rs))
	}

	for i, svc := range doc.Services {
		r := rs[i]
		if svc.Service != r.Identity.Name {
			t.Fatalf("service %d = %q, want %q", i, svc.Service, r.Identity.Name)
		}
		if svc.Domains != len(r.Domains) || svc.ESLDs != len(r.ESLDs) ||
			svc.Packets != r.Packets || svc.TCPFlows != r.TCPFlows ||
			svc.UniqueDataTypes != len(r.RawKeys) || svc.DroppedKeys != r.DroppedKeys {
			t.Errorf("%s: summary fields diverge from result", svc.Service)
		}

		// Every exported flow must exist in the source set for its trace,
		// and counts must match exactly.
		wantFlows := 0
		byTrace := map[string]map[string]bool{}
		for _, tc := range flows.BuiltinPersonas() {
			set := r.ByTrace[tc]
			wantFlows += set.Len()
			keys := map[string]bool{}
			for _, f := range set.Flows() {
				keys[f.Category.Name+"→"+f.Dest.FQDN] = true
			}
			byTrace[tc.String()] = keys
		}
		if len(svc.Flows) != wantFlows {
			t.Errorf("%s: exported %d flows, want %d", svc.Service, len(svc.Flows), wantFlows)
		}
		for _, ef := range svc.Flows {
			if !byTrace[ef.Trace][ef.Category+"→"+ef.FQDN] {
				t.Errorf("%s: exported flow %s→%s not in source trace %s",
					svc.Service, ef.Category, ef.FQDN, ef.Trace)
			}
		}
	}

	// Determinism: exporting again yields identical bytes.
	again, err := ExportJSON(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("ExportJSON is not deterministic")
	}
}

// TestExportCSVMatchesJSON checks the CSV is an exact row-per-flow
// projection of the JSON export — same flows, same order, same fields.
func TestExportCSVMatchesJSON(t *testing.T) {
	rs := results(t)
	data, err := ExportJSON(rs)
	if err != nil {
		t.Fatal(err)
	}
	var doc exportDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	out, err := ExportFlowsCSV(rs)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	var wantRows [][]string
	wantRows = append(wantRows, []string{
		"service", "trace", "data_type_category", "data_type_group",
		"is_identifier", "destination", "esld", "owner",
		"destination_class", "platforms",
	})
	for _, svc := range doc.Services {
		for _, ef := range svc.Flows {
			wantRows = append(wantRows, []string{
				ef.Service, ef.Trace, ef.Category, ef.Group,
				fmt.Sprintf("%t", ef.Identifier), ef.FQDN, ef.ESLD,
				ef.Owner, ef.Class, ef.Platforms,
			})
		}
	}
	if len(rows) != len(wantRows) {
		t.Fatalf("csv rows = %d, want %d", len(rows), len(wantRows))
	}
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != wantRows[i][j] {
				t.Fatalf("row %d col %d: %q vs %q", i, j, rows[i][j], wantRows[i][j])
			}
		}
	}
}
