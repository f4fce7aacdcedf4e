package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/linkability"
)

// Export structures: the machine-readable counterpart of the paper's
// released dataset ("We plan to make DiffAudit's implementation and
// datasets available").

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

// ExportJSON renders the audit results as an indented JSON document.
func ExportJSON(results []*core.ServiceResult) ([]byte, error) {
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

// ExportFlowsCSV renders every data flow as CSV rows with a header.
func ExportFlowsCSV(results []*core.ServiceResult) (string, error) {
	out, err := AppendFlowsCSV(nil, results)
	return string(out), err
}

// AppendFlowsCSV appends the CSV flow export to dst and returns the
// extended buffer — byte-identical to ExportFlowsCSV, but streaming: rows
// render straight off each set's sorted keys with one reused row slice, no
// ExportedFlow materialization and no linkability indexing (CSV carries
// neither), so a server can render into pooled scratch with near-zero
// per-request garbage.
func AppendFlowsCSV(dst []byte, results []*core.ServiceResult) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	w := csv.NewWriter(buf)
	header := []string{
		"service", "trace", "data_type_category", "data_type_group",
		"is_identifier", "destination", "esld", "owner",
		"destination_class", "platforms",
	}
	if err := w.Write(header); err != nil {
		return nil, err
	}
	row := make([]string, len(header))
	for _, r := range results {
		for _, t := range r.Personas() {
			trace := t.String()
			var rowErr error
			set := r.ByTrace[t]
			set.RangeSorted(func(key uint64, m flows.PlatformMask) {
				if rowErr != nil {
					return
				}
				f := set.Table().FlowOfKey(key)
				row[0] = r.Identity.Name
				row[1] = trace
				row[2] = f.Category.Name
				row[3] = f.Category.Group.String()
				row[4] = strconv.FormatBool(f.Category.IsIdentifier())
				row[5] = f.Dest.FQDN
				row[6] = f.Dest.ESLD
				row[7] = f.Dest.Owner
				row[8] = f.Dest.Class.String()
				row[9] = m.Symbol()
				rowErr = w.Write(row)
			})
			if rowErr != nil {
				return nil, rowErr
			}
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}
