package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"slices"
	"sort"
	"strconv"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/linkability"
)

// The export is the machine-readable counterpart of the paper's released
// dataset ("We plan to make DiffAudit's implementation and datasets
// available"): every <data type, destination> flow per persona, plus the
// linkability counts.

// ExportJSON renders the audit results as an indented JSON document.
func ExportJSON(results []*core.ServiceResult) ([]byte, error) {
	return AppendJSON(nil, results)
}

// symbolJSON holds the JSON encoding of each PlatformMask.Symbol. The
// symbols are not ASCII, so appendJSONString would send every row through
// encoding/json for them.
var symbolJSON [flows.OnWeb | flows.OnMobile + 1][]byte

func init() {
	for m := range symbolJSON {
		symbolJSON[m], _ = json.Marshal(flows.PlatformMask(m).Symbol())
	}
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// renders it. A string of printable ASCII with nothing to escape is copied
// between quotes; anything else (quotes, backslashes, the HTML-escaped <>&,
// control bytes, U+2028/2029, invalid UTF-8) is left to json.Marshal, the
// one owner of those rules.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONInt appends a key (indentation and quotes included) and its
// integer value.
func appendJSONInt(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// AppendJSON appends the JSON export to dst and returns the extended
// buffer — the twin of AppendFlowsCSV. It is one pass: each persona's rows
// render straight off the set's sorted keys, already indented, with no
// intermediate flow values and no reflection. The document is byte for byte
// what json.MarshalIndent(doc, "", "  ") gives for the struct form kept in
// export_reference_test.go, which is why an absent flow list is null, an
// empty persona map is {}, persona-keyed maps are in byte order of the name
// and the totals go by their Go field names. dst is grown once, to
// JSONSizeHint, when it is shorter than that.
func AppendJSON(dst []byte, results []*core.ServiceResult) ([]byte, error) {
	dst = slices.Grow(dst, JSONSizeHint(results))
	dst = append(dst, "{\n  \"services\": "...)
	if len(results) == 0 {
		dst = append(dst, "null"...)
	} else {
		for i, r := range results {
			if i == 0 {
				dst = append(dst, '[')
			} else {
				dst = append(dst, ',')
			}
			dst = appendServiceJSON(dst, r)
		}
		dst = append(dst, "\n  ]"...)
	}
	t := core.Totals(results)
	dst = appendJSONInt(dst, ",\n  \"totals\": {\n    \"Domains\": ", t.Domains)
	dst = appendJSONInt(dst, ",\n    \"ESLDs\": ", t.ESLDs)
	dst = appendJSONInt(dst, ",\n    \"Packets\": ", t.Packets)
	dst = appendJSONInt(dst, ",\n    \"TCPFlows\": ", t.TCPFlows)
	dst = appendJSONInt(dst, ",\n    \"UniqueRawKeys\": ", t.UniqueRawKeys)
	dst = appendJSONInt(dst, ",\n    \"UniqueFlows\": ", t.UniqueFlows)
	return append(dst, "\n  }\n}"...), nil
}

// jsonRowBytes is what one flow row of the export takes, rounded up from
// the 423–433 bytes measured across the six synthetic services (the row's
// keys, quotes and indentation are 302 of them, the rest is names);
// jsonFixedBytes covers a service's summary fields and persona maps, or
// the totals.
const (
	jsonRowBytes   = 448
	jsonFixedBytes = 1 << 10
)

// JSONSizeHint estimates the size of AppendJSON's output from the flow
// count, so a caller can hand AppendJSON a buffer it will not outgrow. It
// is an estimate, not a bound: unusually long names make a longer document.
func JSONSizeHint(results []*core.ServiceResult) int {
	n := jsonFixedBytes
	for _, r := range results {
		n += jsonFixedBytes
		for _, set := range r.ByTrace {
			n += set.Len() * jsonRowBytes
		}
	}
	return n
}

// personaCounts is one persona's entry in the two linkability maps.
type personaCounts struct {
	name              string
	linkable, largest int
}

// appendServiceJSON appends one element of the services array.
func appendServiceJSON(dst []byte, r *core.ServiceResult) []byte {
	dst = append(dst, "\n    {\n      \"service\": "...)
	name := appendJSONString(nil, r.Identity.Name)
	dst = append(dst, name...)
	dst = appendJSONInt(dst, ",\n      \"domains\": ", len(r.Domains))
	dst = appendJSONInt(dst, ",\n      \"eslds\": ", len(r.ESLDs))
	dst = appendJSONInt(dst, ",\n      \"packets\": ", r.Packets)
	dst = appendJSONInt(dst, ",\n      \"tcp_flows\": ", r.TCPFlows)
	dst = appendJSONInt(dst, ",\n      \"unique_data_types\": ", len(r.RawKeys))
	dst = appendJSONInt(dst, ",\n      \"dropped_keys\": ", r.DroppedKeys)
	dst = append(dst, ",\n      \"flows\": "...)

	personas := r.Personas()
	counts := make([]personaCounts, 0, len(personas))
	// head is what the rows of one persona open with, category what the
	// rows of one category continue with: rows arrive sorted by category,
	// so both are built a handful of times per persona, not once per row.
	var head, category []byte
	categoryOf := int64(-1) // the CatID category was built for
	rows := 0
	for _, p := range personas {
		trace := p.String()
		head = append(head[:0], "\n        {\n          \"service\": "...)
		head = append(head, name...)
		head = append(head, ",\n          \"trace\": "...)
		head = appendJSONString(head, trace)
		head = append(head, ",\n          \"data_type_category\": "...)

		set := r.ByTrace[p]
		tab := set.Table()
		set.RangeSorted(func(key uint64, m flows.PlatformMask) {
			c, d := flows.SplitFlowKey(key)
			if int64(c) != categoryOf {
				categoryOf = int64(c)
				cat := flows.CategoryByID(c)
				category = appendJSONString(category[:0], cat.Name)
				category = append(category, ",\n          \"data_type_group\": "...)
				category = appendJSONString(category, cat.Group.String())
				category = append(category, ",\n          \"is_identifier\": "...)
				category = strconv.AppendBool(category, cat.IsIdentifier())
				category = append(category, ",\n          \"destination\": "...)
			}
			if rows == 0 {
				dst = append(dst, '[')
			} else {
				dst = append(dst, ',')
			}
			rows++
			dest := tab.Destination(d)
			dst = append(dst, head...)
			dst = append(dst, category...)
			dst = appendJSONString(dst, dest.FQDN)
			dst = append(dst, ",\n          \"esld\": "...)
			dst = appendJSONString(dst, dest.ESLD)
			dst = append(dst, ",\n          \"owner\": "...)
			dst = appendJSONString(dst, dest.Owner)
			dst = append(dst, ",\n          \"destination_class\": "...)
			dst = appendJSONString(dst, dest.Class.String())
			dst = append(dst, ",\n          \"platforms\": "...)
			if int(m) >= len(symbolJSON) {
				m = 0
			}
			dst = append(dst, symbolJSON[m]...)
			dst = append(dst, "\n        }"...)
		})

		ix := linkability.NewIndex(set)
		largest, _ := ix.LargestSet()
		counts = append(counts, personaCounts{trace, ix.CountLinkable(), largest})
	}
	if rows == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, "\n      ]"...)
	}

	// encoding/json writes a map in byte order of its keys, and a map
	// keeps the later of two personas that print the same name.
	sort.SliceStable(counts, func(i, j int) bool { return counts[i].name < counts[j].name })
	unique := counts[:0]
	for i, c := range counts {
		if i+1 == len(counts) || counts[i+1].name != c.name {
			unique = append(unique, c)
		}
	}
	dst = append(dst, ",\n      \"linkable_parties\": {"...)
	dst = appendPersonaMapJSON(dst, unique, func(c personaCounts) int { return c.linkable })
	dst = append(dst, ",\n      \"largest_linkable_sets\": {"...)
	dst = appendPersonaMapJSON(dst, unique, func(c personaCounts) int { return c.largest })
	return append(dst, "\n    }"...)
}

// appendPersonaMapJSON appends the entries and closing brace of a
// persona-keyed map of a service.
func appendPersonaMapJSON(dst []byte, counts []personaCounts, value func(personaCounts) int) []byte {
	if len(counts) == 0 {
		return append(dst, '}')
	}
	for i, c := range counts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n        "...)
		dst = appendJSONString(dst, c.name)
		dst = appendJSONInt(dst, ": ", value(c))
	}
	return append(dst, "\n      }"...)
}

// ExportFlowsCSV renders every data flow as CSV rows with a header.
func ExportFlowsCSV(results []*core.ServiceResult) (string, error) {
	out, err := AppendFlowsCSV(nil, results)
	return string(out), err
}

// csvRowBytes is what one CSV row takes beyond its service and persona
// names, rounded up from the 115–126 bytes measured across the six
// synthetic services (nine commas and a newline, the rest is the flow's
// names); csvHeaderBytes covers the header line.
const (
	csvRowBytes    = 127
	csvHeaderBytes = 128
)

// CSVSizeHint estimates the size of AppendFlowsCSV's output from the flow
// count and the names every row repeats, so a caller can hand
// AppendFlowsCSV a buffer it will not outgrow. Like JSONSizeHint it is an
// estimate, not a bound.
func CSVSizeHint(results []*core.ServiceResult) int {
	n := csvHeaderBytes
	for _, r := range results {
		for t, set := range r.ByTrace {
			n += set.Len() * (csvRowBytes + len(r.Identity.Name) + len(t.String()))
		}
	}
	return n
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
