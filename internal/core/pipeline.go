// Package core implements the DiffAudit pipeline — the paper's primary
// contribution. Starting from raw outgoing requests (parsed out of HAR
// files for web traces or reassembled/decrypted PCAP files for mobile
// traces), it extracts raw data types, classifies them against the
// COPPA/CCPA ontology with the production classifier, resolves packet
// destinations (eSLD → owner → first/third party, ATS block lists), and
// constructs the per-trace data flow sets that every downstream analysis
// (differential audit, policy consistency, linkability) consumes.
package core

import (
	"fmt"
	"sort"
	"strings"

	"diffaudit/internal/ats"
	"diffaudit/internal/classifier"
	"diffaudit/internal/domains"
	"diffaudit/internal/extract"
	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
)

// ServiceIdentity tells the pipeline whose traffic it is auditing: the
// first/third-party split is relative to the audited service, exactly as
// the paper matches destinations against "the name of the service" and its
// parent organization.
type ServiceIdentity struct {
	Name            string
	Owner           string
	FirstPartyESLDs []string
}

// RequestRecord is one outgoing request, the pipeline's unit of input. Both
// ingestion paths (HAR and PCAP) produce it. Records are read-only: the
// records of one TCP stream may share strings and a Cookies slice (a
// request that repeats the head before it is that request's record with
// its own Body), and their Body may be a slice of the stream's bytes.
type RequestRecord struct {
	Trace    flows.TraceCategory
	Platform flows.Platform
	Method   string
	URL      string
	FQDN     string
	Cookies  []extract.KVPair
	BodyMIME string
	Body     []byte
	// Repeat is the number of identical transmissions this record stands
	// for (1 for wire-parsed records).
	Repeat int
	// ConnID identifies the TCP connection ("" when unknown).
	ConnID string
}

// ServiceResult is the pipeline output for one service.
type ServiceResult struct {
	Identity ServiceIdentity
	// ByTrace holds the deduplicated flow set per persona. The four
	// built-in personas are always present; custom personas appear when
	// their records do.
	ByTrace map[flows.Persona]*flows.Set
	// Packets counts outgoing requests (Table 1).
	Packets int
	// TCPFlows counts distinct connections (Table 1).
	TCPFlows int
	// Domains and ESLDs are the distinct destinations (Table 1).
	Domains map[string]bool
	ESLDs   map[string]bool
	// RawKeys are the distinct raw data types extracted.
	RawKeys map[string]bool
	// DroppedKeys counts extracted pairs rejected by the confidence
	// threshold or labelled outside the ontology (hallucinated), mirroring
	// the paper's exclusion of low-confidence guesses.
	DroppedKeys int
}

// Personas returns the personas present in the result in column order:
// built-ins in table order, then custom personas by name
// (flows.PersonaLess). The order depends on nothing but the result, so a
// stored result renders the same in every process.
func (r *ServiceResult) Personas() []flows.Persona {
	out := make([]flows.Persona, 0, len(r.ByTrace))
	for p := range r.ByTrace {
		out = append(out, p)
	}
	return flows.SortPersonas(out)
}

// CheckPersonas reports an error when two of the result's personas share a
// name, the key snapshots store personas under and diffs pair them by. The
// pipeline and the snapshot decoder build no such result; the store refuses
// one assembled by hand.
func (r *ServiceResult) CheckPersonas() error {
	seen := make(map[string]bool, len(r.ByTrace))
	for _, p := range r.Personas() {
		if seen[p.String()] {
			return fmt.Errorf("core: two personas are named %q", p)
		}
		seen[p.String()] = true
	}
	return nil
}

// Pipeline runs the paper's one audit configuration: keys mined
// recursively from every request, labelled by the majority-avg ensemble at
// confidence 0.8, destinations resolved against the embedded ATS block
// lists. Its analyses classify through one bounded label cache, so a
// pipeline kept for a process's life (an audit server keeps one) labels a
// key once.
type Pipeline struct {
	labels *labelCache
	// Workers sizes the analysis worker pool every audit runs on: 0 (the
	// default) means runtime.GOMAXPROCS, any other value is used as given
	// (1 is one worker goroutine). Results do not depend on it — flow sets,
	// counters, and caches merge deterministically.
	Workers int
}

// NewPipeline returns a pipeline with a label cache of its own.
func NewPipeline() *Pipeline {
	return &Pipeline{labels: newLabelCache(classifier.FinalLabeler())}
}

// LabelStats counts one analysis's key lookups in its label cache: the
// keys it sent to the classifier, and those answered without it — labelled
// by an earlier analysis sharing the cache, or by another worker of its
// own.
type LabelStats struct {
	Classified int `json:"classified"`
	Reused     int `json:"reused"`
}

// fqdnTally is one entry of a partial's FQDN index: a destination exactly
// as the records spelled it. Its eSLD, owner and first/third-party class
// wait for result, which may have to learn from these very tallies whose
// traffic this is.
type fqdnTally struct {
	name    string
	records int  // one per record whatever its Repeat, as GuessIdentity counts
	blank   bool // normalises to "": counted as packets, carries no flows
}

// partialResult accumulates one worker's share of an analysis. Flows are
// keyed by localFlowKey against the partial's own FQDN index; destinations
// are resolved, and the result's symbol table built, only once the whole
// capture has been seen. Every field merges commutatively (set unions,
// sums, platform-mask ORs), so combining partials in any order yields the
// same ServiceResult one partial over every record would.
type partialResult struct {
	fqdnIdx     map[string]uint32 // FQDN as recorded → index into fqdns
	fqdns       []fqdnTally
	byTrace     map[flows.Persona]map[uint64]flows.PlatformMask
	rawKeys     map[string]bool
	conns       map[string]bool
	packets     int
	droppedKeys int
	labels      LabelStats
	keys        []string // extraction scratch, reused record to record
	// flowHint sizes the per-persona flow maps, created on first sight of
	// a persona's records.
	flowHint int
}

// localFlowKey packs a category and an index into the partial's fqdns,
// the run-local stand-in for flows.PackFlowKey.
func localFlowKey(c flows.CatID, fqdn uint32) uint64 { return uint64(c)<<32 | uint64(fqdn) }

// newPartialResult pre-sizes the accumulation maps from the number of
// records the partial will see. Distinct destinations are far fewer than
// records (traces repeat a few hundred FQDNs), so those maps get a capped
// hint; raw keys and connections scale closer to record count.
func newPartialResult(recHint int) *partialResult {
	destHint := recHint / 8
	if destHint > 256 {
		destHint = 256
	}
	return &partialResult{
		fqdnIdx:  make(map[string]uint32, destHint),
		byTrace:  make(map[flows.Persona]map[uint64]flows.PlatformMask),
		rawKeys:  make(map[string]bool, recHint),
		conns:    make(map[string]bool, recHint/4),
		flowHint: destHint,
	}
}

// index returns the FQDN's slot in the partial's index, adding a copy of
// it on first sight: a record's FQDN may be cut from its request head, and
// the index outlives the record's batch.
func (pr *partialResult) index(fqdn string) uint32 {
	i, ok := pr.fqdnIdx[fqdn]
	if !ok {
		fqdn = strings.Clone(fqdn)
		i = uint32(len(pr.fqdns))
		pr.fqdns = append(pr.fqdns, fqdnTally{name: fqdn, blank: strings.TrimSpace(fqdn) == ""})
		pr.fqdnIdx[fqdn] = i
	}
	return i
}

// flowsOf returns the persona's flow map, creating it on first use — the
// grouping step that lets the pipeline accumulate over arbitrary persona
// sets without reconfiguration.
func (pr *partialResult) flowsOf(p flows.Persona) map[uint64]flows.PlatformMask {
	m := pr.byTrace[p]
	if m == nil {
		m = make(map[uint64]flows.PlatformMask, pr.flowHint)
		pr.byTrace[p] = m
	}
	return m
}

// analyzeChunk runs the pipeline body over one batch of records,
// accumulating into pr.
func (p *Pipeline) analyzeChunk(recs []RequestRecord, pr *partialResult) {
	for i := range recs {
		rec := &recs[i]
		repeat := rec.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		pr.packets += repeat
		if rec.ConnID != "" && !pr.conns[rec.ConnID] {
			pr.conns[strings.Clone(rec.ConnID)] = true
		}
		fqdn := pr.index(rec.FQDN)
		pr.fqdns[fqdn].records++
		if pr.fqdns[fqdn].blank {
			continue
		}

		bit := rec.Platform.Mask()
		// Per the paper, data types come from payload data: query strings,
		// cookies and bodies. Transport headers only carry the destination,
		// so a record does not carry them.
		pr.keys = extract.AppendKeys(pr.keys[:0], extract.RequestView{
			URL:      rec.URL,
			Cookies:  rec.Cookies,
			BodyMIME: rec.BodyMIME,
			Body:     rec.Body,
		})
		for _, key := range pr.keys {
			// A key may be a substring of the record's URL or body; a
			// result keeps its own copy, not the request it was cut from.
			if !pr.rawKeys[key] {
				key = strings.Clone(key)
				pr.rawKeys[key] = true
			}
			catID, ok, classified := p.labels.label(key)
			if classified {
				pr.labels.Classified++
			} else {
				pr.labels.Reused++
			}
			if !ok {
				pr.droppedKeys++
				continue
			}
			pr.flowsOf(rec.Trace)[localFlowKey(catID, fqdn)] |= bit
		}
	}
}

// merge folds another partial into this one, translating the other's FQDN
// indices into this partial's.
func (pr *partialResult) merge(o *partialResult) {
	remap := make([]uint32, len(o.fqdns))
	for i, f := range o.fqdns {
		remap[i] = pr.index(f.name)
		pr.fqdns[remap[i]].records += f.records
	}
	for t, fl := range o.byTrace {
		dst := pr.flowsOf(t)
		for k, m := range fl {
			dst[localFlowKey(flows.CatID(k>>32), remap[uint32(k)])] |= m
		}
	}
	for k := range o.rawKeys {
		pr.rawKeys[k] = true
	}
	for c := range o.conns {
		pr.conns[c] = true
	}
	pr.packets += o.packets
	pr.droppedKeys += o.droppedKeys
	pr.labels.Classified += o.labels.Classified
	pr.labels.Reused += o.labels.Reused
}

// result converts the accumulated partial into the public ServiceResult.
// This is where destinations get their party: each distinct FQDN is
// resolved against the audited service exactly once into the result's own
// symbol table, which every persona set shares, and the flows are rekeyed
// from index slots to the resulting DestIDs. With guess set only id.Name
// is given and the first party is the eSLD most records went to —
// GuessIdentity's rule, read off the tallies.
//
// Flow sets for the four built-in personas always exist, so every result
// exposes the paper's trace columns; custom personas appear with their flows.
// Records under two personas of one name are an error (CheckPersonas).
func (pr *partialResult) result(id ServiceIdentity, guess bool) (*ServiceResult, error) {
	if guess {
		counts := make(map[string]int)
		for _, f := range pr.fqdns {
			if e := domains.ESLD(f.name); e != "" {
				counts[e] += f.records
			}
		}
		id = identityFromESLDCounts(id.Name, counts)
	}

	res := &ServiceResult{
		Identity:    id,
		ByTrace:     make(map[flows.Persona]*flows.Set, len(pr.byTrace)),
		Packets:     pr.packets,
		TCPFlows:    len(pr.conns),
		Domains:     make(map[string]bool, len(pr.fqdns)),
		ESLDs:       make(map[string]bool, len(pr.fqdns)),
		RawKeys:     pr.rawKeys,
		DroppedKeys: pr.droppedKeys,
	}
	engine := ats.Default()
	tab := flows.NewTableSized(len(pr.fqdns))
	dests := make([]flows.DestID, len(pr.fqdns))
	for i, f := range pr.fqdns {
		if f.blank {
			continue
		}
		d := flows.ResolveDestination(id.Owner, id.FirstPartyESLDs, f.name, engine)
		res.Domains[d.FQDN] = true
		if d.ESLD != "" {
			res.ESLDs[d.ESLD] = true
		}
		dests[i] = tab.Intern(d)
	}
	tab.Seal()
	for _, t := range flows.BuiltinPersonas() {
		res.ByTrace[t] = tab.NewSet(0)
	}
	for t, fl := range pr.byTrace {
		set := tab.NewSet(len(fl))
		for k, m := range fl {
			set.AddMask(flows.CatID(k>>32), dests[uint32(k)], m)
		}
		res.ByTrace[t] = set
	}
	if err := res.CheckPersonas(); err != nil {
		return nil, err
	}
	return res, nil
}

// AnalyzeRecords runs the full pipeline over a service's request records:
// AnalyzeStream over a SliceSource, so an in-memory audit and a streamed one
// take the same path and agree byte-for-byte. It panics where
// AnalyzeStream fails, which over a slice takes records under two personas
// of one name.
func (p *Pipeline) AnalyzeRecords(id ServiceIdentity, recs []RequestRecord) *ServiceResult {
	res, err := p.AnalyzeStream(id, SliceSource(recs))
	if err != nil {
		panic(err)
	}
	return res
}

// Table1Totals aggregates results into the unique-total row of Table 1.
type Table1Totals struct {
	Domains, ESLDs, Packets, TCPFlows int
	UniqueRawKeys                     int
	UniqueFlows                       int
}

// Totals computes dataset-wide unique counts across service results
// (domains and eSLDs are deduplicated across services, as in Table 1).
// Flow uniqueness dedupes on the (category, FQDN) pair — the same identity
// Flow.Key encodes (one domain holding different roles for different
// services still counts once) — with FQDNs numbered by string once per
// destination of each table, not once per flow. One result's own maps are
// already distinct, so only several results build unions of them.
func Totals(results []*ServiceResult) Table1Totals {
	var t Table1Totals
	if len(results) == 1 {
		r := results[0]
		t.Domains, t.ESLDs, t.UniqueRawKeys = len(r.Domains), len(r.ESLDs), len(r.RawKeys)
	} else {
		domains := map[string]bool{}
		eslds := map[string]bool{}
		keys := map[string]bool{}
		for _, r := range results {
			for d := range r.Domains {
				domains[d] = true
			}
			for e := range r.ESLDs {
				eslds[e] = true
			}
			for k := range r.RawKeys {
				keys[k] = true
			}
		}
		t.Domains, t.ESLDs, t.UniqueRawKeys = len(domains), len(eslds), len(keys)
	}
	// fqdns numbers FQDNs by string across the results; tables holds each
	// table's DestID → FQDN number translation.
	fqdns := map[string]uint32{}
	tables := map[*flows.Table][]uint32{}
	fl := map[uint64]bool{}
	for _, r := range results {
		t.Packets += r.Packets
		t.TCPFlows += r.TCPFlows
		for _, set := range r.ByTrace {
			tab := set.Table()
			fqdnOf, ok := tables[tab]
			if !ok {
				fqdnOf = make([]uint32, tab.Len())
				for i := range fqdnOf {
					fqdn := tab.Destination(flows.DestID(i)).FQDN
					if _, seen := fqdns[fqdn]; !seen {
						fqdns[fqdn] = uint32(len(fqdns))
					}
					fqdnOf[i] = fqdns[fqdn]
				}
				tables[tab] = fqdnOf
			}
			set.Range(func(key uint64, _ flows.PlatformMask) {
				c, d := flows.SplitFlowKey(key)
				fl[uint64(c)<<32|uint64(fqdnOf[d])] = true
			})
		}
	}
	t.UniqueFlows = len(fl)
	return t
}

// Grid renders a service result at Table 4 granularity: for each level-2
// flow group and destination class, the platform mask per persona.
func Grid(r *ServiceResult) map[ontology.Level2]map[flows.DestClass]map[flows.Persona]flows.PlatformMask {
	out := make(map[ontology.Level2]map[flows.DestClass]map[flows.Persona]flows.PlatformMask)
	for _, g := range ontology.Level2Groups() {
		out[g] = make(map[flows.DestClass]map[flows.Persona]flows.PlatformMask)
	}
	for _, t := range r.Personas() {
		gg := r.ByTrace[t].GroupGrid()
		for g := range gg {
			for c, mask := range gg[g] {
				if mask == 0 {
					continue
				}
				group, class := ontology.Level2(g), flows.DestClass(c)
				cell := out[group][class]
				if cell == nil {
					cell = make(map[flows.Persona]flows.PlatformMask)
					out[group][class] = cell
				}
				cell[t] |= mask
			}
		}
	}
	return out
}

// DestinationRoles counts distinct destinations per class across results,
// mirroring the paper's "320 first parties, 33 first party ATS, 150 third
// parties, 485 third party ATS" breakdown. A domain contacted by several
// services may hold a different role for each.
func DestinationRoles(results []*ServiceResult) map[flows.DestClass]int {
	seen := map[flows.DestClass]map[string]bool{}
	for _, c := range flows.DestClasses() {
		seen[c] = map[string]bool{}
	}
	for _, r := range results {
		for _, t := range r.Personas() {
			for _, d := range r.ByTrace[t].Destinations() {
				seen[d.Class][d.FQDN] = true
			}
		}
	}
	out := map[flows.DestClass]int{}
	for c, m := range seen {
		out[c] = len(m)
	}
	return out
}

// SortedKeys returns the unique raw data types of a result, sorted.
func (r *ServiceResult) SortedKeys() []string {
	out := make([]string, 0, len(r.RawKeys))
	for k := range r.RawKeys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
