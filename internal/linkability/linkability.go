// Package linkability implements the DiffAudit data linkability analysis
// (Section 4.2): a third party is "sent linkable data" when it receives at
// least one data type from the identifiers bucket and at least one from the
// personal-information bucket of the ontology, enabling the tracking and
// profiling risks the paper discusses via Powar et al.'s linkage-attack SoK.
//
// All statistics are served from an Index built in a single pass over the
// flow set's packed keys: the Figure 3/4/5 entry points and CommonSet share
// one grouping of third-party destinations instead of each re-running a
// full analysis (re-sorting, re-mapping, and re-resolving owners) from
// scratch.
package linkability

import (
	"math/bits"
	"sort"
	"strings"

	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
)

// Party is one third-party destination with the data type set it received.
type Party struct {
	Dest flows.Destination
	// Types are the distinct level-3 categories received, sorted by name.
	Types []*ontology.Category
	// Linkable reports whether Types spans both level-1 buckets.
	Linkable bool
}

// TypeNames lists the received category names.
func (p Party) TypeNames() []string {
	out := make([]string, len(p.Types))
	for i, c := range p.Types {
		out[i] = c.Name
	}
	return out
}

// indexParty is one third-party destination with its categories in symbol
// form. Destinations are held by value: the index outlives no table.
type indexParty struct {
	// dest is the representative destination: the one carried by the
	// first flow toward this FQDN in deterministic flow-key order, which
	// is the destination the string-keyed Analyze exposed.
	dest flows.Destination
	// cats are the distinct received categories, sorted by name.
	cats     []flows.CatID
	linkable bool
}

// Index is the single-pass linkability view of one trace's flow set. It
// groups every third-party destination with its received data type set
// once; CountLinkable, LargestSet, CommonSet, and TopATSOrgs all read from
// that one grouping.
type Index struct {
	// parties is sorted by FQDN, the order Analyze always presented.
	parties []indexParty
}

// indexAcc accumulates one third-party destination during the single
// pass. Category sets are uint64 bitsets: every CatID is an ontology index,
// and the ontology's 35 categories fit.
type indexAcc struct {
	repDest flows.DestID
	bits    uint64
	// multi marks an FQDN carrying several destination roles (possible
	// only in sets merged across services); the representative then needs
	// the exact first-in-key-order selection the string-keyed core made.
	multi bool
}

// byName lists every category ID in name order, and identifiers is the
// bitset of the identifier categories; both are fixed with the ontology.
var byName, identifiers = func() ([]flows.CatID, uint64) {
	cats := ontology.Categories()
	if len(cats) > 64 {
		panic("linkability: category bitsets hold at most 64 categories")
	}
	ids := make([]flows.CatID, len(cats))
	var idents uint64
	for i := range cats {
		ids[i] = flows.CatID(i)
		if cats[i].IsIdentifier() {
			idents |= 1 << i
		}
	}
	sort.Slice(ids, func(i, j int) bool { return cats[ids[i]].Name < cats[ids[j]].Name })
	return ids, idents
}()

// indexState accumulates the single pass over a set's packed keys
// (accumulate, then represent for the rare multi-role FQDNs, then finish).
// FQDNs and destinations are IDs of the set's own table, tab.
type indexState struct {
	tab      *flows.Table
	byFQDN   map[uint32]indexAcc
	anyMulti bool
	minKey   map[uint32]uint64
}

// NewIndex builds the index in a single pass over the set's packed keys
// (plus one extra pass over the rare multi-role FQDNs of merged sets).
func NewIndex(set *flows.Set) *Index {
	st := indexState{tab: set.Table(), byFQDN: make(map[uint32]indexAcc)}
	set.RangeKeys(func(key uint64) { st.accumulate(key) })
	if st.anyMulti {
		set.RangeKeys(func(key uint64) { st.represent(key) })
	}
	return st.finish()
}

// accumulate folds one flow key into the per-FQDN accumulators.
func (st *indexState) accumulate(key uint64) {
	c, d := flows.SplitFlowKey(key)
	if !st.tab.Class(d).IsThirdParty() {
		return
	}
	fid := st.tab.FQDNID(d)
	a, ok := st.byFQDN[fid]
	if !ok {
		a.repDest = d
	} else if d != a.repDest {
		a.multi = true
		st.anyMulti = true
	}
	a.bits |= 1 << c
	st.byFQDN[fid] = a
}

// represent is the second-pass body: representative destination for
// multi-role FQDNs — the one carried by the first flow in key order,
// exactly as the string-keyed Analyze exposed. Needed only over merged
// sets (anyMulti), so the common case never re-streams.
func (st *indexState) represent(key uint64) {
	_, d := flows.SplitFlowKey(key)
	// Same third-party filter as the accumulation pass: a first-party
	// role of the same FQDN must not become the representative (Analyze
	// never saw those flows at all).
	if !st.tab.Class(d).IsThirdParty() {
		return
	}
	fid := st.tab.FQDNID(d)
	if a, ok := st.byFQDN[fid]; !ok || !a.multi {
		return
	}
	if st.minKey == nil {
		st.minKey = map[uint32]uint64{}
	}
	if cur, ok := st.minKey[fid]; !ok || st.tab.KeyLess(key, cur) {
		st.minKey[fid] = key
	}
}

// finish assembles the Index from the accumulated state. Each party's
// category slice comes out in name order by walking byName against its
// bitset.
func (st *indexState) finish() *Index {
	byFQDN := st.byFQDN
	for fid, k := range st.minKey {
		a := byFQDN[fid]
		_, a.repDest = flows.SplitFlowKey(k)
		byFQDN[fid] = a
	}

	// One backing array serves every party's category slice.
	totalCats := 0
	for _, a := range byFQDN {
		totalCats += bits.OnesCount64(a.bits)
	}
	backing := make([]flows.CatID, 0, totalCats)

	ix := &Index{parties: make([]indexParty, 0, len(byFQDN))}
	for _, a := range byFQDN {
		start := len(backing)
		for _, c := range byName {
			if a.bits&(1<<c) != 0 {
				backing = append(backing, c)
			}
		}
		ix.parties = append(ix.parties, indexParty{
			dest:     st.tab.Destination(a.repDest),
			cats:     backing[start:len(backing):len(backing)],
			linkable: a.bits&identifiers != 0 && a.bits&^identifiers != 0,
		})
	}
	sort.Slice(ix.parties, func(i, j int) bool { return ix.parties[i].dest.FQDN < ix.parties[j].dest.FQDN })
	return ix
}

// types materializes a party's category set.
func (p *indexParty) types() []*ontology.Category {
	out := make([]*ontology.Category, len(p.cats))
	for i, c := range p.cats {
		out[i] = flows.CategoryByID(c)
	}
	return out
}

// Parties materializes the full third-party view, sorted by FQDN — the
// Analyze-compatible representation.
func (ix *Index) Parties() []Party {
	out := make([]Party, len(ix.parties))
	for i := range ix.parties {
		p := &ix.parties[i]
		out[i] = Party{
			Dest:     p.dest,
			Types:    p.types(),
			Linkable: p.linkable,
		}
	}
	return out
}

// CountLinkable returns the Figure 3 statistic: the number of third-party
// domains sent linkable data.
func (ix *Index) CountLinkable() int {
	n := 0
	for i := range ix.parties {
		if ix.parties[i].linkable {
			n++
		}
	}
	return n
}

// LargestSet returns the Figure 4 statistic: the size of the largest
// linkable data type set, along with the types of one maximal set (the
// first maximal party in FQDN order, as before).
func (ix *Index) LargestSet() (int, []*ontology.Category) {
	var best *indexParty
	for i := range ix.parties {
		p := &ix.parties[i]
		if !p.linkable {
			continue
		}
		if best == nil || len(p.cats) > len(best.cats) {
			best = p
		}
	}
	if best == nil {
		return 0, nil
	}
	return len(best.cats), best.types()
}

// CommonSet returns the most frequent linkable data type set across
// parties, with its frequency. Set keys are built with one pre-sized
// write per party instead of repeated concatenation.
func (ix *Index) CommonSet() ([]string, int) {
	counts := map[string]int{}
	rep := map[string][]string{}
	for i := range ix.parties {
		p := &ix.parties[i]
		if !p.linkable {
			continue
		}
		names := make([]string, len(p.cats))
		size := 0
		for j, c := range p.cats {
			names[j] = flows.CategoryByID(c).Name
			size += len(names[j]) + 1
		}
		var b strings.Builder
		b.Grow(size)
		for _, n := range names {
			b.WriteString(n)
			b.WriteByte('|')
		}
		key := b.String()
		counts[key]++
		rep[key] = names
	}
	bestKey, bestN := "", 0
	for k, n := range counts {
		if n > bestN || (n == bestN && k < bestKey) {
			bestKey, bestN = k, n
		}
	}
	return rep[bestKey], bestN
}

// OrgCount is an organization's linkable-flow frequency (Figure 5).
type OrgCount struct {
	Organization string
	// Flows counts linkable data flows (category × destination pairs)
	// toward the organization's ATS domains.
	Flows int
	// Domains lists the distinct ATS FQDNs involved.
	Domains []string
}

// TopATSOrgs returns the Figure 5 statistic: the organizations owning the
// third-party ATS domains that received linkable data, ranked by flow
// count, at most n entries (0 = unlimited). Owners are the ones each
// destination recorded when it was resolved (Destination.Owner), so a
// result decoded from a snapshot is attributed as it was audited, whatever
// the reading process's entity registry holds.
func (ix *Index) TopATSOrgs(n int) []OrgCount {
	flowCount := map[string]int{}
	domSet := map[string]map[string]bool{}
	for i := range ix.parties {
		p := &ix.parties[i]
		if !p.linkable || p.dest.Class != flows.ThirdPartyATS {
			continue
		}
		org := p.dest.Owner
		flowCount[org] += len(p.cats)
		if domSet[org] == nil {
			domSet[org] = map[string]bool{}
		}
		domSet[org][p.dest.FQDN] = true
	}
	out := make([]OrgCount, 0, len(flowCount))
	for org, c := range flowCount {
		oc := OrgCount{Organization: org, Flows: c}
		for d := range domSet[org] {
			oc.Domains = append(oc.Domains, d)
		}
		sort.Strings(oc.Domains)
		out = append(out, oc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flows != out[j].Flows {
			return out[i].Flows > out[j].Flows
		}
		return out[i].Organization < out[j].Organization
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Analyze computes the third-party linkability view of one trace's flows.
func Analyze(set *flows.Set) []Party {
	return NewIndex(set).Parties()
}

// Linkable filters the linkable parties.
func Linkable(parties []Party) []Party {
	var out []Party
	for _, p := range parties {
		if p.Linkable {
			out = append(out, p)
		}
	}
	return out
}

// CountLinkable returns the Figure 3 statistic: the number of third-party
// domains sent linkable data in one trace.
func CountLinkable(set *flows.Set) int {
	return NewIndex(set).CountLinkable()
}

// LargestSet returns the Figure 4 statistic: the size of the largest
// linkable data type set, along with the types of one maximal set.
func LargestSet(set *flows.Set) (int, []*ontology.Category) {
	return NewIndex(set).LargestSet()
}

// CommonSet returns the most frequent linkable data type set across
// parties, with its frequency.
func CommonSet(set *flows.Set) ([]string, int) {
	return NewIndex(set).CommonSet()
}

// TopATSOrgs returns the Figure 5 statistic: the organizations owning the
// third-party ATS domains that received linkable data, ranked by flow
// count, at most n entries.
func TopATSOrgs(set *flows.Set, n int) []OrgCount {
	return NewIndex(set).TopATSOrgs(n)
}
