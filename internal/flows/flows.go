// Package flows constructs DiffAudit data flows: pairs of <data type
// category, destination> extracted from outgoing requests, with
// destinations resolved to first/third party (entity analysis) and ATS /
// non-ATS (block lists). Flows carry platform provenance (website, mobile
// app, or both), the dimension Table 4 of the paper reports.
package flows

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"diffaudit/internal/ats"
	"diffaudit/internal/domains"
	"diffaudit/internal/entity"
	"diffaudit/internal/ontology"
)

// The trace model lives in persona.go: TraceCategory is an alias of the
// open Persona type, and the paper's four trace categories (the three
// logged-in age groups plus the logged-out pre-consent state) are the four
// built-in personas occupying IDs 0-3 in table order.

// TraceCategories returns the paper's four built-in trace categories in
// table order — the order of Tables 1 and 4 and Figures 3-5. Registered
// custom personas are NOT included; use Personas() for the full registry,
// or ServiceResult.Personas for the personas a concrete audit observed.
func TraceCategories() []TraceCategory {
	return BuiltinPersonas()
}

// ParseTrace maps a user-facing trace name (CLI flags, upload form
// fields) to its persona. It accepts every registered persona name and
// alias; for the built-ins that means child, adolescent, teen, adult,
// loggedout, logged-out, logged_out, out — case-insensitive.
func ParseTrace(name string) (TraceCategory, bool) {
	return ParsePersona(name)
}

// Platform is the capture platform.
type Platform int

// Platforms audited by the paper.
const (
	Web Platform = iota
	Mobile
)

// String names the platform.
func (p Platform) String() string {
	if p == Web {
		return "web"
	}
	return "mobile"
}

// PlatformMask records on which platforms a flow was observed.
type PlatformMask uint8

// Platform mask bits.
const (
	OnWeb PlatformMask = 1 << iota
	OnMobile
)

// Mask returns the platform's bit.
func (p Platform) Mask() PlatformMask {
	if p == Web {
		return OnWeb
	}
	return OnMobile
}

// Has reports whether the mask includes the platform.
func (m PlatformMask) Has(p Platform) bool { return m&p.Mask() != 0 }

// Symbol renders the Table 4 cell marker: "●" both, "◐" web-only, "◑"
// mobile-only, "—" neither.
func (m PlatformMask) Symbol() string {
	switch m {
	case OnWeb | OnMobile:
		return "●"
	case OnWeb:
		return "◐"
	case OnMobile:
		return "◑"
	default:
		return "—"
	}
}

// DestClass is the four-way destination classification of the paper:
// first party, first party ATS, third party, third party ATS.
type DestClass int

// Destination classes, in Table 4 column order.
const (
	FirstParty DestClass = iota
	FirstPartyATS
	ThirdParty
	ThirdPartyATS
)

var destNames = [...]string{"Collect 1st", "Collect 1st ATS", "Share 3rd", "Share 3rd ATS"}

// String names the class as a Table 4 column header.
func (d DestClass) String() string {
	if int(d) < len(destNames) {
		return destNames[d]
	}
	return fmt.Sprintf("DestClass(%d)", int(d))
}

// DestClasses returns the four classes in column order.
func DestClasses() []DestClass {
	return []DestClass{FirstParty, FirstPartyATS, ThirdParty, ThirdPartyATS}
}

// IsThirdParty reports whether the class is one of the "share" columns.
func (d DestClass) IsThirdParty() bool { return d == ThirdParty || d == ThirdPartyATS }

// IsATS reports whether the class is an ATS column.
func (d DestClass) IsATS() bool { return d == FirstPartyATS || d == ThirdPartyATS }

// Destination is a resolved packet destination.
type Destination struct {
	FQDN  string
	ESLD  string
	Owner string
	Class DestClass
}

// ResolveDestination classifies an FQDN relative to the audited service.
// First party: the eSLD matches one of the service's own domains, or the
// domain's owner organization equals the service's owner. The ATS flag
// comes from the block-list engine on the FQDN, as in the paper.
func ResolveDestination(serviceOwner string, serviceESLDs []string, fqdn string, engine *ats.Engine) Destination {
	fqdn = strings.ToLower(strings.TrimSpace(fqdn))
	d := Destination{
		FQDN:  fqdn,
		ESLD:  domains.ESLD(fqdn),
		Owner: entity.OwnerName(fqdn),
	}
	first := false
	for _, e := range serviceESLDs {
		if strings.EqualFold(e, d.ESLD) {
			first = true
			break
		}
	}
	if !first && serviceOwner != "" && d.Owner == serviceOwner {
		first = true
	}
	isATS := engine.IsATS(fqdn)
	switch {
	case first && isATS:
		d.Class = FirstPartyATS
	case first:
		d.Class = FirstParty
	case isATS:
		d.Class = ThirdPartyATS
	default:
		d.Class = ThirdParty
	}
	return d
}

// Flow is one data flow: a level-3 data type category observed being sent
// to a destination.
type Flow struct {
	Category *ontology.Category
	Dest     Destination
}

// Key identifies the flow for deduplication: <category, FQDN>.
func (f Flow) Key() string { return f.Category.Name + flowKeySep + f.Dest.FQDN }

// Set accumulates deduplicated flows with platform provenance. Flows are
// stored as packed (category ID, destination ID) keys against the shared
// symbol tables (see symbols.go), so accumulation is allocation-free.
//
// A Set is not safe for concurrent mutation; concurrent readers are fine
// once mutation stops (the pipeline gives each worker a private Set and
// merges single-threaded).
type Set struct {
	flows map[uint64]PlatformMask
	// sorted caches the packed keys in FlowKeyLess order; it is
	// invalidated whenever a new key is inserted and rebuilt lazily by
	// the first sorted read. The atomic pointer lets concurrent
	// post-construction readers share one materialization.
	sorted atomic.Pointer[[]uint64]
}

// NewSet returns an empty flow set.
func NewSet() *Set {
	return &Set{flows: make(map[uint64]PlatformMask)}
}

// NewSetSized returns an empty flow set pre-sized for about n flows,
// avoiding map growth rehashes when the caller knows the workload.
func NewSetSized(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{flows: make(map[uint64]PlatformMask, n)}
}

// Add records a flow observed on a platform, interning its symbols on
// first sight. Hot paths that already hold IDs should call AddIDs.
func (s *Set) Add(f Flow, p Platform) {
	s.AddIDs(InternCategory(f.Category), InternDestination(f.Dest), p)
}

// AddIDs records a flow by its interned IDs — the pipeline's inner loop.
// One map operation, no allocation.
func (s *Set) AddIDs(c CatID, d DestID, p Platform) {
	k := PackFlowKey(c, d)
	n := len(s.flows)
	s.flows[k] |= p.Mask()
	if len(s.flows) != n {
		s.sorted.Store(nil)
	}
}

// AddMask records a flow by its interned IDs with an explicit platform
// mask — the snapshot decoder's inner loop, which replays masks that may
// cover both platforms in one call. A zero mask is a no-op.
func (s *Set) AddMask(c CatID, d DestID, m PlatformMask) {
	if m == 0 {
		return
	}
	k := PackFlowKey(c, d)
	n := len(s.flows)
	s.flows[k] |= m
	if len(s.flows) != n {
		s.sorted.Store(nil)
	}
}

// Merge folds another set into this one. Packed keys are global, so this
// is a direct key-wise mask union.
func (s *Set) Merge(other *Set) {
	if other == nil {
		return
	}
	n := len(s.flows)
	for k, m := range other.flows {
		s.flows[k] |= m
	}
	if len(s.flows) != n {
		s.sorted.Store(nil)
	}
}

// Len returns the number of distinct flows.
func (s *Set) Len() int { return len(s.flows) }

// sortedKeys returns (building and caching on first use) the packed keys
// in FlowKeyLess order — the same order the string-keyed core produced.
func (s *Set) sortedKeys() []uint64 {
	if p := s.sorted.Load(); p != nil {
		return *p
	}
	keys := make([]uint64, 0, len(s.flows))
	for k := range s.flows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return FlowKeyLess(keys[i], keys[j]) })
	s.sorted.Store(&keys)
	return keys
}

// Flows returns the flows sorted by key for deterministic iteration.
func (s *Set) Flows() []Flow {
	keys := s.sortedKeys()
	out := make([]Flow, len(keys))
	for i, k := range keys {
		out[i] = FlowOfKey(k)
	}
	return out
}

// Range calls fn for every flow in unspecified order — the allocation-free
// iteration single-pass aggregates build on.
func (s *Set) Range(fn func(key uint64, m PlatformMask)) {
	for k, m := range s.flows {
		fn(k, m)
	}
}

// RangeKeys calls fn for every flow key in unspecified order — the
// mask-blind variant of Range for consumers (linkability) that never
// look at platforms.
func (s *Set) RangeKeys(fn func(key uint64)) {
	for k := range s.flows {
		fn(k)
	}
}

// RangeSorted calls fn for every flow in deterministic key order without
// materializing Flow values.
func (s *Set) RangeSorted(fn func(key uint64, m PlatformMask)) {
	for _, k := range s.sortedKeys() {
		fn(k, s.flows[k])
	}
}

// Platforms returns the platform mask for a flow key (zero when absent).
// Lookups resolve through the symbol tables without interning, so probing
// for an absent flow stays allocation-free and side-effect-free.
func (s *Set) Platforms(f Flow) PlatformMask {
	c, ok := LookupCategory(f.Category)
	if !ok {
		return 0
	}
	d, ok := LookupDestination(f.Dest)
	if !ok {
		return 0
	}
	return s.flows[PackFlowKey(c, d)]
}

// GroupGrid reduces the set to Table 4 granularity: level-2 data type group
// × destination class → platform mask.
func (s *Set) GroupGrid() map[ontology.Level2]map[DestClass]PlatformMask {
	grid := make(map[ontology.Level2]map[DestClass]PlatformMask)
	for k, m := range s.flows {
		c, d := SplitFlowKey(k)
		g := CategoryByID(c).Group
		if grid[g] == nil {
			grid[g] = make(map[DestClass]PlatformMask)
		}
		grid[g][DestinationSymbols(d).Class] |= m
	}
	return grid
}

// CategoriesToward returns the distinct level-3 categories sent to a
// specific destination FQDN.
func (s *Set) CategoriesToward(fqdn string) []*ontology.Category {
	fid, known := LookupFQDN(fqdn)
	seen := map[CatID]bool{}
	if known {
		for k := range s.flows {
			c, d := SplitFlowKey(k)
			if DestinationSymbols(d).FQDNID == fid {
				seen[c] = true
			}
		}
	}
	out := make([]*ontology.Category, 0, len(seen))
	for c := range seen {
		out = append(out, CategoryByID(c))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Destinations returns every distinct destination in the set, sorted by
// FQDN. When a merged set holds several roles for one FQDN (possible
// across services), the first in flow-key order wins, deterministically.
func (s *Set) Destinations() []Destination {
	seen := map[uint32]Destination{}
	for _, k := range s.sortedKeys() {
		_, d := SplitFlowKey(k)
		in := DestinationSymbols(d)
		if _, ok := seen[in.FQDNID]; !ok {
			seen[in.FQDNID] = DestinationByID(d)
		}
	}
	out := make([]Destination, 0, len(seen))
	for _, d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FQDN < out[j].FQDN })
	return out
}
