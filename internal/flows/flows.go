// Package flows constructs DiffAudit data flows: pairs of <data type
// category, destination> extracted from outgoing requests, with
// destinations resolved to first/third party (entity analysis) and ATS /
// non-ATS (block lists). Flows carry platform provenance (website, mobile
// app, or both), the dimension Table 4 of the paper reports.
package flows

import (
	"fmt"
	"slices"
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
// built-in personas, in table order (BuiltinPersonas) — the order of
// Tables 1 and 4 and Figures 3-5.

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
// stored as packed (category ID, destination ID) keys against the set's
// destination Table (see symbols.go), so accumulation is allocation-free.
// The persona sets of one ServiceResult share one table; a set made by
// NewSet owns a fresh one.
//
// A Set is not safe for concurrent mutation, and Add or a Merge of a
// foreign set may also add to the table its sibling sets read. Concurrent
// readers are fine once mutation stops (the pipeline merges
// single-threaded and builds every set of a result on one goroutine).
type Set struct {
	tab   *Table
	flows map[uint64]PlatformMask
	// sorted caches the set's run; any insertion or mask change drops it
	// and the first sorted read rebuilds it. The atomic pointer lets
	// concurrent post-construction readers share one materialization.
	sorted atomic.Pointer[run]
}

// run is a set's flows in KeyLess order, keys[i] observed on masks[i], so
// a sorted walk reads two slices and looks nothing up.
type run struct {
	keys  []uint64
	masks []PlatformMask
}

// NewSet returns an empty flow set over a table of its own.
func NewSet() *Set { return NewTable().NewSet(0) }

// NewSet returns an empty flow set over this table, pre-sized for about n
// flows.
func (t *Table) NewSet(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{tab: t, flows: make(map[uint64]PlatformMask, n)}
}

// Table returns the destination table the set's keys refer to.
func (s *Set) Table() *Table { return s.tab }

// Add records a flow observed on a platform, adding its destination on
// first sight. Its category must be one of the ontology's: Add panics on
// any other, which has no CatID. Hot paths that already hold IDs should
// call AddMask.
func (s *Set) Add(f Flow, p Platform) {
	c, ok := CategoryID(f.Category)
	if !ok {
		panic(fmt.Sprintf("flows: category %q is not in the ontology", f.Category.Name))
	}
	s.AddMask(c, s.tab.Intern(f.Dest), p.Mask())
}

// AddMask records a flow by its category ID and a destination ID of the
// set's table, with an explicit platform mask — the inner loop of the
// pipeline's finalize step, which replays masks that may cover both
// platforms in one call. A zero mask is a no-op. Like Add, it panics on a
// category ID past the ontology: a set holds only ontology categories, so
// each has a rank of its own and each (category, FQDN) pair is one
// contiguous stretch of the set's run.
func (s *Set) AddMask(c CatID, d DestID, m PlatformMask) {
	if CategoryByID(c) == nil {
		panic(fmt.Sprintf("flows: category ID %d is not in the ontology", c))
	}
	if m == 0 {
		return
	}
	s.flows[PackFlowKey(c, d)] |= m
	if s.sorted.Load() != nil {
		s.sorted.Store(nil)
	}
}

// Merge folds another set into this one. Sets over one table (the personas
// of one result) union their keys directly; a foreign set's destinations
// are translated by content, once per distinct destination.
func (s *Set) Merge(other *Set) {
	if other == nil {
		return
	}
	if other.tab == s.tab {
		for k, m := range other.flows {
			s.flows[k] |= m
		}
	} else {
		// remap[d] is the destination's ID in s.tab plus one; zero marks a
		// destination no merged flow has needed yet.
		remap := make([]DestID, other.tab.Len())
		for k, m := range other.flows {
			c, d := SplitFlowKey(k)
			if remap[d] == 0 {
				remap[d] = s.tab.Intern(other.tab.Destination(d)) + 1
			}
			s.flows[PackFlowKey(c, remap[d]-1)] |= m
		}
	}
	s.sorted.Store(nil)
}

// Len returns the number of distinct flows.
func (s *Set) Len() int { return len(s.flows) }

// sortedRun returns (building and caching on first use) the set's run: its
// packed keys in KeyLess order — the same order the string-keyed core
// produced — with their masks.
func (s *Set) sortedRun() *run {
	if r := s.sorted.Load(); r != nil {
		return r
	}
	r := &run{keys: make([]uint64, 0, len(s.flows))}
	for k := range s.flows {
		r.keys = append(r.keys, k)
	}
	slices.SortFunc(r.keys, s.tab.keyCompare)
	r.masks = make([]PlatformMask, len(r.keys))
	for i, k := range r.keys {
		r.masks[i] = s.flows[k]
	}
	s.sorted.Store(r)
	return r
}

// SortedKeys returns the set's packed keys in KeyLess order. The slice is
// the set's cached run, shared by every sorted read: callers must not
// modify it. Operations that walk two sets side by side (core.Diff) merge
// these runs.
func (s *Set) SortedKeys() []uint64 { return s.sortedRun().keys }

// Flows returns the flows sorted by key for deterministic iteration.
func (s *Set) Flows() []Flow {
	keys := s.SortedKeys()
	out := make([]Flow, len(keys))
	for i, k := range keys {
		out[i] = s.tab.FlowOfKey(k)
	}
	return out
}

// Range calls fn for every flow in unspecified order — the allocation-free
// iteration single-pass aggregates build on. Keys resolve through Table.
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
	r := s.sortedRun()
	for i, k := range r.keys {
		fn(k, r.masks[i])
	}
}

// Platforms returns the platform mask of a flow (zero when absent). It is
// a binary search of the sorted keys by content, so probing adds nothing
// to the symbol tables and needs no index on them; loops over a whole set
// should use RangeSorted, which hands out each flow's mask directly.
func (s *Set) Platforms(f Flow) PlatformMask {
	c, ok := CategoryID(f.Category)
	if !ok {
		return 0
	}
	probe := tableEntry{fqdn: f.Dest.FQDN, esld: f.Dest.ESLD, owner: f.Dest.Owner, class: uint8(f.Dest.Class)}
	r := s.sortedRun()
	i, ok := slices.BinarySearchFunc(r.keys, &probe, func(k uint64, p *tableEntry) int {
		kc, kd := SplitFlowKey(k)
		return flowCompare(kc, &s.tab.dests[kd], c, p)
	})
	if !ok {
		return 0
	}
	return r.masks[i]
}

// Grid is a flow set at Table 4 granularity, indexed [group][class]: for
// each level-2 data type group and destination class, the platforms any
// flow of that cell was observed on (zero for an empty cell). Its bounds
// are the last group and the last class.
type Grid [ontology.UserInterestsAndBehavior + 1][ThirdPartyATS + 1]PlatformMask

// GroupGrid reduces the set to Table 4 granularity in one walk of its run.
func (s *Set) GroupGrid() Grid {
	var g Grid
	r := s.sortedRun()
	for i, k := range r.keys {
		c, d := SplitFlowKey(k)
		g[CategoryByID(c).Group][s.tab.Class(d)] |= r.masks[i]
	}
	return g
}

// Similarity returns the fraction of the paper's Table 4 cells (the
// ontology.FlowGroups rows × the four classes) on which two grids agree
// about presence: 1 when the same cells hold flows.
func (g Grid) Similarity(h Grid) float64 {
	same, total := 0, 0
	for _, l := range ontology.FlowGroups() {
		for c := range g[l] {
			total++
			if (g[l][c] != 0) == (h[l][c] != 0) {
				same++
			}
		}
	}
	return float64(same) / float64(total)
}

// Destinations returns every distinct destination in the set, sorted by
// FQDN. When a merged set holds several roles for one FQDN (possible
// across services), the first in flow-key order wins, deterministically.
func (s *Set) Destinations() []Destination {
	seen := map[uint32]bool{}
	var out []Destination
	for _, k := range s.SortedKeys() {
		_, d := SplitFlowKey(k)
		if fid := s.tab.FQDNID(d); !seen[fid] {
			seen[fid] = true
			out = append(out, s.tab.Destination(d))
		}
	}
	slices.SortFunc(out, func(a, b Destination) int { return strings.Compare(a.FQDN, b.FQDN) })
	return out
}
