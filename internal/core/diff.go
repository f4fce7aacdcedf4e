package core

import (
	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
)

// FlowDiff is the result of a differential comparison between two flow
// sets — the paper's core analysis step ("compare the data flows by age
// group", "before and after consent is given").
type FlowDiff struct {
	// OnlyA and OnlyB hold flows present in exactly one set.
	OnlyA, OnlyB []flows.Flow
	// Both holds flows present in both sets.
	Both []flows.Flow
}

// Jaccard returns the similarity of the two sets (1 = identical). The paper
// concludes services barely differentiate age groups; the child/adult
// Jaccard quantifies that.
func (d FlowDiff) Jaccard() float64 {
	union := len(d.OnlyA) + len(d.OnlyB) + len(d.Both)
	if union == 0 {
		return 1
	}
	return float64(len(d.Both)) / float64(union)
}

// Diff compares two flow sets by flow key: the (category, FQDN) pair
// Flow.Key encodes, so destination role differences (possible when sets
// span services) do not make two flows distinct, exactly as with string
// keys. Flows materialize only for the output slices.
func Diff(a, b *flows.Set) FlowDiff {
	d, _ := diff(a, b, true)
	return d
}

// diff pairs the flows of two sets, over any two tables, in one merge of
// their runs (flows.ComparePairs). Each (category, FQDN) pair is one
// stretch of a run, and the stretch's first key is the flow reported for
// it, in the run's order. With keepBoth false the pairs both sets hold are
// only counted, not materialized.
func diff(a, b *flows.Set, keepBoth bool) (d FlowDiff, both int) {
	ta, tb := a.Table(), b.Table()
	ka, kb := a.SortedKeys(), b.SortedKeys()
	for i, j := 0, 0; i < len(ka) || j < len(kb); {
		c := -1
		switch {
		case i == len(ka):
			c = 1
		case j < len(kb):
			c = flows.ComparePairs(ta, ka[i], tb, kb[j])
		}
		switch {
		case c < 0:
			d.OnlyA = append(d.OnlyA, ta.FlowOfKey(ka[i]))
			i = pairEnd(ta, ka, i)
		case c > 0:
			d.OnlyB = append(d.OnlyB, tb.FlowOfKey(kb[j]))
			j = pairEnd(tb, kb, j)
		default:
			if keepBoth {
				d.Both = append(d.Both, ta.FlowOfKey(ka[i]))
			}
			both++
			i, j = pairEnd(ta, ka, i), pairEnd(tb, kb, j)
		}
	}
	return d, both
}

// pairEnd returns the end of the stretch of a run, from i on, holding
// keys[i]'s (category, FQDN) pair: one FQDN in several destination roles.
func pairEnd(t *flows.Table, keys []uint64, i int) int {
	c, d := flows.SplitFlowKey(keys[i])
	for i++; i < len(keys); i++ {
		ci, di := flows.SplitFlowKey(keys[i])
		if ci != c || t.FQDNID(di) != t.FQDNID(d) {
			break
		}
	}
	return i
}

// GridSimilarity compares two flow sets at the paper's Table 4
// granularity (level-2 group × destination class presence), returning the
// fraction of identical cells.
func GridSimilarity(a, b *flows.Set) float64 {
	return a.GroupGrid().Similarity(b.GroupGrid())
}

// Differential compares every persona matched by the given predicate
// against a baseline persona's trace, returning per-persona grid
// similarity (1 = identical processing).
func Differential(r *ServiceResult, baseline flows.Persona, cover func(flows.Persona) bool) map[flows.Persona]float64 {
	out := map[flows.Persona]float64{}
	base := r.ByTrace[baseline]
	if base == nil {
		return out
	}
	for _, t := range r.Personas() {
		if t == baseline || (cover != nil && !cover(t)) {
			continue
		}
		if r.ByTrace[t] == nil {
			continue
		}
		out[t] = GridSimilarity(base, r.ByTrace[t])
	}
	return out
}

// AgeDifferential compares each minor persona (disclosed age bracket
// under 16) against the adult trace — the headline "no differentiation"
// metric. Flow-level identity would under-count: services contact
// different individual trackers per session while exhibiting the same
// processing behavior.
func AgeDifferential(r *ServiceResult) map[flows.Persona]float64 {
	return Differential(r, flows.Adult, func(p flows.Persona) bool { return p.AgeBelow(16) })
}

// PersonaDelta is one persona's longitudinal comparison: how the flows
// observed for that persona changed between an older and a newer audit of
// the same service.
type PersonaDelta struct {
	Persona flows.Persona
	// Added holds flows present only in the newer audit; Removed only in
	// the older one. Both use the (category, FQDN) flow identity, like Diff.
	Added, Removed []flows.Flow
	// Unchanged counts flows present in both audits.
	Unchanged int
	// GridSimilarity is the Table 4 grid similarity between the two audits
	// (1 = identical processing at group × destination-class granularity).
	GridSimilarity float64
	// GridDeltas lists the grid cells that changed.
	GridDeltas []GroupDelta
}

// LongitudinalDiff compares a service against itself over time: the same
// differential machinery the paper applies across personas at one point in
// time (Diff, GridSimilarity, GridDiff), applied per persona across two
// audits — did a finding regress after an app update?
type LongitudinalDiff struct {
	// From and To identify the older and newer audits.
	From, To ServiceIdentity
	// Personas holds one delta per persona present in either audit, in
	// column order (flows.PersonaLess). A persona absent from one side
	// compares against the empty flow set.
	Personas []PersonaDelta
}

// Changed reports whether any persona's flows differ between the audits.
func (d LongitudinalDiff) Changed() bool {
	for _, p := range d.Personas {
		if len(p.Added) > 0 || len(p.Removed) > 0 {
			return true
		}
	}
	return false
}

// Longitudinal diffs two audits of one service, oldest first.
func Longitudinal(from, to *ServiceResult) LongitudinalDiff {
	return LongitudinalFiltered(from, to, nil)
}

// LongitudinalFiltered diffs two audits like Longitudinal, restricted to
// the personas the filter names (nil selects every persona present in
// either audit). The output for the selected personas is identical to the
// unfiltered diff's.
//
// Personas pair by name, the key snapshots store them under: two results
// each own their custom personas' handles, so a decoded audit's "EU Teen"
// is its own handle, not the other audit's. A pair's delta carries the
// older audit's handle when it has the persona. Each result is taken to hold
// one persona per name (ServiceResult.CheckPersonas).
func LongitudinalFiltered(from, to *ServiceResult, only map[string]bool) LongitudinalDiff {
	d := LongitudinalDiff{From: from.Identity, To: to.Identity}
	sets := make(map[string]*[2]*flows.Set, len(from.ByTrace)+len(to.ByTrace))
	var personas []flows.Persona
	for side, r := range [2]*ServiceResult{from, to} {
		for p, set := range r.ByTrace {
			name := p.String()
			if only != nil && !only[name] {
				continue
			}
			pair := sets[name]
			if pair == nil {
				pair = new([2]*flows.Set)
				sets[name] = pair
				personas = append(personas, p)
			}
			pair[side] = set
		}
	}
	flows.SortPersonas(personas)
	empty := flows.NewSet()
	for _, p := range personas {
		a, b := sets[p.String()][0], sets[p.String()][1]
		if a == nil {
			a = empty
		}
		if b == nil {
			b = empty
		}
		fd, unchanged := diff(a, b, false)
		ga, gb := a.GroupGrid(), b.GroupGrid()
		d.Personas = append(d.Personas, PersonaDelta{
			Persona:        p,
			Added:          fd.OnlyB,
			Removed:        fd.OnlyA,
			Unchanged:      unchanged,
			GridSimilarity: ga.Similarity(gb),
			GridDeltas:     gridDeltas(ga, gb),
		})
	}
	return d
}

// PlatformCell is a Table 4 grid cell observed on exactly one platform.
type PlatformCell struct {
	Trace flows.Persona
	Group ontology.Level2
	Class flows.DestClass
}

// PlatformDifference summarizes the paper's "Platform Differences" finding
// at Table 4 granularity: grid cells observed only on the mobile app or
// only on the website.
type PlatformDifference struct {
	MobileOnly []PlatformCell
	WebOnly    []PlatformCell
}

// MobileOnlyAllThirdParty reports whether every mobile-only cell targets a
// third party — the paper's observation ("the observed data flows unique to
// the mobile apps were all related to sharing data with third parties").
func (p PlatformDifference) MobileOnlyAllThirdParty() bool {
	for _, c := range p.MobileOnly {
		if !c.Class.IsThirdParty() {
			return false
		}
	}
	return len(p.MobileOnly) > 0
}

// PlatformDiff extracts the platform-unique grid cells of a service result.
func PlatformDiff(r *ServiceResult) PlatformDifference {
	var out PlatformDifference
	for _, t := range r.Personas() {
		grid := r.ByTrace[t].GroupGrid()
		for _, g := range ontology.Level2Groups() {
			for _, c := range flows.DestClasses() {
				switch grid[g][c] {
				case flows.OnMobile:
					out.MobileOnly = append(out.MobileOnly, PlatformCell{t, g, c})
				case flows.OnWeb:
					out.WebOnly = append(out.WebOnly, PlatformCell{t, g, c})
				}
			}
		}
	}
	return out
}

// GroupDelta describes a grid-level difference between two traces for one
// (group, class) cell.
type GroupDelta struct {
	Group ontology.Level2
	Class flows.DestClass
	// InA and InB report cell presence in each trace.
	InA, InB bool
}

// GridDiff compares two traces at Table 4 granularity, returning only the
// differing cells in (group, class) order.
func GridDiff(a, b *flows.Set) []GroupDelta {
	return gridDeltas(a.GroupGrid(), b.GroupGrid())
}

func gridDeltas(ga, gb flows.Grid) []GroupDelta {
	var out []GroupDelta
	for g := range ga {
		for c := range ga[g] {
			ia, ib := ga[g][c] != 0, gb[g][c] != 0
			if ia != ib {
				out = append(out, GroupDelta{Group: ontology.Level2(g), Class: flows.DestClass(c), InA: ia, InB: ib})
			}
		}
	}
	return out
}
