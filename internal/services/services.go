// Package services defines the behavior profiles of the six general
// audience services the DiffAudit paper audits. Each profile is calibrated
// from the paper's published observations — the Table 4 flow grid, the
// Table 1 dataset summary, and the linkability results of Figures 3-5 —
// and drives the traffic synthesizer, which substitutes for live data
// collection (see DESIGN.md). The audit pipeline never reads these
// profiles; it re-derives everything from the generated traffic.
package services

import (
	"fmt"
	"strings"

	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
)

// Table1Row is a dataset-summary calibration target (Table 1).
type Table1Row struct {
	Domains, ESLDs, Packets, TCPFlows int
}

// GridCell addresses one cell family of the Table 4 grid.
type GridCell struct {
	Group ontology.Level2
	Class flows.DestClass
}

// Grid holds the Table 4 presence masks: for each level-2 group and
// destination class, one platform mask per trace category.
type Grid map[GridCell][4]flows.PlatformMask

// Mask returns the platform mask for a cell and built-in trace category.
func (g Grid) Mask(group ontology.Level2, class flows.DestClass, t flows.TraceCategory) flows.PlatformMask {
	return g[GridCell{group, class}][t.BuiltinIndex()]
}

// Spec is a complete service profile.
type Spec struct {
	// Name as printed in the paper's tables.
	Name string
	// Owner is the parent organization (entity dataset name).
	Owner string
	// FirstPartyESLDs are the service's own registrable domains.
	FirstPartyESLDs []string
	// Table1 is the calibration row from Table 1.
	Table1 Table1Row
	// Grid is the Table 4 flow grid.
	Grid Grid
	// LinkableParties is Figure 3: the number of third-party domains sent
	// linkable data per trace category (child, adolescent, adult, out).
	LinkableParties [4]int
	// LargestSet is Figure 4: the size of the largest linkable data type
	// set per trace category.
	LargestSet [4]int
	// FirstPartyFQDNCount sets how many first-party FQDNs the synthesizer
	// fabricates (subdomains over FirstPartyESLDs).
	FirstPartyFQDNCount int
	// FirstPartyATSFQDNs are first-party telemetry hosts (block-listed).
	FirstPartyATSFQDNs []string
	// SharedThirdParties are curated cross-service destinations (exact
	// FQDNs shared with other services, per the overlap plan in DESIGN.md).
	SharedThirdParties []string
	// UniqueThirdESLDs / UniqueThirdFQDNs size the service-specific
	// procedural third-party pool.
	UniqueThirdESLDs, UniqueThirdFQDNs int
	// UniqueThirdATSFraction is the fraction of the procedural pool
	// registered on block lists.
	UniqueThirdATSFraction float64
	// NoiseKeys is the number of opaque sub-threshold data types planted
	// in this service's payloads (the paper's long tail of strings "with
	// internal meaning known only to the app developers").
	NoiseKeys int
}

// grid builds a Grid from the compact string encoding used in table.go:
// per (group, class) a 4-character string over {B,W,M,-} for the child,
// adolescent, adult, and logged-out traces.
func grid(rows map[ontology.Level2][4]string) Grid {
	g := make(Grid)
	for group, classes := range rows {
		for ci, enc := range classes {
			if len(enc) != 4 {
				panic(fmt.Sprintf("services: grid encoding %q must have 4 symbols", enc))
			}
			var masks [4]flows.PlatformMask
			for ti, ch := range enc {
				switch ch {
				case 'B':
					masks[ti] = flows.OnWeb | flows.OnMobile
				case 'W':
					masks[ti] = flows.OnWeb
				case 'M':
					masks[ti] = flows.OnMobile
				case '-':
					masks[ti] = 0
				default:
					panic(fmt.Sprintf("services: bad grid symbol %q", ch))
				}
			}
			g[GridCell{group, flows.DestClass(ci)}] = masks
		}
	}
	return g
}

// All returns the six service profiles in the paper's table order.
func All() []*Spec { return allSpecs }

// ByName returns a profile by (case-insensitive) name.
func ByName(name string) (*Spec, bool) {
	for _, s := range allSpecs {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return nil, false
}

// PreferenceOrder is the canonical ordering of observed level-3 categories
// used when composing linkable data type sets: identifiers first, then the
// personal-information categories in descending prevalence. The first 13
// entries match the largest set the paper reports for Quizlet's adult trace.
func PreferenceOrder() []*ontology.Category {
	names := []string{
		"Aliases",
		"Name",
		"Login Information",
		"Reasonably Linkable Personal Identifiers",
		"Device Software Identifiers",
		"Device Information",
		"Network Connection Information",
		"Language",
		"App or Service Usage",
		"Service Information",
		"Products and Advertising",
		"Account Settings",
		"Location Time",
		"Coarse Geolocation",
		"Contact Information",
		"Device Hardware Identifiers",
		"Age",
		"Gender/Sex",
		"Inferences About Users",
	}
	out := make([]*ontology.Category, 0, len(names))
	for _, n := range names {
		c, ok := ontology.Lookup(n)
		if !ok {
			panic("services: unknown category " + n)
		}
		out = append(out, c)
	}
	return out
}
