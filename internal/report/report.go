// Package report renders the DiffAudit paper's tables and figures as text
// from pipeline results: the dataset summary (Table 1), the observed
// ontology (Table 2), classifier validation (Table 3), the per-service flow
// grid (Table 4), the full ontology (Table 5), and the linkability figures
// (Figures 3-5).
package report

import (
	"fmt"
	"sort"
	"strings"

	"diffaudit/internal/classifier"
	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/linkability"
	"diffaudit/internal/ontology"
)

// Table1 renders the dataset summary.
func Table1(results []*core.ServiceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Network Traffic Dataset Summary\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %10s %10s\n", "Service", "Domains", "eSLDs", "Packets", "TCP Flows")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %8d %8d %10d %10d\n",
			r.Identity.Name, len(r.Domains), len(r.ESLDs), r.Packets, r.TCPFlows)
	}
	tot := core.Totals(results)
	fmt.Fprintf(&b, "%-12s %8d %8d %10d %10d   (unique totals)\n",
		"Total", tot.Domains, tot.ESLDs, tot.Packets, tot.TCPFlows)
	fmt.Fprintf(&b, "Unique raw data types: %d; unique data flows: %d\n",
		tot.UniqueRawKeys, tot.UniqueFlows)
	return b.String()
}

// observedCategories computes which level-3 categories actually appear in
// the results — the '*' markers of Table 2 are derived, not assumed.
func observedCategories(results []*core.ServiceResult) map[string]bool {
	seen := map[string]bool{}
	for _, r := range results {
		for _, t := range r.Personas() {
			for _, f := range r.ByTrace[t].Flows() {
				seen[f.Category.Name] = true
			}
		}
	}
	return seen
}

// Table2 renders the data type categories with observation markers derived
// from the results.
func Table2(results []*core.ServiceResult) string {
	seen := observedCategories(results)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Data Type Categories From Our Ontology ('*' = observed)\n")
	for _, l1 := range []ontology.Level1{ontology.Identifiers, ontology.PersonalInformation} {
		fmt.Fprintf(&b, "\n%s\n", l1)
		for _, g := range ontology.Level2Groups() {
			if g.Level1() != l1 {
				continue
			}
			for _, c := range ontology.CategoriesInGroup(g) {
				marker := " "
				if seen[c.Name] {
					marker = "*"
				}
				fmt.Fprintf(&b, "  %-45s%s\n", c.Name, marker)
			}
		}
	}
	n := 0
	for range seen {
		n++
	}
	fmt.Fprintf(&b, "\nObserved: %d of %d categories\n", n, len(ontology.Categories()))
	return b.String()
}

// Table3 renders classifier validation rows.
func Table3(rows []classifier.ValidationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: GPT-4-style Classification Model Sample Validation Results\n")
	fmt.Fprintf(&b, "%-14s %9s", "Temp/Method", "Accuracy")
	for _, th := range classifier.Thresholds() {
		fmt.Fprintf(&b, "  Conf%.1f Acc  Labeled", th)
	}
	fmt.Fprintln(&b)
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s %9.2f", row.Name, row.Accuracy)
		for _, th := range classifier.Thresholds() {
			r := row.ByThreshold[th]
			fmt.Fprintf(&b, "  %10.2f  %7d", r.Accuracy, r.Labeled)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Table4 renders the per-service flow grid with the paper's cell symbols
// (● both platforms, ◐ website only, ◑ mobile only, — neither). Columns
// are the personas each result observed, in column order — for built-in
// traffic that is exactly the paper's four trace columns.
func Table4(results []*core.ServiceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Data Flows Observed by Age Category for Website and Mobile Platforms\n")
	fmt.Fprintf(&b, "(● both, ◐ website only, ◑ mobile only, — not observed)\n\n")
	for _, r := range results {
		grid := core.Grid(r)
		personas := r.Personas()
		fmt.Fprintf(&b, "%s\n", r.Identity.Name)
		fmt.Fprintf(&b, "  %-28s", "Data Type")
		for _, t := range personas {
			fmt.Fprintf(&b, "%-14s", t)
		}
		fmt.Fprintln(&b)
		fmt.Fprintf(&b, "  %-28s", "")
		for range personas {
			fmt.Fprintf(&b, "%-14s", "C1 CA S3 SA")
		}
		fmt.Fprintln(&b)
		for _, g := range ontology.FlowGroups() {
			fmt.Fprintf(&b, "  %-28s", g)
			for _, t := range personas {
				var cells []string
				for _, c := range flows.DestClasses() {
					cells = append(cells, grid[g][c][t].Symbol())
				}
				fmt.Fprintf(&b, "%-14s", strings.Join(cells, "  "))
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Table5 renders the full four-level ontology.
func Table5() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Data Type Ontology for Data Type Classification (COPPA/CCPA)\n")
	for _, l1 := range []ontology.Level1{ontology.Identifiers, ontology.PersonalInformation} {
		fmt.Fprintf(&b, "\n== %s ==\n", l1)
		for _, g := range ontology.Level2Groups() {
			if g.Level1() != l1 {
				continue
			}
			fmt.Fprintf(&b, "\n  %s\n", g)
			for _, c := range ontology.CategoriesInGroup(g) {
				fmt.Fprintf(&b, "    %-42s %s\n", c.Name, strings.Join(c.Examples, ", "))
			}
		}
	}
	return b.String()
}

// bar renders a proportional text bar.
func bar(n, max, width int) string {
	if max == 0 {
		return ""
	}
	w := n * width / max
	if n > 0 && w == 0 {
		w = 1
	}
	return strings.Repeat("█", w)
}

// Figure3 renders the linkable third-party counts per service and trace.
func Figure3(results []*core.ServiceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: Counts of Third Parties Sent Linkable Data Types\n")
	max := 1
	counts := map[string][]int{}
	for _, r := range results {
		row := make([]int, 0, len(r.ByTrace))
		for _, t := range r.Personas() {
			n := linkability.CountLinkable(r.ByTrace[t])
			row = append(row, n)
			if n > max {
				max = n
			}
		}
		counts[r.Identity.Name] = row
	}
	for _, r := range results {
		row := counts[r.Identity.Name]
		fmt.Fprintf(&b, "\n%s\n", r.Identity.Name)
		for i, t := range r.Personas() {
			fmt.Fprintf(&b, "  %-11s %4d %s\n", t, row[i], bar(row[i], max, 40))
		}
	}
	return b.String()
}

// Figure4 renders the largest linkable set sizes per service and trace.
func Figure4(results []*core.ServiceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Sizes of Largest Sets of Linkable Data Types\n")
	for _, r := range results {
		fmt.Fprintf(&b, "\n%s\n", r.Identity.Name)
		for _, t := range r.Personas() {
			n, types := linkability.LargestSet(r.ByTrace[t])
			fmt.Fprintf(&b, "  %-11s %3d %s\n", t, n, bar(n, 15, 30))
			if n > 0 && t == flows.Adult {
				var names []string
				for _, c := range types {
					names = append(names, c.Name)
				}
				sort.Strings(names)
				fmt.Fprintf(&b, "              set: %s\n", strings.Join(names, ", "))
			}
		}
	}
	return b.String()
}

// Figure5 renders the top third-party ATS organizations sent linkable data,
// the alluvial diagram of the paper flattened to ranked rows.
func Figure5(results []*core.ServiceResult, topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: Most Frequent Third Party ATS Organizations Sent Linkable Data\n")
	for _, r := range results {
		fmt.Fprintf(&b, "\n%s\n", r.Identity.Name)
		any := false
		for _, t := range r.Personas() {
			orgs := linkability.TopATSOrgs(r.ByTrace[t], topN)
			if len(orgs) == 0 {
				continue
			}
			any = true
			fmt.Fprintf(&b, "  %s:\n", t)
			for _, o := range orgs {
				fmt.Fprintf(&b, "    %-32s %4d linkable flows via %d domain(s)\n",
					o.Organization, o.Flows, len(o.Domains))
			}
		}
		if !any {
			fmt.Fprintf(&b, "  (no third-party ATS received linkable data)\n")
		}
	}
	return b.String()
}

// DestinationRoles renders the first/third-party × ATS breakdown the paper
// reports in Section 4.2.
func DestinationRoles(results []*core.ServiceResult) string {
	roles := core.DestinationRoles(results)
	var b strings.Builder
	fmt.Fprintf(&b, "Destination roles across the dataset:\n")
	for _, c := range flows.DestClasses() {
		fmt.Fprintf(&b, "  %-16s %4d\n", c, roles[c])
	}
	return b.String()
}
