// Package policy models the privacy-policy disclosures of the audited
// services (as quoted in Section 4.1.2 of the DiffAudit paper, fall-2023
// policies) and checks observed data flows against them. A disclosure is
// modeled as a constraint — classes of flows the policy says should not
// happen — and a finding reports every observed flow that contradicts it.
package policy

import (
	"fmt"

	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
)

// Constraint is one falsifiable policy statement: the quoted disclosure
// plus the flow shapes that would contradict it.
type Constraint struct {
	// Quote is the policy text, as cited in the paper.
	Quote string
	// Personas selects the personas the statement covers by attribute
	// (age bracket, consent state), so disclosures about "users under 16"
	// cover custom personas too. When nil, Traces is used instead.
	Personas func(flows.Persona) bool
	// Traces is the explicit persona list the statement covers; ignored
	// when Personas is set.
	Traces []flows.TraceCategory
	// Classes are the destination classes the statement forbids.
	Classes []flows.DestClass
	// Groups optionally narrows the statement to level-2 groups; empty
	// means any data type.
	Groups []ontology.Level2
}

// covered returns the personas a constraint audits, in evaluation order:
// the explicit Traces list, or — for predicate constraints — the audit's
// personas in column order (flows.PersonaLess).
func (c *Constraint) covered(byTrace map[flows.TraceCategory]*flows.Set) []flows.TraceCategory {
	if c.Personas == nil {
		return c.Traces
	}
	out := make([]flows.Persona, 0, len(byTrace))
	for p := range byTrace {
		if c.Personas(p) {
			out = append(out, p)
		}
	}
	return flows.SortPersonas(out)
}

// Model is a service's disclosed-practice model.
type Model struct {
	Service string
	// Constraints are the falsifiable statements; a service whose policy
	// is consistent with its traffic (the paper found only YouTube's to
	// be) simply has no violated constraints.
	Constraints []Constraint
}

// Violation is one flow contradicting one constraint.
type Violation struct {
	Constraint Constraint
	Trace      flows.TraceCategory
	Flow       flows.Flow
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%s trace: %s → %s (%s) contradicts %q",
		v.Trace, v.Flow.Category.Name, v.Flow.Dest.FQDN, v.Flow.Dest.Class, clip(v.Constraint.Quote))
}

func clip(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

// Audit evaluates a model against per-trace flow sets, returning every
// contradiction. Consistent policies return nil.
func Audit(m *Model, byTrace map[flows.TraceCategory]*flows.Set) []Violation {
	var out []Violation
	for _, c := range m.Constraints {
		for _, t := range c.covered(byTrace) {
			set := byTrace[t]
			if set == nil {
				continue
			}
			for _, f := range set.Flows() {
				if !classIn(f.Dest.Class, c.Classes) {
					continue
				}
				if len(c.Groups) > 0 && !groupIn(f.Category.Group, c.Groups) {
					continue
				}
				out = append(out, Violation{Constraint: c, Trace: t, Flow: f})
			}
		}
	}
	return out
}

func classIn(c flows.DestClass, set []flows.DestClass) bool {
	for _, x := range set {
		if x == c {
			return true
		}
	}
	return false
}

func groupIn(g ontology.Level2, set []ontology.Level2) bool {
	for _, x := range set {
		if x == g {
			return true
		}
	}
	return false
}

// Models returns the fall-2023 policy models for the six audited services,
// built from the disclosures quoted in the paper. Constraints predicate on
// persona attributes matching the disclosure's own audience language
// ("under 16", "children", "all users"), so custom personas are
// covered by the same quoted statements; for the four built-in personas
// the coverage is identical to the original per-trace lists.
func Models() map[string]*Model {
	under13 := func(p flows.Persona) bool { return p.AgeBelow(13) }
	under16 := func(p flows.Persona) bool { return p.AgeBelow(16) }
	under18 := func(p flows.Persona) bool { return p.AgeBelow(18) }
	preConsent := func(p flows.Persona) bool { return !p.LoggedIn() }
	everyone := func(flows.Persona) bool { return true }
	return map[string]*Model{
		"Duolingo": {
			Service: "Duolingo",
			Constraints: []Constraint{{
				Quote: "For users under 16, advertisements are set to non-personalised " +
					"and third-party behavioral tracking is disabled.",
				Personas: under16,
				Classes:  []flows.DestClass{flows.ThirdPartyATS},
			}},
		},
		"Minecraft": {
			Service: "Minecraft",
			Constraints: []Constraint{{
				Quote: "We do not deliver personalized advertising to children whose " +
					"birthdate in their Microsoft account identifies them as under 18 years of age.",
				Personas: under18,
				Classes:  []flows.DestClass{flows.ThirdPartyATS},
			}},
		},
		"Quizlet": {
			Service: "Quizlet",
			Constraints: []Constraint{{
				Quote: "We may use aggregated or de-identified information about children " +
					"for research, analysis, marketing and other commercial purposes. " +
					"(No disclosure covers identifier sharing before consent.)",
				Personas: preConsent,
				Classes:  []flows.DestClass{flows.ThirdParty, flows.ThirdPartyATS},
				Groups:   []ontology.Level2{ontology.PersonalIdentifiers, ontology.DeviceIdentifiers},
			}},
		},
		"Roblox": {
			Service: "Roblox",
			Constraints: []Constraint{
				{
					Quote:    "We may share non-identifying data of all users regardless of their age.",
					Personas: everyone,
					Classes:  []flows.DestClass{flows.ThirdParty, flows.ThirdPartyATS},
					Groups:   []ontology.Level2{ontology.PersonalIdentifiers, ontology.DeviceIdentifiers},
				},
				{
					Quote:    "We have no actual knowledge of selling or sharing the Personal Information of minors under 16 years of age.",
					Personas: under16,
					Classes:  []flows.DestClass{flows.ThirdPartyATS},
				},
			},
		},
		"TikTok": {
			Service: "TikTok",
			Constraints: []Constraint{{
				Quote: "TikTok does not sell information from children to third parties and " +
					"does not share such information with third parties for the purposes of " +
					"cross-context behavioral advertising.",
				Personas: under13,
				Classes:  []flows.DestClass{flows.ThirdPartyATS},
			}},
		},
		// YouTube/YouTube Kids disclose the collection the paper observed
		// ("internal operational purposes", "contextual advertising,
		// including ad frequency capping"), and no third-party flows were
		// seen: no falsifiable constraint is violated.
		"YouTube": {Service: "YouTube"},
	}
}
