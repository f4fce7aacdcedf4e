package lawaudit

import (
	"fmt"

	"diffaudit/internal/flows"
)

// The paper frames its data flow audit as "a special case of appropriate
// information flows in the contextual integrity framework" (Nissenbaum).
// This file makes that framing executable: every data flow maps to a CI
// tuple — sender, recipient, subject, information type, transmission
// principle — and an appropriateness verdict under the norms the active
// scenario's rule packs declare (CINorm/ConsentNorm in rulepack.go). The
// default COPPA+CCPA scenario reproduces the paper's verdicts exactly.

// CITuple is a contextual-integrity information flow description.
type CITuple struct {
	// Sender is the party transmitting (the service acting on the device).
	Sender string
	// Recipient is the receiving party (destination owner, qualified by
	// its destination class).
	Recipient string
	// Subject is the person the information is about.
	Subject string
	// InformationType is the ontology category.
	InformationType string
	// TransmissionPrinciple is the consent state governing the flow.
	TransmissionPrinciple string
}

// Verdict grades a flow's appropriateness under the contextual norms the
// active rule packs encode.
type Verdict int

// Verdicts.
const (
	Appropriate Verdict = iota
	Questionable
	Inappropriate
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Appropriate:
		return "appropriate"
	case Questionable:
		return "questionable"
	default:
		return "inappropriate"
	}
}

// CIAssessment is one flow with its tuple and verdict.
type CIAssessment struct {
	Tuple   CITuple
	Flow    flows.Flow
	Trace   flows.Persona
	Verdict Verdict
	Reason  string
}

// TupleFor renders the CI tuple for a flow under the scenario's consent
// norms: the subject comes from the persona's record, the transmission
// principle from the packs.
func (sc *Scenario) TupleFor(service string, p flows.Persona, f flows.Flow) CITuple {
	return CITuple{
		Sender:                service,
		Recipient:             fmt.Sprintf("%s (%s)", f.Dest.Owner, f.Dest.Class),
		Subject:               p.Subject(),
		InformationType:       f.Category.Name,
		TransmissionPrinciple: sc.Principle(p),
	}
}

// CIAnalysis assesses every flow of every persona against the scenario's
// CI norms.
func (sc *Scenario) CIAnalysis(service string, byTrace map[flows.Persona]*flows.Set) []CIAssessment {
	var out []CIAssessment
	for _, t := range personaOrder(byTrace) {
		set := byTrace[t]
		if set == nil {
			continue
		}
		for _, f := range set.Flows() {
			v, reason := sc.judge(t, f)
			out = append(out, CIAssessment{
				Tuple:   sc.TupleFor(service, t, f),
				Flow:    f,
				Trace:   t,
				Verdict: v,
				Reason:  reason,
			})
		}
	}
	return out
}

// CIAnalysis assesses every flow of every persona under the default
// COPPA+CCPA scenario.
func CIAnalysis(service string, byTrace map[flows.Persona]*flows.Set) []CIAssessment {
	return DefaultScenario().CIAnalysis(service, byTrace)
}

// CISummary counts assessments per verdict.
func CISummary(assessments []CIAssessment) map[Verdict]int {
	out := map[Verdict]int{}
	for _, a := range assessments {
		out[a.Verdict]++
	}
	return out
}
