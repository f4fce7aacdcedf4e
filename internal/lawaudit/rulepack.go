package lawaudit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"diffaudit/internal/flows"
	"diffaudit/internal/linkability"
	"diffaudit/internal/policy"
)

// The scenario engine. A regulation is expressed as a Pack: a set of Rules
// (what flows are problematic, declared as data over persona attributes and
// destination classes), CI norms (how to grade a flow's contextual
// appropriateness), and consent norms (the transmission principle each
// persona's flows travel under). A Scenario is an ordered list of packs
// evaluated together; the default scenario holds the paper's COPPA and
// CCPA packs and reproduces the hard-wired engine byte for byte.
//
// Rules predicate on persona ATTRIBUTES (age bracket, consent state, tags)
// rather than on persona identities, so a pack written today covers
// personas registered tomorrow: a GDPR pack with age-of-consent 15 flags a
// custom "EU teen (13-14)" persona without either knowing about the other.

// PersonaPredicate selects the personas a rule, CI norm, or consent norm
// covers. A nil predicate matches every persona.
type PersonaPredicate func(flows.Persona) bool

// Stage orders rule evaluation across packs: all pre-consent rules run
// before all minor-sharing rules, and so on, regardless of which pack
// declared them. Within a stage, rules run in pack order, then declaration
// order. This interleaving (not pack-major evaluation) is what keeps the
// default scenario's finding order identical to the original engine's.
type Stage int

// Evaluation stages, in order.
const (
	StagePreConsent Stage = iota
	StageMinorSharing
	StageDifferentiation
	StageLinkability
	StagePolicy
	stageCount
)

// RuleKind selects a rule's evaluator.
type RuleKind int

// Rule kinds.
const (
	// FlowRule flags every flow of a matching persona whose destination
	// class is listed in Rule.Classes.
	FlowRule RuleKind = iota
	// GridDivergenceRule compares each matching persona's flow grid
	// against a baseline persona's grid and fires when the similarity
	// ratio is at least Rule.MinSimilarity.
	GridDivergenceRule
	// LinkabilityRule fires when a matching persona's trace sent linkable
	// data (identifiers plus personal information) to third parties.
	LinkabilityRule
	// PolicyRule checks observed flows against the service's modeled
	// privacy-policy disclosures. Evaluated once per audit, not per
	// persona.
	PolicyRule
)

// Rule is one audit rule, declared as data.
type Rule struct {
	// Name identifies the rule in findings ("minor-ats-sharing").
	Name string
	// Stage orders evaluation across packs.
	Stage Stage
	// Kind selects the evaluator.
	Kind RuleKind
	// Severity grades the resulting findings.
	Severity Severity
	// Personas selects the personas the rule audits (nil = all).
	Personas PersonaPredicate
	// Classes lists the destination classes a FlowRule flags.
	Classes []flows.DestClass
	// Detail is the finding text. GridDivergenceRule formats it with the
	// similarity percentage (%d); LinkabilityRule with the party count
	// (%d); PolicyRule with the flow count (%d) and disclosure quote (%q).
	Detail string
	// Baseline selects the comparison persona for GridDivergenceRule (the
	// first matching persona, in column order, with a non-empty trace).
	Baseline PersonaPredicate
	// MinSimilarity is the grid-similarity ratio at or above which a
	// GridDivergenceRule fires.
	MinSimilarity float64
}

// CINorm grades the contextual appropriateness of flows it covers. Norms
// are consulted in pack order, then declaration order; the first norm
// whose persona predicate and class list match decides the verdict.
type CINorm struct {
	Personas PersonaPredicate
	// Classes limits the norm to destination classes (nil = any).
	Classes []flows.DestClass
	Verdict Verdict
	Reason  string
}

// ConsentNorm names the transmission principle governing a persona's
// flows ("verifiable parental opt-in consent (COPPA)").
type ConsentNorm struct {
	Personas  PersonaPredicate
	Principle string
}

// Pack is one regulation's rules, declared as data.
type Pack struct {
	// Name identifies the pack ("coppa", "ccpa", "gdpr"), lowercase;
	// ScenarioFor refuses a second pack of one name.
	Name string
	// Law is the statute citation findings carry.
	Law Law
	// Rules are the audit rules, in declaration order.
	Rules []Rule
	// CINorms grade contextual appropriateness.
	CINorms []CINorm
	// ConsentNorms name per-persona transmission principles.
	ConsentNorms []ConsentNorm
}

// Scenario is an ordered set of packs evaluated together.
type Scenario struct {
	Packs []*Pack
}

// DefaultScenario returns the paper's scenario: the COPPA and CCPA packs,
// in that order. Its output is identical to the pre-refactor hard-wired
// engine on any input.
func DefaultScenario() *Scenario {
	return &Scenario{Packs: []*Pack{coppaPack, ccpaPack}}
}

// personaOrder returns the personas present in an audit in column order
// (flows.PersonaLess) — the order reports use, and the order rule evaluators
// iterate for deterministic findings.
func personaOrder(byTrace map[flows.Persona]*flows.Set) []flows.Persona {
	out := make([]flows.Persona, 0, len(byTrace))
	for p := range byTrace {
		out = append(out, p)
	}
	return flows.SortPersonas(out)
}

func classIn(c flows.DestClass, set []flows.DestClass) bool {
	for _, x := range set {
		if x == c {
			return true
		}
	}
	return false
}

func matches(pred PersonaPredicate, p flows.Persona) bool {
	return pred == nil || pred(p)
}

// Audit evaluates every rule of every pack over a service's per-persona
// flow sets, returning findings stably sorted by severity.
func (sc *Scenario) Audit(service string, byTrace map[flows.Persona]*flows.Set) []Finding {
	personas := personaOrder(byTrace)
	var out []Finding
	for stage := Stage(0); stage < stageCount; stage++ {
		for _, pk := range sc.Packs {
			for i := range pk.Rules {
				r := &pk.Rules[i]
				if r.Stage != stage {
					continue
				}
				out = append(out, evalRule(pk, r, service, personas, byTrace)...)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Severity > out[j].Severity })
	return out
}

// evalRule dispatches one rule to its evaluator.
func evalRule(pk *Pack, r *Rule, service string, personas []flows.Persona, byTrace map[flows.Persona]*flows.Set) []Finding {
	switch r.Kind {
	case FlowRule:
		return evalFlowRule(pk, r, service, personas, byTrace)
	case GridDivergenceRule:
		return evalGridDivergence(pk, r, service, personas, byTrace)
	case LinkabilityRule:
		return evalLinkability(pk, r, service, personas, byTrace)
	case PolicyRule:
		return evalPolicy(pk, r, service, byTrace)
	}
	return nil
}

func evalFlowRule(pk *Pack, r *Rule, service string, personas []flows.Persona, byTrace map[flows.Persona]*flows.Set) []Finding {
	var out []Finding
	for _, p := range personas {
		if !matches(r.Personas, p) {
			continue
		}
		set := byTrace[p]
		if set == nil || set.Len() == 0 {
			continue
		}
		var hits []flows.Flow
		for _, f := range set.Flows() {
			if classIn(f.Dest.Class, r.Classes) {
				hits = append(hits, f)
			}
		}
		if len(hits) == 0 {
			continue
		}
		out = append(out, Finding{
			Service: service, Law: pk.Law, Severity: r.Severity, Trace: p,
			Rule: r.Name, Detail: r.Detail, Evidence: cap5(hits),
		})
	}
	return out
}

func evalGridDivergence(pk *Pack, r *Rule, service string, personas []flows.Persona, byTrace map[flows.Persona]*flows.Set) []Finding {
	var base *flows.Set
	var basePersona flows.Persona
	for _, p := range personas {
		if matches(r.Baseline, p) && byTrace[p] != nil && byTrace[p].Len() > 0 {
			base, basePersona = byTrace[p], p
			break
		}
	}
	if base == nil {
		return nil
	}
	baseGrid := base.GroupGrid()
	var out []Finding
	for _, p := range personas {
		if p == basePersona || !matches(r.Personas, p) {
			continue
		}
		set := byTrace[p]
		if set == nil || set.Len() == 0 {
			continue
		}
		if ratio := baseGrid.Similarity(set.GroupGrid()); ratio >= r.MinSimilarity {
			out = append(out, Finding{
				Service: service, Law: pk.Law, Severity: r.Severity, Trace: p,
				Rule: r.Name, Detail: fmt.Sprintf(r.Detail, int(ratio*100)),
			})
		}
	}
	return out
}

func evalLinkability(pk *Pack, r *Rule, service string, personas []flows.Persona, byTrace map[flows.Persona]*flows.Set) []Finding {
	var out []Finding
	for _, p := range personas {
		if !matches(r.Personas, p) {
			continue
		}
		set := byTrace[p]
		if set == nil {
			continue
		}
		parties := linkability.Linkable(linkability.Analyze(set))
		if len(parties) == 0 {
			continue
		}
		out = append(out, Finding{
			Service: service, Law: pk.Law, Severity: r.Severity, Trace: p,
			Rule: r.Name, Detail: fmt.Sprintf(r.Detail, len(parties)),
		})
	}
	return out
}

func evalPolicy(pk *Pack, r *Rule, service string, byTrace map[flows.Persona]*flows.Set) []Finding {
	m, ok := policy.Models()[service]
	if !ok {
		return nil
	}
	violations := policy.Audit(m, byTrace)
	if len(violations) == 0 {
		return nil
	}
	byConstraint := map[string][]policy.Violation{}
	var order []string
	for _, v := range violations {
		// The rule's persona predicate scopes the policy check like every
		// other evaluator: out-of-scope violations are not this rule's.
		if !matches(r.Personas, v.Trace) {
			continue
		}
		k := v.Constraint.Quote
		if len(byConstraint[k]) == 0 {
			order = append(order, k)
		}
		byConstraint[k] = append(byConstraint[k], v)
	}
	var out []Finding
	for _, quote := range order {
		vs := byConstraint[quote]
		var ev []flows.Flow
		for _, v := range vs {
			ev = append(ev, v.Flow)
		}
		out = append(out, Finding{
			Service: service, Law: pk.Law, Severity: r.Severity, Trace: vs[0].Trace,
			Rule:     r.Name,
			Detail:   fmt.Sprintf(r.Detail, len(vs), quote),
			Evidence: cap5(ev),
		})
	}
	return out
}

// Principle returns the transmission principle the scenario's consent
// norms assign a persona (first match, pack order). Personas no norm
// covers — above all the logged-out state — travel under no consent.
func (sc *Scenario) Principle(p flows.Persona) string {
	for _, pk := range sc.Packs {
		for _, n := range pk.ConsentNorms {
			if matches(n.Personas, p) {
				return n.Principle
			}
		}
	}
	return "no consent given, age undisclosed"
}

// judge grades one flow against the scenario's CI norms (first match, pack
// order, declaration order).
func (sc *Scenario) judge(p flows.Persona, f flows.Flow) (Verdict, string) {
	for _, pk := range sc.Packs {
		for _, n := range pk.CINorms {
			if !matches(n.Personas, p) {
				continue
			}
			if len(n.Classes) > 0 && !classIn(f.Dest.Class, n.Classes) {
				continue
			}
			return n.Verdict, n.Reason
		}
	}
	return Appropriate, "no contextual norm in the active rule packs covers this flow"
}

// PackNames lists the built-in rule packs BuildPack knows.
func PackNames() []string { return []string{"coppa", "ccpa", "gdpr"} }

// BuildPack constructs one built-in pack from a spec "name" or "name=arg"
// (e.g. "gdpr=15" for a GDPR pack with age-of-consent 15). A custom pack
// needs no name here: it is a value appended to a Scenario's Packs.
func BuildPack(spec string) (*Pack, error) {
	name, arg, _ := strings.Cut(spec, "=")
	name = strings.ToLower(strings.TrimSpace(name))
	arg = strings.TrimSpace(arg)
	switch name {
	case "coppa", "ccpa":
		if arg != "" {
			return nil, fmt.Errorf("lawaudit: rule pack %q takes no argument", name)
		}
		if name == "coppa" {
			return coppaPack, nil
		}
		return ccpaPack, nil
	case "gdpr":
		age := GDPRDefaultAgeOfConsent
		if arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("lawaudit: gdpr age of consent %q: %v", arg, err)
			}
			if n < 13 || n > 16 {
				return nil, fmt.Errorf("lawaudit: gdpr age of consent must be 13-16, got %d", n)
			}
			age = n
		}
		return GDPRPack(age), nil
	}
	return nil, fmt.Errorf("lawaudit: unknown rule pack %q (have %s)", name, strings.Join(PackNames(), ", "))
}

// ScenarioFor builds a scenario from pack specs, evaluated in the given
// order. With no specs it returns the default COPPA+CCPA scenario. A spec
// naming a pack already in the scenario is an error: evaluating a pack
// twice would report each of its findings twice.
func ScenarioFor(specs ...string) (*Scenario, error) {
	if len(specs) == 0 {
		return DefaultScenario(), nil
	}
	sc := &Scenario{}
	for _, spec := range specs {
		p, err := BuildPack(spec)
		if err != nil {
			return nil, err
		}
		for _, q := range sc.Packs {
			if q.Name == p.Name {
				return nil, fmt.Errorf("lawaudit: rule pack %q given twice", p.Name)
			}
		}
		sc.Packs = append(sc.Packs, p)
	}
	return sc, nil
}
