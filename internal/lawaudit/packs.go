package lawaudit

import (
	"fmt"

	"diffaudit/internal/flows"
)

// Built-in rule packs. COPPA and CCPA re-express the paper's hard-wired
// engine as data; evaluated together (the default scenario) they produce
// findings byte-identical to the original implementation. The GDPR pack
// demonstrates extensibility: its age of digital consent is a parameter,
// matching Art. 8(1)'s member-state derogations (13-16).

// Persona predicates shared by the built-in packs. All predicate on
// attributes, never identities: a custom persona defined with an age
// bracket under 13 is a COPPA child, whoever defined it.
func under13(p flows.Persona) bool { return p.AgeBelow(13) }

func teen13to15(p flows.Persona) bool {
	return p.AgeKnown() && !p.AgeBelow(13) && p.AgeBelow(16)
}

func minorUnder16(p flows.Persona) bool { return p.AgeBelow(16) }

func adult16(p flows.Persona) bool { return p.AgeAtLeast(16) }

func preConsent(p flows.Persona) bool { return !p.LoggedIn() }

// nonThird lists the "collect" destination classes; third the "share" ones.
var (
	nonThird = []flows.DestClass{flows.FirstParty, flows.FirstPartyATS}
	third    = []flows.DestClass{flows.ThirdParty, flows.ThirdPartyATS}
	tpATS    = []flows.DestClass{flows.ThirdPartyATS}
)

// coppaPack encodes 16 C.F.R. § 312: protections for children under 13,
// plus the pre-consent norms for audiences that include children.
var coppaPack = &Pack{
	Name: "coppa",
	Law:  COPPA,
	Rules: []Rule{
		{
			Name: "pre-consent-collection", Stage: StagePreConsent, Kind: FlowRule,
			Severity: Concern, Personas: preConsent, Classes: nonThird,
			Detail: "identifiers/personal information collected while logged out, " +
				"before user age is known and consent is given",
		},
		{
			Name: "minor-ats-sharing", Stage: StageMinorSharing, Kind: FlowRule,
			Severity: Serious, Personas: under13, Classes: tpATS,
			Detail: "data sent to advertising/tracking services for a user under 16; " +
				"ATS destinations indicate non-functional data flows",
		},
		{
			Name: "linkable-data-sharing", Stage: StageLinkability, Kind: LinkabilityRule,
			Severity: Serious, Personas: under13,
			Detail: "%d third parties received linkable data " +
				"(identifiers plus personal information), enabling tracking and profiling",
		},
	},
	CINorms: []CINorm{
		{Personas: under13, Classes: tpATS, Verdict: Inappropriate,
			Reason: "advertising/tracking disclosure about a minor exceeds support for internal operations"},
		{Personas: under13, Classes: []flows.DestClass{flows.ThirdParty}, Verdict: Questionable,
			Reason: "third-party disclosure about a minor requires opt-in consent and a functional purpose"},
		{Personas: under13, Classes: []flows.DestClass{flows.FirstPartyATS}, Verdict: Questionable,
			Reason: "first-party telemetry about a minor; appropriate only for internal operations"},
		{Personas: under13, Classes: []flows.DestClass{flows.FirstParty}, Verdict: Appropriate,
			Reason: "first-party collection within the service context"},
		{Personas: preConsent, Classes: third, Verdict: Inappropriate,
			Reason: "disclosure to a third party before age is known or consent given"},
		{Personas: preConsent, Verdict: Questionable,
			Reason: "collection before age is known; the audience includes children"},
	},
	ConsentNorms: []ConsentNorm{
		{Personas: under13, Principle: "verifiable parental opt-in consent (COPPA)"},
	},
}

// ccpaPack encodes CAL. CIV. Code § 1798.120: opt-in for minors under 16,
// willful-disregard pre-consent sharing, age differentiation, and the
// privacy-policy consistency check.
var ccpaPack = &Pack{
	Name: "ccpa",
	Law:  CCPA,
	Rules: []Rule{
		{
			Name: "pre-consent-sharing", Stage: StagePreConsent, Kind: FlowRule,
			Severity: Serious, Personas: preConsent, Classes: third,
			Detail: "data shared with third parties while logged out; CCPA deems " +
				"willful disregard of age equivalent to actual knowledge",
		},
		{
			Name: "minor-ats-sharing", Stage: StageMinorSharing, Kind: FlowRule,
			Severity: Serious, Personas: teen13to15, Classes: tpATS,
			Detail: "data sent to advertising/tracking services for a user under 16; " +
				"ATS destinations indicate non-functional data flows",
		},
		{
			Name: "no-age-differentiation", Stage: StageDifferentiation, Kind: GridDivergenceRule,
			Severity: Concern, Personas: minorUnder16, Baseline: adult16, MinSimilarity: 0.75,
			Detail: "data processing matches the adult trace in %d%% of " +
				"flow-grid cells; age-specific treatment expected for users under 16",
		},
		{
			Name: "linkable-data-sharing", Stage: StageLinkability, Kind: LinkabilityRule,
			Severity: Serious,
			Personas: func(p flows.Persona) bool { return teen13to15(p) || preConsent(p) },
			Detail: "%d third parties received linkable data " +
				"(identifiers plus personal information), enabling tracking and profiling",
		},
		{
			Name: "policy-inconsistency", Stage: StagePolicy, Kind: PolicyRule,
			Severity: Concern,
			Detail:   "%d observed flows contradict the disclosure %q",
		},
	},
	CINorms: []CINorm{
		{Personas: teen13to15, Classes: tpATS, Verdict: Inappropriate,
			Reason: "advertising/tracking disclosure about a minor exceeds support for internal operations"},
		{Personas: teen13to15, Classes: []flows.DestClass{flows.ThirdParty}, Verdict: Questionable,
			Reason: "third-party disclosure about a minor requires opt-in consent and a functional purpose"},
		{Personas: teen13to15, Classes: []flows.DestClass{flows.FirstPartyATS}, Verdict: Questionable,
			Reason: "first-party telemetry about a minor; appropriate only for internal operations"},
		{Personas: teen13to15, Classes: []flows.DestClass{flows.FirstParty}, Verdict: Appropriate,
			Reason: "first-party collection within the service context"},
		{Personas: adult16, Verdict: Appropriate,
			Reason: "adult flows are not audited (CCPA notice-and-opt-out applies)"},
	},
	ConsentNorms: []ConsentNorm{
		{Personas: teen13to15, Principle: "affirmative opt-in consent (CCPA §1798.120(c))"},
		{Personas: adult16, Principle: "notice with opt-out (CCPA)"},
	},
}

// GDPRDefaultAgeOfConsent is Art. 8(1)'s default age of digital consent.
const GDPRDefaultAgeOfConsent = 16

// GDPRPack builds a GDPR rule pack with the given age of digital consent.
// Art. 8(1) sets 16 but lets member states lower it to 13; ages outside
// 13-16 fall back to the default.
func GDPRPack(ageOfConsent int) *Pack {
	age := ageOfConsent
	if age < 13 || age > 16 {
		age = GDPRDefaultAgeOfConsent
	}
	law := Law(fmt.Sprintf("GDPR (Arts. 6(1)(a), 8; age of consent %d)", age))
	underConsentAge := func(p flows.Persona) bool { return p.AgeBelow(age) }
	ofAge := func(p flows.Persona) bool { return p.AgeAtLeast(age) }
	minorOrUnknown := func(p flows.Persona) bool { return p.AgeBelow(age) || !p.AgeKnown() }
	return &Pack{
		Name: "gdpr",
		Law:  law,
		Rules: []Rule{
			{
				Name: "pre-consent-processing", Stage: StagePreConsent, Kind: FlowRule,
				Severity: Concern, Personas: preConsent, Classes: nonThird,
				Detail: "personal data processed before any lawful basis (consent) is established (Art. 6(1))",
			},
			{
				Name: "pre-consent-sharing", Stage: StagePreConsent, Kind: FlowRule,
				Severity: Serious, Personas: preConsent, Classes: third,
				Detail: "personal data disclosed to third parties before any lawful basis is established (Art. 6(1))",
			},
			{
				Name: "child-profiling", Stage: StageMinorSharing, Kind: FlowRule,
				Severity: Serious, Personas: underConsentAge, Classes: tpATS,
				Detail: fmt.Sprintf("advertising/tracking disclosure about a child below the age of "+
					"digital consent (%d); children merit specific protection from profiling (Recital 38)", age),
			},
			{
				Name: "child-third-party-disclosure", Stage: StageMinorSharing, Kind: FlowRule,
				Severity: Concern, Personas: underConsentAge,
				Classes: []flows.DestClass{flows.ThirdParty},
				Detail: "third-party disclosure about a child below the age of digital consent requires " +
					"authorization by the holder of parental responsibility (Art. 8(1))",
			},
			{
				Name: "no-child-differentiation", Stage: StageDifferentiation, Kind: GridDivergenceRule,
				Severity: Concern, Personas: underConsentAge, Baseline: ofAge, MinSimilarity: 0.75,
				Detail: "data processing matches the of-age trace in %d%% of flow-grid cells; " +
					"specific protection for children expected (Recital 38)",
			},
			{
				Name: "linkable-profiling", Stage: StageLinkability, Kind: LinkabilityRule,
				Severity: Serious, Personas: minorOrUnknown,
				Detail: "%d third parties received linkable data (identifiers plus personal " +
					"information), enabling profiling as defined in Art. 4(4)",
			},
		},
		CINorms: []CINorm{
			{Personas: underConsentAge, Classes: tpATS, Verdict: Inappropriate,
				Reason: "behavioural advertising about a child below the age of digital consent (Recital 38)"},
			{Personas: underConsentAge, Classes: []flows.DestClass{flows.ThirdParty}, Verdict: Questionable,
				Reason: "third-party disclosure about a child requires parental authorization (Art. 8)"},
			{Personas: underConsentAge, Classes: []flows.DestClass{flows.FirstPartyATS}, Verdict: Questionable,
				Reason: "first-party telemetry about a child needs a necessity basis (Art. 6(1))"},
			{Personas: underConsentAge, Classes: []flows.DestClass{flows.FirstParty}, Verdict: Appropriate,
				Reason: "first-party processing within the service context"},
			{Personas: preConsent, Classes: third, Verdict: Inappropriate,
				Reason: "disclosure to a third party with no lawful basis established"},
			{Personas: preConsent, Verdict: Questionable,
				Reason: "processing before any lawful basis is established"},
			{Personas: ofAge, Verdict: Appropriate,
				Reason: "data subject is of age; consent-based processing applies (Art. 6(1)(a))"},
		},
		ConsentNorms: []ConsentNorm{
			{Personas: underConsentAge,
				Principle: fmt.Sprintf("consent authorized by the holder of parental responsibility (Art. 8, age of consent %d)", age)},
			{Personas: ofAge, Principle: "freely given, specific, informed consent (Art. 6(1)(a))"},
		},
	}
}
