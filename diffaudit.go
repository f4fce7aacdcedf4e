// Package diffaudit is the public API of the DiffAudit reproduction: a
// platform-agnostic privacy auditing library for general audience online
// services, after Figueira et al., "DiffAudit: Auditing Privacy Practices
// of Online Services for Children and Adolescents" (IMC 2024).
//
// The library audits network traffic captured while using a service as a
// child (<13), adolescent (13-15), adult (≥16), and logged-out user. It
// parses HAR (web) and PCAP (mobile, with TLS key logs) captures, extracts
// raw data types from outgoing requests, classifies them against a
// COPPA/CCPA-rooted ontology with a majority-vote ensemble classifier,
// resolves destinations (first/third party, advertising & tracking
// services), and produces differential, policy-consistency, and
// data-linkability audits.
//
// Quickstart:
//
//	auditor := diffaudit.New()
//	dataset := diffaudit.GenerateDataset(0.01) // synthetic six-service data
//	traffic := dataset.Service("Quizlet")
//	result := auditor.AuditRecords(traffic.Identity(), traffic.Records())
//	for _, f := range diffaudit.Findings(result) {
//	    fmt.Println(f)
//	}
package diffaudit

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"diffaudit/internal/classifier"
	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/lawaudit"
	"diffaudit/internal/linkability"
	"diffaudit/internal/policy"
	"diffaudit/internal/report"
	"diffaudit/internal/server"
	"diffaudit/internal/services"
	"diffaudit/internal/store"
	"diffaudit/internal/synth"
)

// Re-exported core types. Aliases keep the implementation in internal
// packages while making every type usable through the public API.
type (
	// Persona is a trace persona: a handle on an immutable PersonaInfo.
	// The paper's four trace categories are built-ins; NewPersona opens the
	// axis (finer age brackets, regions, subscription tiers).
	Persona = flows.Persona
	// PersonaInfo describes a persona: age bracket, consent state, and
	// free-form attributes rule packs predicate on.
	PersonaInfo = flows.PersonaInfo
	// PersonaIndex parses persona names: the built-ins plus the custom
	// personas it was built with.
	PersonaIndex = flows.PersonaIndex
	// TraceCategory is the paper's name for a persona.
	TraceCategory = flows.TraceCategory
	// Platform is the capture platform (web or mobile).
	Platform = flows.Platform
	// DestClass is the first/third party × ATS destination class.
	DestClass = flows.DestClass
	// Destination is a resolved packet destination.
	Destination = flows.Destination
	// Flow is one <data type category, destination> pair.
	Flow = flows.Flow
	// FlowSet is a deduplicated set of flows with platform provenance.
	FlowSet = flows.Set
	// ServiceIdentity names the audited service and its own domains.
	ServiceIdentity = core.ServiceIdentity
	// RequestRecord is one outgoing request fed to the pipeline.
	RequestRecord = core.RequestRecord
	// ServiceResult is the pipeline output for one service.
	ServiceResult = core.ServiceResult
	// PCAPStats summarizes PCAP ingestion (including undecrypted flows).
	PCAPStats = core.PCAPStats
	// Finding is a regulation audit finding.
	Finding = lawaudit.Finding
	// RulePack is one regulation's audit rules, CI norms, and consent
	// norms, declared as data (built-ins: coppa, ccpa, gdpr; a custom pack
	// joins a Scenario as a value).
	RulePack = lawaudit.Pack
	// RulePackRule is one declarative audit rule inside a pack.
	RulePackRule = lawaudit.Rule
	// Scenario is an ordered set of rule packs evaluated together.
	Scenario = lawaudit.Scenario
	// CIAssessment is one flow's contextual-integrity tuple and verdict.
	CIAssessment = lawaudit.CIAssessment
	// CIVerdict grades a flow's contextual appropriateness.
	CIVerdict = lawaudit.Verdict
	// PolicyViolation is a privacy-policy consistency contradiction.
	PolicyViolation = policy.Violation
	// LinkableParty is a third party with the data type set it received.
	LinkableParty = linkability.Party
	// LinkabilityIndex is the single-pass linkability view of a flow set:
	// build it once per trace and read every linkability statistic
	// (CountLinkable, LargestSet, CommonSet, TopATSOrgs) without
	// re-analysis.
	LinkabilityIndex = linkability.Index
	// FlowCatID is a data type category symbol: the category's index in
	// the ontology, the same in every result and every process.
	FlowCatID = flows.CatID
	// FlowDestID is a resolved-destination symbol of one flow set's table
	// (FlowSet.Table); it means nothing in another result's.
	FlowDestID = flows.DestID
	// Dataset is a synthetic six-service dataset.
	Dataset = synth.Dataset
	// DatasetConfig tunes synthetic dataset generation (scale, personas).
	DatasetConfig = synth.Config
	// PersonaPlan schedules synthetic traffic for one persona, borrowing
	// a built-in persona's behavior profile.
	PersonaPlan = synth.PersonaPlan
	// ServiceTraffic is one service's synthetic traffic.
	ServiceTraffic = synth.ServiceTraffic
	// ServiceSpec is a calibrated service behavior profile.
	ServiceSpec = services.Spec
	// ValidationRow is one row of the classifier validation table.
	ValidationRow = classifier.ValidationRow
	// Capture is one capture file of an audit (AuditCaptures): a website
	// HAR or a mobile pcap/pcapng recorded under one persona, with an
	// optional label its open and key-log errors are prefixed with.
	Capture = core.Capture
	// AuditServer is the HTTP audit service behind `diffaudit serve`.
	AuditServer = server.Server
	// ServerConfig tunes the audit server.
	ServerConfig = server.Config
	// SnapshotStore persists audit results as content-addressed,
	// sequence-ordered snapshots (OpenSnapshotStore).
	SnapshotStore = store.Store
	// SnapshotMeta describes one stored snapshot (sequence, content
	// hash, service, originating job).
	SnapshotMeta = store.Meta
	// LongitudinalDiff compares two audits of one service over time,
	// per persona.
	LongitudinalDiff = core.LongitudinalDiff
	// PersonaDelta is one persona's longitudinal flow delta.
	PersonaDelta = core.PersonaDelta
)

// Trace categories: the built-in personas. Child is the zero Persona.
var (
	Child      = flows.Child
	Adolescent = flows.Adolescent
	Adult      = flows.Adult
	LoggedOut  = flows.LoggedOut
)

// Platforms.
const (
	Web    = flows.Web
	Mobile = flows.Mobile
)

// Destination classes.
const (
	FirstParty    = flows.FirstParty
	FirstPartyATS = flows.FirstPartyATS
	ThirdParty    = flows.ThirdParty
	ThirdPartyATS = flows.ThirdPartyATS
)

// Contextual-integrity verdicts.
const (
	CIAppropriate   = lawaudit.Appropriate
	CIQuestionable  = lawaudit.Questionable
	CIInappropriate = lawaudit.Inappropriate
)

// Rule-pack declaration vocabulary: evaluation stages, evaluator kinds,
// and finding severities for authoring custom packs.
const (
	StagePreConsent      = lawaudit.StagePreConsent
	StageMinorSharing    = lawaudit.StageMinorSharing
	StageDifferentiation = lawaudit.StageDifferentiation
	StageLinkability     = lawaudit.StageLinkability
	StagePolicy          = lawaudit.StagePolicy

	FlowRule           = lawaudit.FlowRule
	GridDivergenceRule = lawaudit.GridDivergenceRule
	LinkabilityRule    = lawaudit.LinkabilityRule
	PolicyRule         = lawaudit.PolicyRule

	SeverityInfo    = lawaudit.Info
	SeverityConcern = lawaudit.Concern
	SeveritySerious = lawaudit.Serious
)

// Auditor runs the DiffAudit pipeline.
type Auditor struct {
	// Pipeline runs the audits and keeps their label cache; its Workers
	// sizes each audit's worker pool.
	Pipeline *core.Pipeline
}

// New returns an auditor with the paper's production configuration
// (majority-avg GPT-4-style ensemble at confidence 0.8, embedded ATS block
// lists, recursive payload extraction).
func New() *Auditor {
	return &Auditor{Pipeline: core.NewPipeline()}
}

// AuditRecords runs the pipeline over request records. It panics when the
// records come under two personas of one name; AuditCaptures returns that
// as an error.
func (a *Auditor) AuditRecords(id ServiceIdentity, recs []RequestRecord) *ServiceResult {
	return a.Pipeline.AnalyzeRecords(id, recs)
}

// AuditCaptures audits capture files in one pass, in the order given:
// HAR entries decode one at a time off disk, pcap frames are read one at a
// time (payload-carrying segments are held until the capture ends), and
// each file is opened and parsed once. TLS keys come from embedded
// Decryption Secrets Blocks plus the SSLKEYLOGFILE at keylogPath ("" for
// none), parsed once for every mobile capture. A service with a profile
// (ServiceSpec) is audited under it, as `diffaudit serve` does; for any
// other name the first party is the eSLD most of the records went to,
// found in the same pass, so the result equals
// AuditRecords(GuessIdentity(name, recs), recs). It also returns each
// capture's ingestion stats, zero for a HAR.
func (a *Auditor) AuditCaptures(name, keylogPath string, caps []Capture) (*ServiceResult, []PCAPStats, error) {
	res, _, stats, err := a.Pipeline.AuditCaptures(context.Background(), name, keylogPath, caps)
	return res, stats, err
}

// ParsePersona maps a built-in persona name or alias to its persona.
// Custom personas parse through the PersonaIndex that holds them
// (NewPersonaIndex).
func ParsePersona(name string) (Persona, bool) { return flows.ParsePersona(name) }

// NewPersona validates a persona record and returns its handle: the
// built-in itself for a record identical to one, an error for a record
// reusing a built-in name or alias with other attributes, and otherwise a
// fresh persona. Records audited under it group into their own trace,
// report column, and rule-pack evaluation scope. Each call mints a new
// handle, and one audit takes one persona per name, so mint a persona once
// and reuse the handle.
func NewPersona(info PersonaInfo) (Persona, error) { return flows.NewPersona(info) }

// NewPersonaIndex builds the name index a CLI or server parses persona
// names against: the built-ins plus the given customs, whose names and
// aliases must not collide.
func NewPersonaIndex(customs ...Persona) (*PersonaIndex, error) {
	return flows.NewPersonaIndex(customs...)
}

// NewPersonaSpec makes a persona from a compact CLI-style spec:
// "name:min-max" declares a logged-in persona disclosing the inclusive
// age bracket (e.g. "eu-teen:13-15"), and "name:loggedout" a pre-consent
// persona with no disclosed age.
func NewPersonaSpec(spec string) (Persona, error) {
	name, rest, ok := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return Persona{}, fmt.Errorf("persona spec %q: want name:min-max or name:loggedout", spec)
	}
	info := PersonaInfo{Name: name}
	switch rest = strings.ToLower(strings.TrimSpace(rest)); rest {
	case "loggedout", "logged-out", "out":
		// Pre-consent persona: age unknown, not authenticated.
	default:
		lo, hi, ok := strings.Cut(rest, "-")
		if !ok {
			return Persona{}, fmt.Errorf("persona spec %q: age bracket %q is not min-max", spec, rest)
		}
		min, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			return Persona{}, fmt.Errorf("persona spec %q: bad min age: %v", spec, err)
		}
		max, err := strconv.Atoi(strings.TrimSpace(hi))
		if err != nil {
			return Persona{}, fmt.Errorf("persona spec %q: bad max age: %v", spec, err)
		}
		info.AgeKnown, info.AgeMin, info.AgeMax, info.LoggedIn = true, min, max, true
	}
	return flows.NewPersona(info)
}

// BuiltinPersonas returns the paper's four personas in table order.
func BuiltinPersonas() []Persona { return flows.BuiltinPersonas() }

// OpenServer starts an audit server: POST /v1/audits uploads captures onto
// a bounded job queue, GET /v1/jobs/{id}/report.{json,csv} fetches results.
// ServerConfig.Store and ServerConfig.JournalDir are required. Finished
// audits persist as snapshots in the store, which GET /v1/snapshots and
// GET /v1/diff serve as the longitudinal API; accepted uploads are
// journaled under JournalDir before they are queued, and OpenServer
// re-enqueues jobs interrupted by a crash before taking new traffic.
// Errors come from a missing store or journal directory, from a store that
// cannot list its snapshots, or from the journal: its directory cannot be
// created, its log cannot be read or rewritten, or it holds records in a
// layout this build does not read.
func OpenServer(cfg ServerConfig) (*AuditServer, error) { return server.Open(cfg) }

// OpenSnapshotStore opens (creating if needed) a filesystem snapshot
// store: one append-only, crash-safe file per snapshot under dir, rescanned
// on open so snapshots survive restarts. This is the store behind
// `diffaudit serve -data-dir`.
func OpenSnapshotStore(dir string) (SnapshotStore, error) { return store.OpenFSStore(dir) }

// SaveSnapshot writes an audit result to path as a standalone snapshot
// file: a self-contained, versioned binary encoding (symbol tables
// included) that any later diffaudit process can read back.
func SaveSnapshot(path string, r *ServiceResult) error { return store.SaveFile(path, r) }

// LoadSnapshot reads a snapshot file written by SaveSnapshot.
func LoadSnapshot(path string) (*ServiceResult, error) { return store.LoadFile(path) }

// EncodeSnapshot serializes a result with the versioned snapshot codec.
// The encoding is canonical: identical results encode to identical bytes,
// which is what makes content hashing meaningful.
func EncodeSnapshot(r *ServiceResult) []byte { return store.EncodeResult(r) }

// DecodeSnapshot parses a snapshot encoding back into a result. A persona
// identical to a built-in decodes to it; every other persona decodes to a
// handle the result owns, so decoding changes nothing outside the result
// (diffs pair personas by name).
func DecodeSnapshot(data []byte) (*ServiceResult, error) { return store.DecodeResult(data) }

// DiffSnapshots compares two audits of one service over time (oldest
// first): per persona, the added and removed flows plus Table 4 grid
// similarity.
func DiffSnapshots(from, to *ServiceResult) LongitudinalDiff {
	return core.Longitudinal(from, to)
}

// RenderDiffReport renders a longitudinal diff as markdown.
func RenderDiffReport(d LongitudinalDiff) string { return report.DiffReport(d) }

// ExportDiffJSON renders a longitudinal diff as machine-readable JSON —
// the GET /v1/diff response body.
func ExportDiffJSON(d LongitudinalDiff) ([]byte, error) { return report.ExportDiffJSON(d) }

// LoadHARFile parses a website capture exported from the browser's network
// panel into request records, through the reader AuditCaptures uses.
func (a *Auditor) LoadHARFile(path string, trace TraceCategory) ([]RequestRecord, error) {
	recs, _, err := core.ReadCapture("", Capture{Path: path, HAR: true, Trace: trace})
	return recs, err
}

// LoadPCAPFile parses a mobile capture (pcap or pcapng; TLS key material is
// read from embedded Decryption Secrets Blocks and, optionally, an external
// SSLKEYLOGFILE) into request records, through the reader AuditCaptures
// uses, with the stats it gathered.
func (a *Auditor) LoadPCAPFile(path, keylogPath string, trace TraceCategory) ([]RequestRecord, PCAPStats, error) {
	return core.ReadCapture(keylogPath, Capture{Path: path, Trace: trace})
}

// GuessIdentity derives a service identity from records when no profile is
// available (the most-contacted eSLD becomes the first party).
func GuessIdentity(name string, recs []RequestRecord) ServiceIdentity {
	return core.GuessIdentity(name, recs)
}

// Findings runs the default COPPA+CCPA scenario over a result.
func Findings(r *ServiceResult) []Finding {
	return lawaudit.Audit(r.Identity.Name, r.ByTrace)
}

// NewScenario builds a scenario from rule-pack specs ("coppa", "ccpa",
// "gdpr", "gdpr=15", ...), evaluated in order; naming a pack twice is an
// error. With no specs it returns the default COPPA+CCPA scenario. A custom
// RulePack is a value: append it to the scenario's Packs.
func NewScenario(packSpecs ...string) (*Scenario, error) {
	return lawaudit.ScenarioFor(packSpecs...)
}

// FindingsScenario runs a specific scenario's rule packs over a result.
func FindingsScenario(r *ServiceResult, sc *Scenario) []Finding {
	return sc.Audit(r.Identity.Name, r.ByTrace)
}

// PolicyViolations checks a result against the service's modeled privacy
// policy disclosures (nil when no model exists or the policy is consistent).
func PolicyViolations(r *ServiceResult) []PolicyViolation {
	m, ok := policy.Models()[r.Identity.Name]
	if !ok {
		return nil
	}
	return policy.Audit(m, r.ByTrace)
}

// LinkableParties returns the third parties sent linkable data in a trace.
func LinkableParties(set *FlowSet) []LinkableParty {
	return linkability.Linkable(linkability.Analyze(set))
}

// NewLinkabilityIndex builds the single-pass linkability index of a trace's
// flow set.
func NewLinkabilityIndex(set *FlowSet) *LinkabilityIndex {
	return linkability.NewIndex(set)
}

// ContextualIntegrityScenario grades every observed flow against a
// specific scenario's CI norms.
func ContextualIntegrityScenario(r *ServiceResult, sc *Scenario) []CIAssessment {
	return sc.CIAnalysis(r.Identity.Name, r.ByTrace)
}

// ExportJSON renders audit results as machine-readable JSON.
func ExportJSON(results []*ServiceResult) ([]byte, error) {
	return report.ExportJSON(results)
}

// ExportFlowsCSV renders every data flow as CSV.
func ExportFlowsCSV(results []*ServiceResult) (string, error) {
	return report.ExportFlowsCSV(results)
}

// RenderAuditReport renders a full per-service audit as markdown.
func RenderAuditReport(r *ServiceResult) string {
	return report.AuditReport(r)
}

// GenerateDataset fabricates the six-service synthetic dataset at the given
// scale (1.0 reproduces the paper's packet counts; use small scales for
// experimentation). See DESIGN.md for the substitution rationale.
func GenerateDataset(scale float64) *Dataset {
	return synth.Generate(synth.Config{Scale: scale})
}

// GenerateDatasetWith fabricates the dataset under an explicit config —
// in particular, with synthetic traffic for custom personas
// (each borrowing a built-in persona's behavior profile via PersonaPlan).
func GenerateDatasetWith(cfg DatasetConfig) *Dataset {
	return synth.Generate(cfg)
}

// AuditAll generates the dataset at the given scale and audits every
// service, returning results in the paper's service order.
func AuditAll(scale float64) []*ServiceResult {
	a := New()
	ds := GenerateDataset(scale)
	var out []*ServiceResult
	for _, st := range ds.Services {
		out = append(out, a.AuditRecords(st.Identity(), st.Records()))
	}
	return out
}

// ValidateClassifier reproduces Table 3: the classifier validation on the
// n=397 labeled sample.
func ValidateClassifier() []ValidationRow {
	sample := classifier.GenerateCorpus(classifier.DefaultCorpusOptions())
	return classifier.Table3(sample)
}

// Report renderers for every paper table and figure.
var (
	// RenderTable1 renders the dataset summary.
	RenderTable1 = report.Table1
	// RenderTable2 renders the ontology with observation markers.
	RenderTable2 = report.Table2
	// RenderTable3 renders classifier validation rows.
	RenderTable3 = report.Table3
	// RenderTable4 renders the per-service flow grids.
	RenderTable4 = report.Table4
	// RenderTable5 renders the full ontology.
	RenderTable5 = report.Table5
	// RenderFigure3 renders linkable third-party counts.
	RenderFigure3 = report.Figure3
	// RenderFigure4 renders largest linkable set sizes.
	RenderFigure4 = report.Figure4
	// RenderFigure5 renders top ATS organizations.
	RenderFigure5 = report.Figure5
	// RenderDestinationRoles renders the destination class breakdown.
	RenderDestinationRoles = report.DestinationRoles
)
