package classifier

import (
	"sort"

	"diffaudit/internal/ontology"
)

// ConfidenceRule selects how the majority-vote ensemble derives its
// confidence score from the voting models, per Section 3.2.2 of the paper.
type ConfidenceRule int

const (
	// MajorityMax uses the maximum confidence among models that voted for
	// the majority label.
	MajorityMax ConfidenceRule = iota
	// MajorityAvg uses the average confidence among those models. The paper
	// selects majority-avg at threshold 0.8 for its final labeling.
	MajorityAvg
)

// String names the rule as in Table 3.
func (r ConfidenceRule) String() string {
	if r == MajorityMax {
		return "Majority-Max"
	}
	return "Majority-Avg"
}

// Ensemble combines models at different temperatures with majority voting,
// balancing "model creativity, accuracy, and nondeterminism" as the paper
// puts it.
type Ensemble struct {
	Models []*Model
	Rule   ConfidenceRule
}

// NewEnsemble builds the paper's ensemble: one model per temperature in the
// default sweep, with the given confidence rule.
func NewEnsemble(rule ConfidenceRule) *Ensemble {
	var models []*Model
	for _, t := range DefaultTemperatures() {
		models = append(models, NewModel(t))
	}
	return &Ensemble{Models: models, Rule: rule}
}

// Classify runs every model on the input and majority-votes the label.
// Ties break toward the label whose voters report the highest summed
// confidence; hallucinated labels never win unless every model
// hallucinates.
//
// The input is tokenized and ranked once; every temperature model applies
// its own seeded perturbation to the shared ranking, so predictions are
// bit-identical to ranking per model at a fifth of the scoring cost.
func (e *Ensemble) Classify(input string) Prediction {
	ranked := getScorer().rank(input)
	preds := make([]Prediction, len(e.Models))
	votes := make(map[string][]Prediction)
	for i, m := range e.Models {
		preds[i] = m.classify(input, ranked)
		votes[preds[i].Label] = append(votes[preds[i].Label], preds[i])
	}

	type bucket struct {
		label string
		preds []Prediction
		valid bool
		conf  float64
	}
	buckets := make([]bucket, 0, len(votes))
	for label, ps := range votes {
		b := bucket{label: label, preds: ps, valid: ps[0].Category != nil}
		for _, p := range ps {
			b.conf += p.Confidence
		}
		buckets = append(buckets, b)
	}
	sort.SliceStable(buckets, func(i, j int) bool {
		bi, bj := buckets[i], buckets[j]
		if bi.valid != bj.valid {
			return bi.valid
		}
		if len(bi.preds) != len(bj.preds) {
			return len(bi.preds) > len(bj.preds)
		}
		if bi.conf != bj.conf {
			return bi.conf > bj.conf
		}
		return bi.label < bj.label
	})
	win := buckets[0]

	var conf float64
	switch e.Rule {
	case MajorityMax:
		for _, p := range win.preds {
			if p.Confidence > conf {
				conf = p.Confidence
			}
		}
	default: // MajorityAvg
		for _, p := range win.preds {
			conf += p.Confidence
		}
		conf /= float64(len(win.preds))
	}

	out := win.preds[0]
	out.Confidence = conf
	return out
}

// Labeler is anything that classifies raw data types: a single Model, an
// Ensemble, or one of the baselines.
type Labeler interface {
	Classify(input string) Prediction
}

// FinalLabeler returns the paper's production configuration: majority-avg
// ensemble filtered at confidence 0.8. Inputs below the threshold return
// ok=false and are excluded from data flows, exactly as the paper excludes
// "low confidence guesses" from the dataset.
func FinalLabeler() *ThresholdLabeler {
	return &ThresholdLabeler{Labeler: NewEnsemble(MajorityAvg), Threshold: 0.8}
}

// ThresholdLabeler wraps a labeler with a confidence floor.
type ThresholdLabeler struct {
	Labeler   Labeler
	Threshold float64
}

// Label classifies an input, reporting ok=false when the prediction is
// hallucinated or under-confident.
func (t *ThresholdLabeler) Label(input string) (*ontology.Category, float64, bool) {
	p := t.Labeler.Classify(input)
	if p.Category == nil || p.Confidence < t.Threshold {
		return nil, p.Confidence, false
	}
	return p.Category, p.Confidence, true
}
