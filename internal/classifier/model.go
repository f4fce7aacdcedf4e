package classifier

import (
	"fmt"
	"math"

	"diffaudit/internal/ontology"
)

// Prediction is one model's answer for one input, mirroring the paper's
// required GPT-4 output format: <input> // <category> // <score> //
// <explanation>.
type Prediction struct {
	Input string
	// Label is the assigned level-3 category name. Above temperature 1 the
	// model may hallucinate a label outside the ontology, as the paper
	// observed; Category is nil in that case.
	Label    string
	Category *ontology.Category
	// Confidence is the model's self-reported score in [0,1].
	Confidence float64
	// Explanation is the 15-words-or-less rationale the prompt requests.
	Explanation string
}

// FormatLine renders the prediction in the paper's required response format.
func (p Prediction) FormatLine() string {
	return fmt.Sprintf("%s // %s // %.2f // %s", p.Input, p.Label, p.Confidence, p.Explanation)
}

// Model is one simulated chat-completion classifier instance at a fixed
// temperature. Instances are deterministic: the same (seed, temperature,
// input) always yields the same prediction, which stands in for pinning a
// model snapshot.
type Model struct {
	// Temperature controls response creativity, 0–2 as in the Chat
	// Completions API. Values above 1 produce hallucinatory labels.
	Temperature float64
	// Seed fixes the noise stream.
	Seed int64
}

// NewModel returns a model at the given temperature with the default seed.
func NewModel(temperature float64) *Model {
	return &Model{Temperature: temperature, Seed: 42}
}

// DefaultTemperatures are the sweep the paper evaluates (Table 3).
func DefaultTemperatures() []float64 { return []float64{0, 0.25, 0.5, 0.75, 1.0} }

// rng derives a per-input deterministic random stream: an FNV-1a hash of
// the input and temperature seeds a stream identical to
// rand.New(rand.NewSource(seed)), served through the fast partial-seeding
// path (see fastrng.go). The hash is computed inline to avoid the
// hash.Hash allocation and string copy of hash/fnv.
func (m *Model) rng(input string) fastRand {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(input); i++ {
		h ^= uint64(input[i])
		h *= fnvPrime64
	}
	bits := math.Float64bits(m.Temperature)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(bits >> (8 * i)))
		h *= fnvPrime64
	}
	return newFastRand(int64(h) ^ m.Seed)
}

// hallucinatedLabels are plausible-sounding but invalid categories emitted
// above temperature 1, reproducing the failure mode that made the paper cap
// temperatures at 1.
var hallucinatedLabels = []string{
	"User Vibes", "Quantum Identifiers", "Metaverse Presence",
	"Digital Aura", "Behavioral Essence", "Cookie Spirit",
}

// Classify assigns a category to one raw data type.
func (m *Model) Classify(input string) Prediction {
	return m.classify(input, nil)
}

// classify implements Classify. When ranked is non-nil it is used as the
// category ranking for the input instead of recomputing it — the rank-once
// path the ensemble uses to tokenize and rank each input a single time for
// all temperature models. The ranking is read-only shared state; the noise
// stream is derived from (input, temperature) exactly as before, so the
// prediction is bit-identical either way.
func (m *Model) classify(input string, ranked []scoreEntry) Prediction {
	rng := m.rng(input)
	if m.Temperature > 1.0 {
		// Hallucination regime.
		if rng.Float64() < (m.Temperature-1.0)*0.9 {
			label := hallucinatedLabels[rng.Intn(len(hallucinatedLabels))]
			return Prediction{
				Input: input, Label: label,
				Confidence:  0.5 + 0.5*rng.Float64(),
				Explanation: "novel data type not covered by provided categories",
			}
		}
	}
	if ranked == nil {
		ranked = getScorer().rank(input)
	}
	top := ranked[0]
	second := ranked[1]

	// Temperature-scaled noise perturbs the decision: with probability
	// growing in temperature and shrinking in the top-two margin, the model
	// "creatively" answers with a lower-ranked category.
	margin := top.score - second.score
	chosen := top
	rankedIdx := 0
	if m.Temperature > 0 {
		flipP := m.Temperature * 0.42 * math.Exp(-5*margin)
		if rng.Float64() < flipP {
			// Jump to a nearby alternative; further jumps are rarer.
			j := 1 + rng.Intn(2)
			if j < len(ranked) && ranked[j].score > 0 {
				chosen = ranked[j]
				rankedIdx = j
			}
		}
	}

	conf := selfConfidence(chosen.score, margin, rankedIdx, &rng, m.Temperature)
	return Prediction{
		Input:       input,
		Label:       chosen.cat.Name,
		Category:    chosen.cat,
		Confidence:  conf,
		Explanation: explain(input, chosen.cat, chosen.score),
	}
}

// selfConfidence converts evidence strength into the 0–1 self-reported
// score. Like real LLM self-reports it correlates with, but does not equal,
// correctness probability: noise widens with temperature.
func selfConfidence(score, margin float64, rankedIdx int, rng *fastRand, temp float64) float64 {
	base := 0.70 + 0.25*score + 0.05*margin
	if score == 0 {
		// No evidence at all: the model invents a meaning for the opaque
		// string and reports a wide, badly calibrated confidence — the
		// overconfident-on-gibberish failure mode of LLM classifiers.
		base = 0.58 + 0.38*rng.Float64()
	}
	if rankedIdx > 0 {
		base -= 0.10 * float64(rankedIdx) // the model is less sure about creative picks
	}
	// Two-uniform noise approximates the bell-shaped spread of LLM
	// self-reports; temperature widens it.
	noise := (rng.Float64() + rng.Float64() - 1.0) * (0.10 + 0.10*temp)
	base += noise
	switch {
	case base < 0.05:
		return 0.05
	case base > 0.99:
		return 0.99
	}
	return math.Round(base*100) / 100
}

// explain produces the short rationale string.
func explain(input string, cat *ontology.Category, score float64) string {
	switch {
	case score >= 0.99:
		return fmt.Sprintf("exact ontology example for %s", cat.Group)
	case score >= 0.6:
		return fmt.Sprintf("tokens align with %s examples", cat.Name)
	case score > 0:
		return fmt.Sprintf("weak similarity to %s vocabulary", cat.Name)
	default:
		return "no category evidence; defaulting to closest label"
	}
}
