// GDPR audit: define a custom persona, generate synthetic traffic for it,
// and audit it under the GDPR rule pack with a member-state age of digital
// consent — the open-persona counterpart of the paper's fixed COPPA/CCPA
// audit.
package main

import (
	"fmt"
	"log"

	"diffaudit"
)

func main() {
	// 1. Define a fifth persona beyond the paper's four trace categories:
	// a German teen, where GDPR Art. 8(1) is derogated to 16 but (say) we
	// audit against a 15-year line. Rule packs predicate on the age
	// bracket and consent state, not on the persona's identity.
	defined, err := diffaudit.NewPersona(diffaudit.PersonaInfo{
		Name:     "EU Teen",
		Aliases:  []string{"eu-teen"},
		AgeKnown: true, AgeMin: 13, AgeMax: 14,
		LoggedIn: true,
		Subject:  "EU teen user (13-14)",
		Attrs:    map[string]string{"region": "EU"},
	})
	if err != nil {
		log.Fatal(err)
	}
	// A CLI or server accepts its name through an index of the personas it
	// was configured with, the way `serve -persona` feeds upload fields.
	index, err := diffaudit.NewPersonaIndex(defined)
	if err != nil {
		log.Fatal(err)
	}
	euTeen, _ := index.Parse("eu-teen")

	// 2. Generate synthetic traffic for the built-in personas plus the EU
	// teen, which borrows the adolescent trace's calibrated behavior.
	plans := make([]diffaudit.PersonaPlan, 0, 5)
	for _, b := range diffaudit.BuiltinPersonas() {
		plans = append(plans, diffaudit.PersonaPlan{Persona: b, Like: b})
	}
	plans = append(plans, diffaudit.PersonaPlan{Persona: euTeen, Like: diffaudit.Adolescent})
	dataset := diffaudit.GenerateDatasetWith(diffaudit.DatasetConfig{Scale: 0.01, Personas: plans})
	traffic := dataset.Service("Quizlet")

	// 3. Audit: the pipeline groups flows per persona automatically.
	result := diffaudit.New().AuditRecords(traffic.Identity(), traffic.Records())
	fmt.Printf("%s personas audited:", result.Identity.Name)
	for _, p := range result.Personas() {
		fmt.Printf(" %q", p.String())
	}
	fmt.Printf("\nEU Teen trace: %d distinct data flows\n\n", result.ByTrace[euTeen].Len())

	// 4. Evaluate under the GDPR rule pack with age-of-consent 15.
	scenario, err := diffaudit.NewScenario("gdpr=15")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GDPR findings for the EU Teen persona:")
	for _, f := range diffaudit.FindingsScenario(result, scenario) {
		if f.Trace == euTeen {
			fmt.Println(" ", f)
		}
	}

	// 5. Contextual integrity under the GDPR norms: count verdicts for
	// the new persona.
	counts := map[diffaudit.CIVerdict]int{}
	for _, a := range diffaudit.ContextualIntegrityScenario(result, scenario) {
		if a.Trace == euTeen {
			counts[a.Verdict]++
		}
	}
	fmt.Printf("\nEU Teen contextual integrity (GDPR): appropriate=%d questionable=%d inappropriate=%d\n",
		counts[diffaudit.CIAppropriate], counts[diffaudit.CIQuestionable], counts[diffaudit.CIInappropriate])
}
