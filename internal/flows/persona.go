package flows

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Persona identifies a trace persona: the simulated user whose session a
// capture records. The paper audits exactly four personas — the child,
// adolescent, adult, and logged-out traces — but the persona space is open:
// new jurisdictions draw the age-of-consent line elsewhere (GDPR member
// states pick 13-16), and differential audits can compare along axes the
// paper never needed (region, subscription tier). Personas are registered
// process-wide — the operator's flags and rule packs bound them, not what
// a capture contains — and identified by their dense registration index,
// so per-persona grouping in the pipeline stays pure integer work.
//
// The four paper personas are registered as built-ins occupying IDs 0-3 in
// table order, which keeps every artifact rendered from built-in-only
// traffic byte-identical to the closed-enum implementation.
type Persona int

// TraceCategory is the paper's name for a persona. The alias keeps the
// original four-trace vocabulary (and every existing call site) working
// against the open registry.
type TraceCategory = Persona

// Built-in personas, ordered as in the paper's tables.
const (
	Child      Persona = iota // younger than 13 (COPPA)
	Adolescent                // 13-15 (CCPA minors)
	Adult                     // 16 and older
	LoggedOut                 // no consent, no age disclosed
)

// AgeNoLimit marks an unbounded PersonaInfo.AgeMax.
const AgeNoLimit = 1 << 30

// PersonaInfo describes a registered persona. Rule packs predicate on
// these attributes (disclosed age bracket, consent state, free-form tags)
// instead of on hard-coded persona identities, which is what lets one rule
// set cover personas registered after the pack was written.
type PersonaInfo struct {
	// Name is the canonical display name, as printed in report columns
	// (e.g. "Child", "Logged Out").
	Name string
	// Aliases are additional accepted spellings for ParsePersona,
	// lowercase ("teen", "logged-out"). The lowercased Name is always
	// accepted and need not be listed.
	Aliases []string
	// AgeKnown reports whether the persona disclosed an age to the
	// service. The logged-out persona has not.
	AgeKnown bool
	// AgeMin and AgeMax bound the disclosed age, inclusive. AgeMax is
	// AgeNoLimit for unbounded brackets ("16 and older"). Meaningful only
	// when AgeKnown.
	AgeMin, AgeMax int
	// LoggedIn reports whether the persona is authenticated — the consent
	// boundary the paper's logged-out trace sits before.
	LoggedIn bool
	// Subject is the contextual-integrity data-subject description
	// ("child user (under 13)"). Defaults to "<name> user" when empty.
	Subject string
	// Attrs are free-form tags (e.g. region=EU, tier=premium) rule packs
	// can match beyond age and consent state.
	Attrs map[string]string
}

// personaSnapshot is the immutable published view of the registry.
type personaSnapshot struct {
	infos   []PersonaInfo
	byAlias map[string]Persona // lowercased names and aliases
}

var (
	personaMu   sync.Mutex
	personaSnap atomic.Pointer[personaSnapshot]
)

func init() {
	personaSnap.Store(&personaSnapshot{byAlias: map[string]Persona{}})
	builtins := []PersonaInfo{
		{
			Name: "Child", AgeKnown: true, AgeMin: 0, AgeMax: 12,
			LoggedIn: true, Subject: "child user (under 13)",
		},
		{
			Name: "Adolescent", Aliases: []string{"teen"},
			AgeKnown: true, AgeMin: 13, AgeMax: 15,
			LoggedIn: true, Subject: "adolescent user (13-15)",
		},
		{
			Name: "Adult", AgeKnown: true, AgeMin: 16, AgeMax: AgeNoLimit,
			LoggedIn: true, Subject: "adult user (16+)",
		},
		{
			Name:    "Logged Out",
			Aliases: []string{"loggedout", "logged-out", "logged_out", "out"},
			Subject: "unidentified user (age undisclosed)",
		},
	}
	for i, info := range builtins {
		p, err := RegisterPersona(info)
		if err != nil || int(p) != i {
			panic(fmt.Sprintf("flows: built-in persona %q: id=%d err=%v", info.Name, p, err))
		}
	}
}

// RegisterPersona adds a persona to the process-wide registry and returns
// its ID. Registration is idempotent: re-registering an identical
// PersonaInfo returns the existing ID; a conflicting name or alias is an
// error. Safe for concurrent use.
func RegisterPersona(info PersonaInfo) (Persona, error) {
	info.Name = strings.TrimSpace(info.Name)
	if info.Name == "" {
		return 0, fmt.Errorf("flows: persona name required")
	}
	if info.AgeKnown && info.AgeMin > info.AgeMax {
		return 0, fmt.Errorf("flows: persona %q: AgeMin %d > AgeMax %d", info.Name, info.AgeMin, info.AgeMax)
	}
	if info.Subject == "" {
		info.Subject = strings.ToLower(info.Name) + " user"
	}

	personaMu.Lock()
	defer personaMu.Unlock()
	snap := personaSnap.Load()
	if id, ok := snap.byAlias[strings.ToLower(info.Name)]; ok {
		if samePersonaInfo(snap.infos[id], info) {
			return id, nil
		}
		return 0, fmt.Errorf("flows: persona %q already registered with different attributes", info.Name)
	}
	spellings := []string{strings.ToLower(info.Name)}
	for _, a := range info.Aliases {
		a = strings.ToLower(strings.TrimSpace(a))
		if a == "" || a == spellings[0] {
			continue
		}
		spellings = append(spellings, a)
	}
	for _, s := range spellings[1:] {
		if other, ok := snap.byAlias[s]; ok {
			return 0, fmt.Errorf("flows: persona alias %q already taken by %q", s, snap.infos[other].Name)
		}
	}

	id := Persona(len(snap.infos))
	grown := &personaSnapshot{
		infos:   make([]PersonaInfo, len(snap.infos)+1),
		byAlias: make(map[string]Persona, len(snap.byAlias)+len(spellings)),
	}
	copy(grown.infos, snap.infos)
	grown.infos[id] = info
	for k, v := range snap.byAlias {
		grown.byAlias[k] = v
	}
	for _, s := range spellings {
		grown.byAlias[s] = id
	}
	personaSnap.Store(grown)
	return id, nil
}

// MustRegisterPersona is RegisterPersona, panicking on error.
func MustRegisterPersona(info PersonaInfo) Persona {
	p, err := RegisterPersona(info)
	if err != nil {
		panic(err)
	}
	return p
}

// samePersonaInfo compares infos field-wise (idempotent re-registration).
func samePersonaInfo(a, b PersonaInfo) bool {
	if a.Name != b.Name || a.AgeKnown != b.AgeKnown || a.LoggedIn != b.LoggedIn ||
		a.Subject != b.Subject || len(a.Aliases) != len(b.Aliases) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	if a.AgeKnown && (a.AgeMin != b.AgeMin || a.AgeMax != b.AgeMax) {
		return false
	}
	for i := range a.Aliases {
		if !strings.EqualFold(a.Aliases[i], b.Aliases[i]) {
			return false
		}
	}
	for k, v := range a.Attrs {
		if b.Attrs[k] != v {
			return false
		}
	}
	return true
}

// Personas returns every registered persona in ID (registration) order —
// built-ins first, in table order.
func Personas() []Persona {
	n := len(personaSnap.Load().infos)
	out := make([]Persona, n)
	for i := range out {
		out[i] = Persona(i)
	}
	return out
}

// BuiltinPersonas returns the paper's four personas in table order.
func BuiltinPersonas() []Persona {
	return []Persona{Child, Adolescent, Adult, LoggedOut}
}

// PersonaCount returns the number of registered personas.
func PersonaCount() int { return len(personaSnap.Load().infos) }

// Registered reports whether the persona ID is registered.
func (p Persona) Registered() bool {
	return p >= 0 && int(p) < len(personaSnap.Load().infos)
}

// Info returns the persona's registration record (zero value when the ID
// is unregistered).
func (p Persona) Info() PersonaInfo {
	if infos := personaSnap.Load().infos; p >= 0 && int(p) < len(infos) {
		return infos[p]
	}
	return PersonaInfo{}
}

// String names the persona as printed in report columns ("Child",
// "Logged Out", ...).
func (p Persona) String() string {
	if info := p.Info(); info.Name != "" {
		return info.Name
	}
	return fmt.Sprintf("Persona(%d)", int(p))
}

// LoggedIn reports whether the persona is authenticated (has passed the
// age-disclosure and consent boundary).
func (p Persona) LoggedIn() bool { return p.Info().LoggedIn }

// AgeKnown reports whether the persona disclosed an age.
func (p Persona) AgeKnown() bool { return p.Info().AgeKnown }

// AgeBelow reports whether the persona's whole disclosed age bracket lies
// below n years (false when the age is unknown).
func (p Persona) AgeBelow(n int) bool {
	info := p.Info()
	return info.AgeKnown && info.AgeMax < n
}

// AgeAtLeast reports whether the persona's whole disclosed age bracket is
// at least n years (false when the age is unknown).
func (p Persona) AgeAtLeast(n int) bool {
	info := p.Info()
	return info.AgeKnown && info.AgeMin >= n
}

// Subject returns the contextual-integrity data-subject description.
func (p Persona) Subject() string {
	if s := p.Info().Subject; s != "" {
		return s
	}
	return "unidentified user (age undisclosed)"
}

// Attr returns a free-form persona tag ("" when unset).
func (p Persona) Attr(key string) string { return p.Info().Attrs[key] }

// ParsePersona maps a user-facing persona name (CLI flags, upload form
// fields) to its registered ID. Canonical names match case-insensitively
// ("Logged Out" and "logged out" both resolve), as do registered aliases
// ("teen", "logged-out").
func ParsePersona(name string) (Persona, bool) {
	p, ok := personaSnap.Load().byAlias[strings.ToLower(strings.TrimSpace(name))]
	return p, ok
}

// SortPersonas sorts persona IDs in place into registry order (built-ins
// first, then registration order) and returns the slice.
func SortPersonas(ps []Persona) []Persona {
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}
