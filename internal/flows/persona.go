package flows

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Persona identifies a trace persona: the simulated user whose session a
// capture records. The paper audits exactly four personas — the child,
// adolescent, adult, and logged-out traces — but the persona space is open:
// new jurisdictions draw the age-of-consent line elsewhere (GDPR member
// states pick 13-16), and differential audits can compare along axes the
// paper never needed (region, subscription tier).
//
// A Persona is a handle: one pointer to an immutable PersonaInfo record,
// compared by identity, so per-persona grouping in the pipeline stays a
// pointer-keyed map. The four paper personas are package-level handles;
// NewPersona mints any other. Nothing about a persona lives outside its
// record, so no registry exists: a result decoded from a snapshot owns its
// custom personas' handles, and the names a process accepts are those of the
// PersonaIndex it builds from its own configuration.
//
// The zero Persona is Child, so a zero RequestRecord or PersonaPlan.Like
// still means the paper's first trace.
type Persona struct{ info *PersonaInfo }

// TraceCategory is the paper's name for a persona. The alias keeps the
// original four-trace vocabulary (and every existing call site) working
// against the open persona space.
type TraceCategory = Persona

// AgeNoLimit marks an unbounded PersonaInfo.AgeMax.
const AgeNoLimit = 1 << 30

// PersonaInfo describes a persona. Rule packs predicate on these attributes
// (disclosed age bracket, consent state, free-form tags) instead of on
// hard-coded persona identities, which is what lets one rule set cover
// personas defined after the pack was written.
type PersonaInfo struct {
	// Name is the canonical display name, as printed in report columns
	// (e.g. "Child", "Logged Out").
	Name string
	// Aliases are additional accepted spellings for PersonaIndex.Parse,
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

// The built-in records. Child's is what the zero handle points at.
var (
	childInfo = PersonaInfo{
		Name: "Child", AgeKnown: true, AgeMin: 0, AgeMax: 12,
		LoggedIn: true, Subject: "child user (under 13)",
	}
	adolescentInfo = PersonaInfo{
		Name: "Adolescent", Aliases: []string{"teen"},
		AgeKnown: true, AgeMin: 13, AgeMax: 15,
		LoggedIn: true, Subject: "adolescent user (13-15)",
	}
	adultInfo = PersonaInfo{
		Name: "Adult", AgeKnown: true, AgeMin: 16, AgeMax: AgeNoLimit,
		LoggedIn: true, Subject: "adult user (16+)",
	}
	loggedOutInfo = PersonaInfo{
		Name:    "Logged Out",
		Aliases: []string{"loggedout", "logged-out", "logged_out", "out"},
		Subject: "unidentified user (age undisclosed)",
	}
)

// Built-in personas, ordered as in the paper's tables.
var (
	Child      = Persona{}                // younger than 13 (COPPA)
	Adolescent = Persona{&adolescentInfo} // 13-15 (CCPA minors)
	Adult      = Persona{&adultInfo}      // 16 and older
	LoggedOut  = Persona{&loggedOutInfo}  // no consent, no age disclosed
)

var builtins = [...]Persona{Child, Adolescent, Adult, LoggedOut}

// builtinIndex accepts the built-in names and aliases only (which cannot
// collide).
var builtinIndex, _ = NewPersonaIndex()

// NewPersona validates info and returns its persona. A record identical to
// a built-in's returns that built-in, and one that reuses a built-in name
// or alias with other attributes is an error. Any other record gets a fresh
// handle that equals no other persona, so two calls with one info mint two
// personas. The handle keeps its own copy of Aliases and Attrs.
func NewPersona(info PersonaInfo) (Persona, error) {
	info.Name = strings.TrimSpace(info.Name)
	if info.Name == "" {
		return Persona{}, fmt.Errorf("flows: persona name required")
	}
	if info.AgeKnown && info.AgeMin > info.AgeMax {
		return Persona{}, fmt.Errorf("flows: persona %q: AgeMin %d > AgeMax %d", info.Name, info.AgeMin, info.AgeMax)
	}
	if info.Subject == "" {
		info.Subject = strings.ToLower(info.Name) + " user"
	}
	if b, hit, err := builtinIndex.clash(&info); hit {
		return b, err
	}
	info.Aliases = slices.Clone(info.Aliases)
	info.Attrs = maps.Clone(info.Attrs)
	return Persona{&info}, nil
}

// recordKey spells out a record so that two records are the same persona
// exactly when their keys are equal: aliases count case-insensitively, ages
// only when known, and an empty Attrs as none (fmt writes maps key-sorted).
func recordKey(info *PersonaInfo) string {
	r := *info
	r.Aliases = make([]string, len(info.Aliases))
	for i, a := range info.Aliases {
		r.Aliases[i] = strings.ToLower(a)
	}
	if !r.AgeKnown {
		r.AgeMin, r.AgeMax = 0, 0
	}
	if len(r.Attrs) == 0 {
		r.Attrs = nil
	}
	return fmt.Sprintf("%#v", r)
}

// PersonaIndex resolves user-facing persona names (CLI flags, upload form
// fields, the diff filter) to personas: the four built-ins plus the custom
// personas it was built with. It never changes once built, so one index
// serves concurrent readers, and what a process accepts changes only when it
// builds another.
type PersonaIndex struct {
	list    []Persona
	byAlias map[string]Persona // lowercased names and aliases
}

// NewPersonaIndex indexes the built-ins and then the given customs under
// their names and aliases. A custom identical to one already indexed under
// its name is skipped; a name or alias already taken by another persona is
// an error.
func NewPersonaIndex(customs ...Persona) (*PersonaIndex, error) {
	x := &PersonaIndex{byAlias: make(map[string]Persona)}
	for _, p := range append(builtins[:], customs...) {
		if _, hit, err := x.clash(p.record()); hit {
			if err != nil {
				return nil, err
			}
			continue
		}
		for _, s := range spellings(p.record()) {
			x.byAlias[s] = p
		}
		x.list = append(x.list, p)
	}
	return x, nil
}

// spellings lists the lowercased name, then the lowercased aliases.
func spellings(info *PersonaInfo) []string {
	out := []string{strings.ToLower(info.Name)}
	for _, a := range info.Aliases {
		if a = strings.ToLower(strings.TrimSpace(a)); a != "" && a != out[0] {
			out = append(out, a)
		}
	}
	return out
}

// clash reports whether any spelling of info is already indexed. When the
// name is, and by an identical record, it returns that persona with no
// error; every other hit is an error.
func (x *PersonaIndex) clash(info *PersonaInfo) (Persona, bool, error) {
	for i, s := range spellings(info) {
		q, ok := x.byAlias[s]
		switch {
		case !ok:
			continue
		case i > 0:
			return Persona{}, true, fmt.Errorf("flows: persona alias %q already taken by %q", s, q.record().Name)
		case recordKey(q.record()) != recordKey(info):
			return Persona{}, true, fmt.Errorf("flows: persona %q already taken by one with different attributes", info.Name)
		}
		return q, true, nil
	}
	return Persona{}, false, nil
}

// Parse maps a persona name to its persona. Canonical names match
// case-insensitively ("Logged Out" and "logged out" both resolve), as do
// aliases ("teen", "logged-out").
func (x *PersonaIndex) Parse(name string) (Persona, bool) {
	p, ok := x.byAlias[strings.ToLower(strings.TrimSpace(name))]
	return p, ok
}

// Personas lists the indexed personas: the built-ins in table order, then
// the customs in the order given.
func (x *PersonaIndex) Personas() []Persona { return slices.Clone(x.list) }

// ParsePersona maps a built-in persona name or alias to its persona. Custom
// personas parse only through a PersonaIndex that holds them.
func ParsePersona(name string) (Persona, bool) { return builtinIndex.Parse(name) }

// BuiltinPersonas returns the paper's four personas in table order.
func BuiltinPersonas() []Persona { return slices.Clone(builtins[:]) }

// BuiltinIndex returns the persona's column among the built-ins (0-3 in
// table order), or -1 for a custom persona.
func (p Persona) BuiltinIndex() int {
	for i, b := range builtins {
		if p == b {
			return i
		}
	}
	return -1
}

// record returns the persona's record; the zero handle is Child's.
func (p Persona) record() *PersonaInfo {
	if p.info == nil {
		return &childInfo
	}
	return p.info
}

// Info returns the persona's record. Its Aliases and Attrs are shared with
// the handle and must not be modified.
func (p Persona) Info() PersonaInfo { return *p.record() }

// String names the persona as printed in report columns ("Child",
// "Logged Out", ...).
func (p Persona) String() string { return p.record().Name }

// LoggedIn reports whether the persona is authenticated (has passed the
// age-disclosure and consent boundary).
func (p Persona) LoggedIn() bool { return p.record().LoggedIn }

// AgeKnown reports whether the persona disclosed an age.
func (p Persona) AgeKnown() bool { return p.record().AgeKnown }

// AgeBelow reports whether the persona's whole disclosed age bracket lies
// below n years (false when the age is unknown).
func (p Persona) AgeBelow(n int) bool {
	info := p.record()
	return info.AgeKnown && info.AgeMax < n
}

// AgeAtLeast reports whether the persona's whole disclosed age bracket is
// at least n years (false when the age is unknown).
func (p Persona) AgeAtLeast(n int) bool {
	info := p.record()
	return info.AgeKnown && info.AgeMin >= n
}

// Subject returns the contextual-integrity data-subject description.
func (p Persona) Subject() string { return p.record().Subject }

// PersonaLess orders personas as report columns: the built-ins in table
// order, then custom personas by name, and customs of one name (which only
// a result assembled by hand holds) by the rest of their records.
func PersonaLess(a, b Persona) bool {
	ia, ib := a.BuiltinIndex(), b.BuiltinIndex()
	if ia >= 0 || ib >= 0 {
		return ia >= 0 && (ib < 0 || ia < ib)
	}
	if a.info.Name != b.info.Name {
		return a.info.Name < b.info.Name
	}
	return recordKey(a.info) < recordKey(b.info)
}

// SortPersonas sorts personas in place into PersonaLess order and returns
// the slice.
func SortPersonas(ps []Persona) []Persona {
	sort.Slice(ps, func(i, j int) bool { return PersonaLess(ps[i], ps[j]) })
	return ps
}
