// Package synth fabricates the DiffAudit network-traffic dataset. It is the
// substitute for the paper's live data collection (rooted Pixel 6 +
// PCAPdroid for mobile, Chrome DevTools for web): service behavior profiles
// calibrated from the paper's published results drive a deterministic
// request planner whose output can be rendered as real HAR files and
// decryptable PCAP files. The audit pipeline re-derives every table and
// figure from this traffic without ever reading the profiles.
package synth

import (
	"fmt"
	"sort"

	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
	"diffaudit/internal/services"
)

// Request is one outgoing request template. Repeat counts how many times
// the request is re-sent during the trace (each repeat is one outgoing
// packet in Table 1 terms); Conns says over how many TCP connections the
// repeats are spread.
type Request struct {
	Service  string
	Trace    flows.TraceCategory
	Platform flows.Platform
	Method   string
	FQDN     string
	Path     string
	Cookies  []kv
	Body     map[string]string
	Repeat   int
	Conns    int
}

// URL renders the request URL.
func (r *Request) URL() string {
	return "https://" + r.FQDN + r.Path
}

// ServiceTraffic is the generated traffic of one service.
type ServiceTraffic struct {
	Spec     *services.Spec
	Requests []*Request
}

// Dataset is the full generated dataset.
type Dataset struct {
	Services []*ServiceTraffic
}

// PersonaPlan schedules traffic generation for one persona. The service
// profiles are calibrated for the paper's four built-in personas only, so
// a custom persona borrows the behavior profile (grid, linkable-party and
// largest-set targets) of a built-in template via Like — e.g. an EU teen
// persona generating "like" the adolescent trace.
type PersonaPlan struct {
	// Persona is the trace to generate.
	Persona flows.Persona
	// Like is the built-in persona whose profile column drives generation.
	// The zero value means the Child column; a built-in Persona with Like
	// unset defaults to its own column. Non-built-in Like values are
	// rejected.
	Like flows.Persona
}

// Config tunes generation.
type Config struct {
	// Scale in (0,1] multiplies packet (Repeat) and connection budgets
	// while preserving the request structure, so that wire-format tests
	// stay fast. Scale 1 reproduces the Table 1 packet counts exactly.
	Scale float64
	// Personas lists the traces to generate, in order. Empty means the
	// four built-in personas — the paper's dataset, byte-identical to the
	// closed-enum generator.
	Personas []PersonaPlan
}

// Generate fabricates the six-service dataset.
func Generate(cfg Config) *Dataset {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		cfg.Scale = 1
	}
	if len(cfg.Personas) == 0 {
		for _, t := range flows.BuiltinPersonas() {
			cfg.Personas = append(cfg.Personas, PersonaPlan{Persona: t, Like: t})
		}
	} else {
		plans := make([]PersonaPlan, len(cfg.Personas))
		copy(plans, cfg.Personas)
		for i := range plans {
			// A zero Like on a built-in persona means "itself"; custom
			// personas with an unset Like default to the Child column.
			if plans[i].Like == flows.Child && plans[i].Persona.BuiltinIndex() > 0 {
				plans[i].Like = plans[i].Persona
			}
			if plans[i].Like.BuiltinIndex() < 0 {
				panic(fmt.Sprintf("synth: persona plan %d (%s): template %s is not a built-in persona",
					i, plans[i].Persona, plans[i].Like))
			}
		}
		cfg.Personas = plans
	}
	RegisterSyntheticDomains()
	ds := &Dataset{}
	for _, spec := range services.All() {
		ds.Services = append(ds.Services, generateService(spec, cfg))
	}
	return ds
}

// Service returns one service's traffic by name.
func (d *Dataset) Service(name string) *ServiceTraffic {
	for _, s := range d.Services {
		if s.Spec.Name == name {
			return s
		}
	}
	return nil
}

// planner builds one service's request list.
type planner struct {
	spec *services.Spec
	inv  *Inventory
	reqs []*Request
	// personas lists the generated traces in plan order; like maps each to
	// the built-in persona whose profile column drives it, and ordinal
	// numbers it for the offsets that spread traces over destination pools:
	// a built-in's table index, a custom persona's position in the plan.
	personas []flows.Persona
	like     map[flows.Persona]flows.Persona
	ordinal  map[flows.Persona]int
	// covered tracks which (group, class, trace, platform) cells have been
	// realized.
	covered map[coverKey]bool
	// keyCursor rotates through each category's key pool.
	keyCursor map[string]int
	// prefOrder is the canonical category preference order.
	prefOrder []*ontology.Category
	// classOf caches destination classes per FQDN.
	classOf map[string]flows.DestClass
	// used marks FQDNs already contacted per trace.
	used map[flows.Persona]map[string]bool
	// designated marks the linkable parties per trace.
	designated map[flows.Persona]map[string]bool
	// typesSent tracks the distinct categories sent per (trace, FQDN).
	typesSent map[typeKey]map[string]bool
}

// typeKey keys typesSent.
type typeKey struct {
	t    flows.TraceCategory
	fqdn string
}

func (p *planner) typeCount(t flows.TraceCategory, fqdn string) int {
	return len(p.typesSent[typeKey{t, fqdn}])
}

func (p *planner) hasType(t flows.TraceCategory, fqdn string, cat *ontology.Category) bool {
	return p.typesSent[typeKey{t, fqdn}][cat.Name]
}

type coverKey struct {
	group ontology.Level2
	class flows.DestClass
	trace flows.TraceCategory
	plat  flows.Platform
}

func generateService(spec *services.Spec, cfg Config) *ServiceTraffic {
	p := &planner{
		spec:       spec,
		inv:        BuildInventory(spec),
		like:       make(map[flows.Persona]flows.Persona, len(cfg.Personas)),
		ordinal:    make(map[flows.Persona]int, len(cfg.Personas)),
		covered:    make(map[coverKey]bool),
		keyCursor:  make(map[string]int),
		prefOrder:  services.PreferenceOrder(),
		classOf:    make(map[string]flows.DestClass),
		used:       make(map[flows.Persona]map[string]bool, len(cfg.Personas)),
		designated: make(map[flows.Persona]map[string]bool, len(cfg.Personas)),
	}
	for i, plan := range cfg.Personas {
		p.personas = append(p.personas, plan.Persona)
		p.like[plan.Persona] = plan.Like
		p.ordinal[plan.Persona] = i
		if b := plan.Persona.BuiltinIndex(); b >= 0 {
			p.ordinal[plan.Persona] = b
		}
	}
	for class, pool := range p.inv.ByClass {
		for _, f := range pool {
			p.classOf[f] = class
		}
	}
	for _, t := range p.personas {
		p.used[t] = make(map[string]bool)
		p.designated[t] = make(map[string]bool)
	}
	p.typesSent = make(map[typeKey]map[string]bool)

	for _, t := range p.personas {
		p.planLinkable(t)
	}
	for _, t := range p.personas {
		p.planCoverage(t)
	}
	p.planLeftoverThirdParties()
	p.planFirstParties()
	p.sprinkleNoise(spec.NoiseKeys)
	p.allocate(cfg)

	return &ServiceTraffic{Spec: spec, Requests: p.reqs}
}

// mask returns the grid mask for (group, class, trace), reading the
// persona's template column of the profile grid.
func (p *planner) mask(g ontology.Level2, c flows.DestClass, t flows.TraceCategory) flows.PlatformMask {
	return p.spec.Grid.Mask(g, c, p.like[t])
}

// linkableParties returns the Figure 3 target for a persona's template.
func (p *planner) linkableParties(t flows.Persona) int {
	return p.spec.LinkableParties[p.like[t].BuiltinIndex()]
}

// largestSet returns the Figure 4 target for a persona's template.
func (p *planner) largestSet(t flows.Persona) int {
	return p.spec.LargestSet[p.like[t].BuiltinIndex()]
}

// allowedCats lists, in preference order, the observed categories whose
// group is present for (class, trace) on any platform.
func (p *planner) allowedCats(c flows.DestClass, t flows.TraceCategory) []*ontology.Category {
	var out []*ontology.Category
	for _, cat := range p.prefOrder {
		if p.mask(cat.Group, c, t) != 0 {
			out = append(out, cat)
		}
	}
	return out
}

// splitIDPI partitions categories into identifiers and personal information.
func splitIDPI(cats []*ontology.Category) (ids, pis []*ontology.Category) {
	for _, c := range cats {
		if c.IsIdentifier() {
			ids = append(ids, c)
		} else {
			pis = append(pis, c)
		}
	}
	return ids, pis
}

// firstPlatform picks the deterministic first platform of a mask.
func firstPlatform(m flows.PlatformMask) flows.Platform {
	if m&flows.OnWeb != 0 {
		return flows.Web
	}
	return flows.Mobile
}

// nextKey rotates through a category's key pool.
func (p *planner) nextKey(cat *ontology.Category) kv {
	pool := variantKeys(cat)
	i := p.keyCursor[cat.Name]
	p.keyCursor[cat.Name] = i + 1
	return pool[i%len(pool)]
}

// emit adds one request carrying the given categories to a destination on a
// platform, panicking when any category's cell lies outside the grid — the
// generator's central invariant.
func (p *planner) emit(t flows.TraceCategory, plat flows.Platform, fqdn string, cats []*ontology.Category) {
	class := p.classOf[fqdn]
	body := make(map[string]string, len(cats))
	var cookies []kv
	for _, cat := range cats {
		m := p.mask(cat.Group, class, t)
		if !m.Has(plat) {
			panic(fmt.Sprintf("synth: %s/%s: category %q (%v) to %s (%v) on %v outside grid mask %v",
				p.spec.Name, t, cat.Name, cat.Group, fqdn, class, plat, m))
		}
		k := p.nextKey(cat)
		if cat.Name == "Device Software Identifiers" && len(cookies) == 0 {
			// Software identifiers ride in cookies on real traffic.
			cookies = append(cookies, k)
		} else {
			body[k.Key] = k.Value
		}
		p.covered[coverKey{cat.Group, class, t, plat}] = true
		tk := typeKey{t, fqdn}
		if p.typesSent[tk] == nil {
			p.typesSent[tk] = make(map[string]bool)
		}
		p.typesSent[tk][cat.Name] = true
	}
	p.used[t][fqdn] = true
	p.reqs = append(p.reqs, &Request{
		Service:  p.spec.Name,
		Trace:    t,
		Platform: plat,
		Method:   "POST",
		FQDN:     fqdn,
		Path:     fmt.Sprintf("/v1/%s", pathFor(t)),
		Cookies:  cookies,
		Body:     body,
		Repeat:   1,
		Conns:    1,
	})
}

func pathFor(t flows.TraceCategory) string {
	if !t.LoggedIn() {
		return "collect"
	}
	return "events"
}

// planLinkable designates the trace's linkable third parties (Figure 3) and
// assigns them data type sets (Figure 4).
func (p *planner) planLinkable(t flows.TraceCategory) {
	n := p.linkableParties(t)
	if n == 0 {
		return
	}
	// Usable third-party classes: those allowing at least one identifier
	// and one personal-information category.
	type classInfo struct {
		class flows.DestClass
		ids   []*ontology.Category
		pis   []*ontology.Category
		all   []*ontology.Category
	}
	var usable []classInfo
	for _, c := range []flows.DestClass{flows.ThirdPartyATS, flows.ThirdParty} {
		cats := p.allowedCats(c, t)
		ids, pis := splitIDPI(cats)
		if len(ids) > 0 && len(pis) > 0 && len(p.inv.ByClass[c]) > 0 {
			usable = append(usable, classInfo{c, ids, pis, cats})
		}
	}
	if len(usable) == 0 {
		panic(fmt.Sprintf("synth: %s/%v: %d linkable parties required but no usable class", p.spec.Name, t, n))
	}

	// The head party carries the largest linkable set (Figure 4): pick the
	// usable class with the most available categories, then its pool head
	// (rotated per trace so head parties differ across traces).
	best := 0
	for i, u := range usable {
		if len(u.all) > len(usable[best].all) {
			best = i
		}
	}
	type party struct {
		fqdn string
		info classInfo
	}
	headPool := p.inv.ByClass[usable[best].class]
	head := party{headPool[(p.ordinal[t]*3)%len(headPool)], usable[best]}

	// Remaining designated FQDNs: round-robin across usable classes,
	// rotating the pool start per trace, skipping the head.
	parties := []party{head}
	p.designated[t][head.fqdn] = true
	taken := map[string]bool{head.fqdn: true}
	idx := make([]int, len(usable))
	for i := 0; len(parties) < n; i++ {
		ci := usable[i%len(usable)]
		pool := p.inv.ByClass[ci.class]
		if idx[i%len(usable)] >= len(pool) {
			exhausted := true
			for j, u := range usable {
				if idx[j] < len(p.inv.ByClass[u.class]) {
					exhausted = false
				}
			}
			if exhausted {
				panic(fmt.Sprintf("synth: %s/%v: third-party pools too small for %d linkable parties", p.spec.Name, t, n))
			}
			continue
		}
		off := (idx[i%len(usable)] + p.ordinal[t]*3) % len(pool)
		fqdn := pool[off]
		idx[i%len(usable)]++
		if taken[fqdn] {
			continue
		}
		taken[fqdn] = true
		p.designated[t][fqdn] = true
		parties = append(parties, party{fqdn, ci})
	}

	k := p.largestSet(t)
	types := head.info.all
	if len(types) > k {
		types = types[:k]
	}
	// The head set must be linkable itself.
	if ids, pis := splitIDPI(types); len(ids) == 0 || len(pis) == 0 {
		panic(fmt.Sprintf("synth: %s/%v: largest set of %d not linkable", p.spec.Name, t, k))
	}
	p.emitByPlatform(t, head.fqdn, types)

	// Standard sets for the remaining parties: one identifier plus up to
	// four personal-information categories, never exceeding the head set.
	for _, pt := range parties[1:] {
		size := len(types)
		if size > 5 {
			size = 5
		}
		set := []*ontology.Category{pt.info.ids[0]}
		for _, pi := range pt.info.pis {
			if len(set) >= size {
				break
			}
			set = append(set, pi)
		}
		p.emitByPlatform(t, pt.fqdn, set)
	}
}

// emitByPlatform bundles categories per platform (each category goes to the
// first platform its cell allows) and emits one request per platform.
func (p *planner) emitByPlatform(t flows.TraceCategory, fqdn string, cats []*ontology.Category) {
	class := p.classOf[fqdn]
	byPlat := map[flows.Platform][]*ontology.Category{}
	for _, cat := range cats {
		m := p.mask(cat.Group, class, t)
		if m == 0 {
			panic(fmt.Sprintf("synth: %s/%v: category %q not allowed toward class %v", p.spec.Name, t, cat.Name, class))
		}
		plat := firstPlatform(m)
		byPlat[plat] = append(byPlat[plat], cat)
	}
	for _, plat := range []flows.Platform{flows.Web, flows.Mobile} {
		if len(byPlat[plat]) > 0 {
			p.emit(t, plat, fqdn, byPlat[plat])
		}
	}
}

// planCoverage tops up every grid cell so the realized grid equals the
// profile exactly: for each (group, class, platform) present in the grid,
// at least one flow must exist.
func (p *planner) planCoverage(t flows.TraceCategory) {
	for _, g := range ontology.Level2Groups() {
		// Representative category: first observed preference-order member.
		var rep *ontology.Category
		for _, cat := range p.prefOrder {
			if cat.Group == g {
				rep = cat
				break
			}
		}
		if rep == nil {
			continue
		}
		for _, c := range flows.DestClasses() {
			m := p.mask(g, c, t)
			for _, plat := range []flows.Platform{flows.Web, flows.Mobile} {
				if !m.Has(plat) || p.covered[coverKey{g, c, t, plat}] {
					continue
				}
				fqdn := p.pickDest(t, c, rep)
				p.emit(t, plat, fqdn, []*ontology.Category{rep})
			}
		}
	}
}

// pickDest selects a destination of the class for a category.
//
// Identifier categories toward third parties must reuse a designated
// linkable party (Figure 3 stays exact), preferring one that already
// received the category so the largest set (Figure 4) stays exact.
// Personal-information categories prefer a non-designated party, which a
// single personal-information type cannot make linkable.
func (p *planner) pickDest(t flows.TraceCategory, c flows.DestClass, cat *ontology.Category) string {
	pool := p.inv.ByClass[c]
	if len(pool) == 0 {
		panic(fmt.Sprintf("synth: %s: empty pool for class %v", p.spec.Name, c))
	}
	if !c.IsThirdParty() {
		return pool[p.ordinal[t]%len(pool)]
	}
	if cat.IsIdentifier() {
		best := ""
		for _, f := range pool {
			if !p.designated[t][f] {
				continue
			}
			if p.hasType(t, f, cat) {
				return f
			}
			if best == "" || p.typeCount(t, f) < p.typeCount(t, best) {
				best = f
			}
		}
		if best == "" {
			panic(fmt.Sprintf("synth: %s/%v: identifier coverage for class %v needs a designated party", p.spec.Name, t, c))
		}
		return best
	}
	for _, f := range pool {
		if !p.designated[t][f] {
			return f
		}
	}
	// Every pool member is designated: reuse the smallest set.
	best := pool[0]
	for _, f := range pool {
		if p.typeCount(t, f) < p.typeCount(t, best) {
			best = f
		}
	}
	return best
}

// planLeftoverThirdParties contacts every third-party FQDN not yet used in
// any trace, sending a single personal-information category (non-linkable).
func (p *planner) planLeftoverThirdParties() {
	home := 0
	for _, c := range []flows.DestClass{flows.ThirdParty, flows.ThirdPartyATS} {
		for _, fqdn := range p.inv.ByClass[c] {
			usedAnywhere := false
			for _, t := range p.personas {
				if p.used[t][fqdn] {
					usedAnywhere = true
					break
				}
			}
			if usedAnywhere {
				continue
			}
			// Find a home trace whose grid allows a personal-information
			// flow to this class.
			placed := false
			for i := 0; i < len(p.personas) && !placed; i++ {
				t := p.personas[(home+i)%len(p.personas)]
				_, pis := splitIDPI(p.allowedCats(c, t))
				if len(pis) == 0 {
					continue
				}
				cats := []*ontology.Category{pis[home%len(pis)]}
				if len(pis) > 1 {
					second := pis[(home+1)%len(pis)]
					if second != cats[0] {
						cats = append(cats, second)
					}
				}
				p.emitByPlatform(t, fqdn, cats)
				placed = true
			}
			if !placed {
				panic(fmt.Sprintf("synth: %s: no home trace for third party %s (class %v)", p.spec.Name, fqdn, c))
			}
			home++
		}
	}
}

// planFirstParties contacts every first-party FQDN, rotating categories so
// all observed data types surface in the dataset.
func (p *planner) planFirstParties() {
	rot := 0
	for _, c := range []flows.DestClass{flows.FirstParty, flows.FirstPartyATS} {
		for _, fqdn := range p.inv.ByClass[c] {
			// Home trace: rotate; the grid has first-party flows in every
			// trace for every service, but guard anyway.
			placed := false
			for i := 0; i < len(p.personas) && !placed; i++ {
				t := p.personas[(rot+i)%len(p.personas)]
				cats := p.allowedCats(c, t)
				if len(cats) == 0 {
					continue
				}
				// Three categories per host, rotating over the allowed list.
				pick := []*ontology.Category{cats[rot%len(cats)]}
				for k := 1; k <= 2 && k < len(cats); k++ {
					pick = append(pick, cats[(rot+k)%len(cats)])
				}
				p.emitByPlatform(t, fqdn, pick)
				placed = true
			}
			if !placed {
				panic(fmt.Sprintf("synth: %s: no home trace for first party %s", p.spec.Name, fqdn))
			}
			rot++
		}
	}
}

// allocate distributes the Table 1 packet and TCP-flow budgets across the
// planned requests.
func (p *planner) allocate(cfg Config) {
	n := len(p.reqs)
	if n == 0 {
		return
	}
	packets := int(float64(p.spec.Table1.Packets) * cfg.Scale)
	conns := int(float64(p.spec.Table1.TCPFlows) * cfg.Scale)
	if packets < n {
		packets = n
	}
	if conns < n {
		conns = n
	}
	base, rem := packets/n, packets%n
	for i, r := range p.reqs {
		r.Repeat = base
		if i < rem {
			r.Repeat++
		}
	}
	// Connections: at least one per request, remainder spread while
	// respecting Conns ≤ Repeat.
	left := conns - n
	for left > 0 {
		progress := false
		for _, r := range p.reqs {
			if left == 0 {
				break
			}
			if r.Conns < r.Repeat {
				add := r.Repeat - r.Conns
				if add > left {
					add = left
				}
				// Spread gently: cap per pass.
				if cap := r.Repeat / 4; cap > 0 && add > cap {
					add = cap
				}
				if add == 0 {
					add = 1
				}
				r.Conns += add
				left -= add
				progress = true
			}
		}
		if !progress {
			break // all requests saturated (Conns == Repeat)
		}
	}
	// Sort requests deterministically: by trace, platform, FQDN.
	sort.SliceStable(p.reqs, func(a, b int) bool {
		ra, rb := p.reqs[a], p.reqs[b]
		if ra.Trace != rb.Trace {
			return flows.PersonaLess(ra.Trace, rb.Trace)
		}
		if ra.Platform != rb.Platform {
			return ra.Platform < rb.Platform
		}
		return ra.FQDN < rb.FQDN
	})
}
