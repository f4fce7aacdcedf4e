package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/linkability"
	"diffaudit/internal/ontology"
	"diffaudit/internal/store"
	"diffaudit/internal/synth"
)

// Destination symbols belong to one result's table, so everything that
// looks at two results at once — Diff, LongitudinalFiltered, Totals, a
// Merge of a foreign set — has to compare by content, and everything that
// looks at one set has to come out the same whatever IDs its table
// assigned. The oracle below never sees an ID: it works on the flows that
// were added, by value, keyed on Flow.Key().

// added is one Set.Add call.
type added struct {
	f flows.Flow
	p flows.Platform
}

// oracleFlows is a set as the string-keyed core held it: the distinct
// flows by value with their masks, in Key order, destination content
// breaking the ties one FQDN in two roles produces.
func oracleFlows(adds []added) ([]flows.Flow, map[flows.Flow]flows.PlatformMask) {
	masks := map[flows.Flow]flows.PlatformMask{}
	for _, a := range adds {
		masks[a.f] |= a.p.Mask()
	}
	var out []flows.Flow
	for f := range masks {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.Key() != y.Key() {
			return x.Key() < y.Key()
		}
		return fmt.Sprint(x.Dest.ESLD, "\x00", x.Dest.Owner, "\x00", int(x.Dest.Class)) <
			fmt.Sprint(y.Dest.ESLD, "\x00", y.Dest.Owner, "\x00", int(y.Dest.Class))
	})
	return out, masks
}

// firstPerKey keeps the first flow of each Flow.Key() — the flow a
// Key-deduplicating consumer (Diff) reports.
func firstPerKey(fl []flows.Flow) (out []flows.Flow, keys map[string]bool) {
	keys = map[string]bool{}
	for _, f := range fl {
		if !keys[f.Key()] {
			keys[f.Key()] = true
			out = append(out, f)
		}
	}
	return out, keys
}

// oracleDiff is Diff on Flow.Key().
func oracleDiff(a, b []added) core.FlowDiff {
	fa, _ := oracleFlows(a)
	fb, _ := oracleFlows(b)
	fa, inA := firstPerKey(fa)
	fb, inB := firstPerKey(fb)
	var d core.FlowDiff
	for _, f := range fa {
		if inB[f.Key()] {
			d.Both = append(d.Both, f)
		} else {
			d.OnlyA = append(d.OnlyA, f)
		}
	}
	for _, f := range fb {
		if !inA[f.Key()] {
			d.OnlyB = append(d.OnlyB, f)
		}
	}
	return d
}

// oracleGrid is a set at Table 4 granularity as the string-keyed core
// built it: "group/class" → the union of the masks of that cell's flows.
func oracleGrid(adds []added) map[string]flows.PlatformMask {
	g := map[string]flows.PlatformMask{}
	for _, a := range adds {
		g[a.f.Category.Group.String()+"/"+a.f.Dest.Class.String()] |= a.p.Mask()
	}
	return g
}

// oracleGridDiff is GridSimilarity and GridDiff on oracle grids.
func oracleGridDiff(a, b []added) (float64, []core.GroupDelta) {
	ga, gb := oracleGrid(a), oracleGrid(b)
	same, total := 0, 0
	for _, g := range ontology.FlowGroups() {
		for _, c := range flows.DestClasses() {
			total++
			if cell := g.String() + "/" + c.String(); (ga[cell] != 0) == (gb[cell] != 0) {
				same++
			}
		}
	}
	var deltas []core.GroupDelta
	for _, g := range ontology.Level2Groups() {
		for _, c := range flows.DestClasses() {
			cell := g.String() + "/" + c.String()
			if ia, ib := ga[cell] != 0, gb[cell] != 0; ia != ib {
				deltas = append(deltas, core.GroupDelta{Group: g, Class: c, InA: ia, InB: ib})
			}
		}
	}
	return float64(same) / float64(total), deltas
}

// tableWorld draws random sets over a small universe: a dozen hostnames,
// one of which (two-roles.example) different services resolved to
// different roles, and six categories of both linkability buckets.
type tableWorld struct {
	rng   *rand.Rand
	dests []flows.Destination
	cats  []*ontology.Category
}

func newTableWorld(seed int64) *tableWorld {
	w := &tableWorld{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 12; i++ {
		esld := fmt.Sprintf("host%d.example", i)
		w.dests = append(w.dests, flows.Destination{FQDN: "www." + esld, ESLD: esld, Owner: esld,
			Class: flows.DestClass(i % 4)})
	}
	for _, d := range []flows.Destination{
		{FQDN: "two-roles.example", ESLD: "two-roles.example", Owner: "Org A", Class: flows.ThirdParty},
		{FQDN: "two-roles.example", ESLD: "two-roles.example", Owner: "Org B", Class: flows.ThirdPartyATS},
		{FQDN: "two-roles.example", ESLD: "two-roles.example", Owner: "Org A", Class: flows.FirstParty},
	} {
		w.dests = append(w.dests, d)
	}
	for _, name := range []string{"Aliases", "Age", "Language", "Contact Information", "Location Time", "Name"} {
		w.cats = append(w.cats, mustCat(name))
	}
	return w
}

func (w *tableWorld) adds(n int) []added {
	out := make([]added, n)
	for i := range out {
		out[i] = added{
			f: flows.Flow{Category: w.cats[w.rng.Intn(len(w.cats))], Dest: w.dests[w.rng.Intn(len(w.dests))]},
			p: flows.Platform(w.rng.Intn(2)),
		}
	}
	return out
}

// build replays adds into a set over tab (a table of its own when nil),
// after interning a random few destinations the set may never use, so the
// same flows land on different IDs from one build to the next.
func (w *tableWorld) build(tab *flows.Table, adds []added) *flows.Set {
	if tab == nil {
		tab = flows.NewTable()
	}
	for i := w.rng.Intn(6); i > 0; i-- {
		tab.Intern(w.dests[w.rng.Intn(len(w.dests))])
	}
	if w.rng.Intn(2) == 0 {
		tab.Seal()
	}
	set := tab.NewSet(0)
	for _, i := range w.rng.Perm(len(adds)) {
		set.Add(adds[i].f, adds[i].p)
	}
	return set
}

// result assembles a two-persona result, its sets sharing one table or not.
func (w *tableWorld) result(name string, child, adult []added) *core.ServiceResult {
	var tab *flows.Table
	if w.rng.Intn(2) == 0 {
		tab = flows.NewTable()
	}
	return &core.ServiceResult{
		Identity: core.ServiceIdentity{Name: name},
		ByTrace:  map[flows.Persona]*flows.Set{flows.Child: w.build(tab, child), flows.Adult: w.build(tab, adult)},
	}
}

// checkSet compares one built set with the oracle: sorted flows, masks,
// destinations and the linkability view.
func checkSet(t *testing.T, what string, set *flows.Set, adds []added) {
	t.Helper()
	want, masks := oracleFlows(adds)
	if got := set.Flows(); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
		t.Fatalf("%s: Flows() = %v, want %v", what, got, want)
	}
	for f, m := range masks {
		if got := set.Platforms(f); got != m {
			t.Fatalf("%s: Platforms(%v) = %v, want %v", what, f, got, m)
		}
	}
	set.RangeSorted(func(key uint64, m flows.PlatformMask) {
		if f := set.Table().FlowOfKey(key); masks[f] != m {
			t.Fatalf("%s: RangeSorted hands %v mask %v, want %v", what, f, m, masks[f])
		}
	})
	grid, wantGrid := set.GroupGrid(), oracleGrid(adds)
	for _, g := range ontology.Level2Groups() {
		for _, c := range flows.DestClasses() {
			if got, want := grid[g][c], wantGrid[g.String()+"/"+c.String()]; got != want {
				t.Fatalf("%s: GroupGrid %v/%v = %v, want %v", what, g, c, got, want)
			}
		}
	}

	// Destinations: per FQDN the destination of the first flow, by FQDN.
	var wantDests []flows.Destination
	// Parties: per third-party FQDN the first third-party destination and
	// the sorted distinct category names received under any such role.
	type party struct {
		dest  flows.Destination
		names []string
	}
	parties := map[string]*party{}
	seen := map[string]bool{}
	for _, f := range want {
		if !seen[f.Dest.FQDN] {
			seen[f.Dest.FQDN] = true
			wantDests = append(wantDests, f.Dest)
		}
		if f.Dest.Class.IsThirdParty() {
			p := parties[f.Dest.FQDN]
			if p == nil {
				p = &party{dest: f.Dest}
				parties[f.Dest.FQDN] = p
			}
			if i := sort.SearchStrings(p.names, f.Category.Name); i == len(p.names) || p.names[i] != f.Category.Name {
				p.names = append(p.names, f.Category.Name)
				sort.Strings(p.names)
			}
		}
	}
	sort.Slice(wantDests, func(i, j int) bool { return wantDests[i].FQDN < wantDests[j].FQDN })
	if got := set.Destinations(); !reflect.DeepEqual(got, wantDests) && (len(got) != 0 || len(wantDests) != 0) {
		t.Fatalf("%s: Destinations() = %v, want %v", what, got, wantDests)
	}
	got := linkability.NewIndex(set).Parties()
	if len(got) != len(parties) {
		t.Fatalf("%s: %d linkability parties, want %d", what, len(got), len(parties))
	}
	for i, p := range got {
		w := parties[p.Dest.FQDN]
		if w == nil || p.Dest != w.dest || !reflect.DeepEqual(p.TypeNames(), w.names) {
			t.Fatalf("%s: party %d = %+v %v, want %+v", what, i, p.Dest, p.TypeNames(), w)
		}
		if i > 0 && got[i-1].Dest.FQDN >= p.Dest.FQDN {
			t.Fatalf("%s: parties out of FQDN order at %d", what, i)
		}
		var ids, pis bool
		for _, c := range p.Types {
			if c.IsIdentifier() {
				ids = true
			} else {
				pis = true
			}
		}
		if p.Linkable != (ids && pis) {
			t.Fatalf("%s: party %s linkable = %v with types %v", what, p.Dest.FQDN, p.Linkable, p.TypeNames())
		}
	}
}

// TestCrossTableOperationsMatchStringOracle: 300 seeded rounds of two
// results built against different tables.
func TestCrossTableOperationsMatchStringOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		crossTableRound(t, seed)
	}
}

// FuzzCrossTableDiff runs one round of
// TestCrossTableOperationsMatchStringOracle per seed.
func FuzzCrossTableDiff(f *testing.F) {
	for _, seed := range []int64{1, 2, 5, 10} {
		f.Add(seed)
	}
	f.Fuzz(crossTableRound)
}

// crossTableRound builds two results from one seed and checks every
// operation across their tables against the oracle: once as built, whose
// sets sort lazily, and once after a snapshot round trip, whose sets take
// their runs from the decoder.
func crossTableRound(t *testing.T, seed int64) {
	w := newTableWorld(seed)
	ac, aa := w.adds(w.rng.Intn(40)), w.adds(w.rng.Intn(40))
	bc, ba := w.adds(w.rng.Intn(40)), w.adds(w.rng.Intn(40))
	if seed%5 == 0 {
		bc = append(bc, ac...) // a persona that mostly did not change
	}
	a, b := w.result("A", ac, aa), w.result("B", bc, ba)
	adds := map[flows.Persona][2][]added{flows.Child: {ac, bc}, flows.Adult: {aa, ba}}
	for _, decoded := range []bool{false, true} {
		what := fmt.Sprintf("seed %d", seed)
		if decoded {
			a, b = roundTrip(t, a), roundTrip(t, b)
			what += " decoded"
		}
		checkSet(t, what+" A/child", a.ByTrace[flows.Child], ac)
		checkSet(t, what+" B/adult", b.ByTrace[flows.Adult], ba)

		want := oracleDiff(ac, bc)
		if got := core.Diff(a.ByTrace[flows.Child], b.ByTrace[flows.Child]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Diff = %+v, want %+v", what, got, want)
		}
		wantSim, wantDeltas := oracleGridDiff(ac, bc)
		if got := core.GridSimilarity(a.ByTrace[flows.Child], b.ByTrace[flows.Child]); got != wantSim {
			t.Fatalf("%s: GridSimilarity = %v, want %v", what, got, wantSim)
		}
		if got := core.GridDiff(a.ByTrace[flows.Child], b.ByTrace[flows.Child]); !reflect.DeepEqual(got, wantDeltas) {
			t.Fatalf("%s: GridDiff = %+v, want %+v", what, got, wantDeltas)
		}
		only, personas := map[string]bool{flows.Child.String(): true}, 1
		if seed%2 == 0 {
			only, personas = nil, 2
		}
		ld := core.LongitudinalFiltered(a, b, only)
		if len(ld.Personas) != personas || ld.Personas[0].Persona != flows.Child {
			t.Fatalf("%s: longitudinal personas = %+v", what, ld.Personas)
		}
		for _, pd := range ld.Personas {
			side := adds[pd.Persona]
			want := oracleDiff(side[0], side[1])
			if !reflect.DeepEqual(pd.Added, want.OnlyB) || !reflect.DeepEqual(pd.Removed, want.OnlyA) || pd.Unchanged != len(want.Both) {
				t.Fatalf("%s: longitudinal %v delta = +%v -%v =%d, want +%v -%v =%d", what, pd.Persona,
					pd.Added, pd.Removed, pd.Unchanged, want.OnlyB, want.OnlyA, len(want.Both))
			}
			wantSim, wantDeltas := oracleGridDiff(side[0], side[1])
			if pd.GridSimilarity != wantSim || !reflect.DeepEqual(pd.GridDeltas, wantDeltas) {
				t.Fatalf("%s: longitudinal %v grid = %v %+v, want %v %+v", what, pd.Persona,
					pd.GridSimilarity, pd.GridDeltas, wantSim, wantDeltas)
			}
		}

		_, keys := firstPerKey(flowsOnly(ac, aa, bc, ba))
		if got := core.Totals([]*core.ServiceResult{a, b}).UniqueFlows; got != len(keys) {
			t.Fatalf("%s: Totals.UniqueFlows = %d, want %d", what, got, len(keys))
		}
		_, keys = firstPerKey(flowsOnly(ac, aa))
		if got := core.Totals([]*core.ServiceResult{a}).UniqueFlows; got != len(keys) {
			t.Fatalf("%s: Totals of A alone: UniqueFlows = %d, want %d", what, got, len(keys))
		}

		// Merge: a foreign set by content, a sibling by direct union, and
		// a result's persona sets into a set over the result's own table.
		merged := w.build(nil, ac)
		merged.Merge(b.ByTrace[flows.Adult])
		merged.Merge(w.build(merged.Table(), aa))
		checkSet(t, what+" merged", merged, append(append(append([]added{}, ac...), ba...), aa...))
		union := a.ByTrace[flows.Child].Table().NewSet(0)
		for _, p := range a.Personas() {
			union.Merge(a.ByTrace[p])
		}
		checkSet(t, what+" A's union", union, append(append([]added{}, ac...), aa...))
	}
}

// roundTrip passes a result through the snapshot codec.
func roundTrip(t *testing.T, r *core.ServiceResult) *core.ServiceResult {
	t.Helper()
	out, err := store.DecodeResult(store.EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func flowsOnly(lists ...[]added) []flows.Flow {
	var out []flows.Flow
	for _, l := range lists {
		for _, a := range l {
			out = append(out, a.f)
		}
	}
	return out
}

// sortedIDs lists a result's packed keys per persona, in sorted order.
func sortedIDs(r *core.ServiceResult) map[flows.Persona][]uint64 {
	out := map[flows.Persona][]uint64{}
	for p, set := range r.ByTrace {
		set.RangeSorted(func(key uint64, _ flows.PlatformMask) { out[p] = append(out[p], key) })
	}
	return out
}

// TestResultIndependentOfWhatElseTheProcessAudited: a result's symbols and
// personas are its own, so auditing another service and decoding it, custom
// persona included, between two audits of the same records changes nothing
// about the second — not the snapshot bytes, not the report, not even the
// IDs its flows are keyed by — and teaches the persona name index nothing.
func TestResultIndependentOfWhatElseTheProcessAudited(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.002})
	pipe := core.NewPipeline()
	pipe.Workers = 1 // more workers index FQDNs in scheduling order; IDs then differ, artifacts do not
	audit := func(name string) *core.ServiceResult {
		st := ds.Service(name)
		return pipe.AnalyzeRecords(st.Identity(), st.Records())
	}
	first := audit("Quizlet")
	want, wantIDs := artifactsOf(t, first), sortedIDs(first)

	builtins := flows.BuiltinPersonas()
	other := audit("TikTok")
	ghost, err := flows.NewPersona(flows.PersonaInfo{Name: "Ghost Kid", AgeKnown: true, AgeMin: 5, AgeMax: 9, LoggedIn: true})
	if err != nil {
		t.Fatal(err)
	}
	other.ByTrace[ghost] = other.ByTrace[flows.Child]
	decoded, err := store.DecodeResult(store.EncodeResult(other))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.ByTrace) != 5 || decoded.ByTrace[ghost] != nil {
		t.Fatalf("decoded personas %v: want the four built-ins and a Ghost Kid of the result's own", decoded.Personas())
	}
	if core.Longitudinal(first, decoded).Changed() == false {
		t.Fatal("two different services diffed as unchanged")
	}
	if _, ok := flows.ParsePersona("ghost kid"); ok {
		t.Error("decoding a snapshot taught the persona name index its custom persona")
	}
	if x, err := flows.NewPersonaIndex(); err != nil || !reflect.DeepEqual(x.Personas(), builtins) {
		t.Errorf("persona name index after the decode = %v, %v; want the built-ins", x, err)
	}

	second := audit("Quizlet")
	got := artifactsOf(t, second)
	if got.hash != want.hash || !bytes.Equal(got.json, want.json) {
		t.Error("auditing another service in between changed the snapshot or the report")
	}
	if !reflect.DeepEqual(sortedIDs(second), wantIDs) {
		t.Error("auditing another service in between changed the IDs the result's flows are keyed by")
	}
	// And the first result still renders as it did: nothing it refers to moved.
	if again := artifactsOf(t, first); again.hash != want.hash || !bytes.Equal(again.json, want.json) {
		t.Error("the first result renders differently after later audits")
	}
}
