package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"diffaudit/internal/ats"
	"diffaudit/internal/flows"
	"diffaudit/internal/linkability"
	"diffaudit/internal/ontology"
)

func parallelTestRecords(n int) []RequestRecord {
	recs := make([]RequestRecord, 0, n)
	traces := flows.BuiltinPersonas()
	for i := 0; i < n; i++ {
		recs = append(recs, RequestRecord{
			Trace:    traces[i%len(traces)],
			Platform: flows.Platform(i % 2),
			Method:   "GET",
			URL:      fmt.Sprintf("https://api.quizlet.com/v1/x?user_id=u%d&gps_lat=1.5&os=android", i),
			FQDN:     "api.quizlet.com",
			ConnID:   fmt.Sprintf("c%d", i%7),
		})
	}
	return recs
}

// TestAnalyzeRecordsParallelMatchesSequential forces a wide worker pool
// (well past GOMAXPROCS on small machines) and checks every result field
// against a one-worker run.
func TestAnalyzeRecordsParallelMatchesSequential(t *testing.T) {
	id := ServiceIdentity{Name: "Quizlet", Owner: "Quizlet Inc", FirstPartyESLDs: []string{"quizlet.com"}}
	recs := parallelTestRecords(1200)

	seqPipe := NewPipeline()
	seqPipe.Workers = 1
	seq := seqPipe.AnalyzeRecords(id, recs)

	parPipe := NewPipeline()
	parPipe.Workers = 6
	par := parPipe.AnalyzeRecords(id, recs)

	if seq.Packets != par.Packets || seq.TCPFlows != par.TCPFlows || seq.DroppedKeys != par.DroppedKeys {
		t.Fatalf("counters diverge: seq %d/%d/%d par %d/%d/%d",
			seq.Packets, seq.TCPFlows, seq.DroppedKeys, par.Packets, par.TCPFlows, par.DroppedKeys)
	}
	for _, m := range []struct {
		name     string
		seq, par map[string]bool
	}{
		{"Domains", seq.Domains, par.Domains},
		{"ESLDs", seq.ESLDs, par.ESLDs},
		{"RawKeys", seq.RawKeys, par.RawKeys},
	} {
		if len(m.seq) != len(m.par) {
			t.Fatalf("%s size diverges: %d vs %d", m.name, len(m.seq), len(m.par))
		}
		for k := range m.seq {
			if !m.par[k] {
				t.Fatalf("%s: %q missing from parallel result", m.name, k)
			}
		}
	}
	for _, tc := range flows.BuiltinPersonas() {
		sf, pf := seq.ByTrace[tc].Flows(), par.ByTrace[tc].Flows()
		if len(sf) != len(pf) {
			t.Fatalf("trace %v: %d flows vs %d", tc, len(sf), len(pf))
		}
		for i := range sf {
			if sf[i].Key() != pf[i].Key() {
				t.Fatalf("trace %v flow %d: %q vs %q", tc, i, sf[i].Key(), pf[i].Key())
			}
			if seq.ByTrace[tc].Platforms(sf[i]) != par.ByTrace[tc].Platforms(pf[i]) {
				t.Fatalf("trace %v flow %q: platform masks diverge", tc, sf[i].Key())
			}
		}
	}
}

// renderResultArtifacts serializes every ordering-sensitive aggregate of a
// result — the Table 4 grid, the sorted flow keys, and all four
// linkability-index statistics — into one string, so byte-equality of two
// renders proves deterministic ordering end to end.
func renderResultArtifacts(r *ServiceResult) string {
	var b strings.Builder
	grid := Grid(r)
	for _, g := range ontology.Level2Groups() {
		for _, c := range flows.DestClasses() {
			fmt.Fprintf(&b, "%v/%v:", g, c)
			for _, t := range flows.BuiltinPersonas() {
				b.WriteString(grid[g][c][t].Symbol())
			}
			b.WriteByte('\n')
		}
	}
	for _, t := range flows.BuiltinPersonas() {
		set := r.ByTrace[t]
		for _, f := range set.Flows() {
			fmt.Fprintf(&b, "%v %s %s\n", t, f.Key(), set.Platforms(f).Symbol())
		}
		ix := linkability.NewIndex(set)
		fmt.Fprintf(&b, "%v linkable=%d\n", t, ix.CountLinkable())
		n, types := ix.LargestSet()
		fmt.Fprintf(&b, "%v largest=%d:", t, n)
		for _, c := range types {
			fmt.Fprintf(&b, " %s", c.Name)
		}
		b.WriteByte('\n')
		names, freq := ix.CommonSet()
		fmt.Fprintf(&b, "%v common=%d %s\n", t, freq, strings.Join(names, "|"))
		for _, o := range ix.TopATSOrgs(0) {
			fmt.Fprintf(&b, "%v org %s %d %s\n", t, o.Organization, o.Flows,
				strings.Join(o.Domains, ","))
		}
	}
	return b.String()
}

// TestArtifactsDeterministicAcrossWorkers renders every ordering-sensitive
// aggregate under several Workers settings and repeated runs; all renders
// must be byte-identical. This is the determinism contract the interned
// core inherits from the string-keyed one.
func TestArtifactsDeterministicAcrossWorkers(t *testing.T) {
	id := ServiceIdentity{Name: "Quizlet", Owner: "Quizlet Inc", FirstPartyESLDs: []string{"quizlet.com"}}
	recs := parallelTestRecords(1500)

	var want string
	for run, workers := range []int{1, 1, 4, 4, 7} {
		pipe := NewPipeline()
		pipe.Workers = workers
		got := renderResultArtifacts(pipe.AnalyzeRecords(id, recs))
		if run == 0 {
			want = got
			if want == "" {
				t.Fatal("empty artifact render")
			}
			continue
		}
		if got != want {
			t.Fatalf("run %d (workers=%d): artifacts diverge from workers=1 baseline", run, workers)
		}
	}
}

// TestLabelCacheSingleflight hammers one pipeline's label cache from many
// goroutines and checks agreement with fresh classifications — exercising
// shard locking and the singleflight path under the race detector.
func TestLabelCacheSingleflight(t *testing.T) {
	p := NewPipeline()
	keys := []string{"user_id", "gps_lat", "os", "advertising_id", "watch_time", "qzx81a"}
	var wg sync.WaitGroup
	results := make([][]bool, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]bool, len(keys))
			for i, k := range keys {
				_, ok, _ := p.labels.label(k)
				results[g][i] = ok
			}
		}(g)
	}
	wg.Wait()
	fresh := NewPipeline()
	for i, k := range keys {
		_, want, _ := fresh.labels.label(k)
		for g := range results {
			if results[g][i] != want {
				t.Fatalf("goroutine %d key %q: cached ok=%v, fresh ok=%v", g, k, results[g][i], want)
			}
		}
	}
}

// TestResultResolvesDestinations checks finalize-time party resolution:
// every distinct FQDN a partial indexed comes out of result resolved as a
// direct call resolves it, first-party split included, and the flows are
// keyed by those destinations.
func TestResultResolvesDestinations(t *testing.T) {
	p := NewPipeline()
	id := ServiceIdentity{Name: "Quizlet", Owner: "Quizlet Inc", FirstPartyESLDs: []string{"quizlet.com"}}
	fqdns := []string{"api.quizlet.com", "stats.g.doubleclick.net", "API.Quizlet.com ", "api.quizlet.com", "", "  "}
	var recs []RequestRecord
	for _, fqdn := range fqdns {
		recs = append(recs, RequestRecord{Trace: flows.Child, Platform: flows.Web, Method: "GET", FQDN: fqdn,
			URL: "https://" + strings.TrimSpace(fqdn) + "/x?user_id=u1"})
	}
	pr := newPartialResult(len(recs))
	p.analyzeChunk(recs, pr)
	if len(pr.fqdns) != 5 {
		t.Fatalf("indexed %d distinct spellings, want 5", len(pr.fqdns))
	}
	res, err := pr.result(id, false)
	if err != nil {
		t.Fatal(err)
	}

	wantDomains := map[string]bool{}
	for _, fqdn := range fqdns {
		want := flows.ResolveDestination(id.Owner, id.FirstPartyESLDs, fqdn, ats.Default())
		if want.FQDN == "" {
			continue
		}
		wantDomains[want.FQDN] = true
	}
	if !reflect.DeepEqual(res.Domains, wantDomains) {
		t.Errorf("Domains = %v, want %v", res.Domains, wantDomains)
	}
	got := map[flows.Destination]bool{}
	for _, d := range res.ByTrace[flows.Child].Destinations() {
		got[d] = true
	}
	for fqdn := range wantDomains {
		if want := flows.ResolveDestination(id.Owner, id.FirstPartyESLDs, fqdn, ats.Default()); !got[want] {
			t.Errorf("child flows lack destination %+v (have %v)", want, got)
		}
	}
	if len(got) != len(wantDomains) {
		t.Errorf("child flows reach %d destinations, want %d", len(got), len(wantDomains))
	}
}
