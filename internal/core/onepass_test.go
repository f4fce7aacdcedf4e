package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/domains"
	"diffaudit/internal/extract"
	"diffaudit/internal/flows"
	"diffaudit/internal/report"
	"diffaudit/internal/store"
)

// onePassHosts are the registrable domains the random streams draw from:
// ordinary sites, two block-listed trackers (so the guessed first party is
// sometimes itself an ATS), a multi-label public suffix and a single label.
var onePassHosts = []string{"quizlet.com", "doubleclick.net", "google-analytics.com", "shop.co.uk", "intranet"}

// onePassSpelling renders host the ways captures spell destinations: bare,
// under a subdomain, mixed case, with a port, with a scheme and path left
// on, with a trailing dot or stray blanks.
func onePassSpelling(rng *rand.Rand, host string) string {
	subs := []string{"", "stats.g."}
	fqdn := subs[rng.Intn(len(subs))] + host
	switch rng.Intn(16) {
	case 0, 1:
		return strings.ToUpper(fqdn[:3]) + fqdn[3:]
	case 2, 3:
		return "  " + fqdn + " "
	case 4:
		return fqdn + ":8443"
	case 5:
		return "https://" + fqdn + "/collect?x=1"
	case 6:
		return fqdn + "."
	}
	return fqdn
}

// onePassRecords fabricates one seeded record stream. A slice of the
// records goes to IP literals and to blank or unparseable destinations, and
// every fourth stream is topped up until its two most-contacted eSLDs tie.
func onePassRecords(seed int64, personas []flows.Persona) []core.RequestRecord {
	rng := rand.New(rand.NewSource(seed))
	var pool []string
	for _, h := range onePassHosts {
		for w := rng.Intn(4); w > 0; w-- {
			pool = append(pool, h)
		}
	}
	oddities := []string{"", "   ", "10.1.2.3", "10.1.2.3:8080", "[2001:db8::1]:443", "com", ".", "http://"}
	keys := []string{"user_id", "email", "gps_lat", "os", "device_id", "qzx81a"}

	// Mostly one or two chunks; every fifth stream is long enough to keep
	// four workers busy, every tenth is next to empty.
	n := rng.Intn(2 * 256)
	switch seed % 10 {
	case 0:
		n = rng.Intn(6)
	case 3, 7:
		n = 3*256 + rng.Intn(2*256)
	}
	recs := make([]core.RequestRecord, 0, n)
	for i := 0; i < n; i++ {
		var fqdn string
		switch {
		case len(pool) == 0 || rng.Intn(12) == 0:
			fqdn = oddities[rng.Intn(len(oddities))]
		default:
			fqdn = onePassSpelling(rng, pool[rng.Intn(len(pool))])
		}
		rec := core.RequestRecord{
			Trace:    personas[rng.Intn(len(personas))],
			Platform: flows.Platform(rng.Intn(2)),
			Method:   "POST",
			URL:      fmt.Sprintf("https://h/p?%s=v%d&%s=1", keys[rng.Intn(len(keys))], i, keys[rng.Intn(len(keys))]),
			FQDN:     fqdn,
			Repeat:   rng.Intn(4),
			ConnID:   fmt.Sprintf("c%d", rng.Intn(40)),
		}
		if rng.Intn(3) == 0 {
			rec.Cookies = []extract.KVPair{{Name: keys[rng.Intn(len(keys))], Value: "1"}}
		}
		if rng.Intn(4) == 0 {
			rec.BodyMIME = "application/json"
			rec.Body = []byte(fmt.Sprintf(`{"%s":{"%s":%d}}`, keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))], i))
		}
		recs = append(recs, rec)
	}
	if seed%4 == 1 {
		recs = tieTopESLDs(recs)
	}
	return recs
}

// tieTopESLDs appends copies of a record of the second most-contacted
// eSLD until it has as many records as the first.
func tieTopESLDs(recs []core.RequestRecord) []core.RequestRecord {
	counts := map[string]int{}
	sample := map[string]core.RequestRecord{}
	for _, r := range recs {
		if e := domains.ESLD(r.FQDN); e != "" {
			counts[e]++
			sample[e] = r
		}
	}
	var first, second string
	for e, n := range counts {
		switch {
		case first == "" || n > counts[first] || (n == counts[first] && e < first):
			first, second = e, first
		case second == "" || n > counts[second] || (n == counts[second] && e < second):
			second = e
		}
	}
	if second == "" {
		return recs
	}
	for n := counts[first] - counts[second]; n > 0; n-- {
		recs = append(recs, sample[second])
	}
	return recs
}

// artifacts are what two audits must agree on to be the same audit: the
// identity, the rendered report and the stored snapshot's content hash.
type artifacts struct {
	id   core.ServiceIdentity
	json []byte
	hash [sha256.Size]byte
}

func artifactsOf(t *testing.T, r *core.ServiceResult) artifacts {
	t.Helper()
	body, err := report.ExportJSON([]*core.ServiceResult{r})
	if err != nil {
		t.Fatal(err)
	}
	return artifacts{id: r.Identity, json: body, hash: sha256.Sum256(store.EncodeResult(r))}
}

// TestOnePassMatchesTwoStep is the property the single ingest pass rests
// on: auditing a stream whose service is unknown equals guessing the
// identity from the records first and auditing them under it — on the
// identity, on the report bytes and on the snapshot hash — at every worker
// count.
func TestOnePassMatchesTwoStep(t *testing.T) {
	custom, err := flows.NewPersona(flows.PersonaInfo{Name: "onepass-tween", AgeKnown: true, AgeMin: 10, AgeMax: 12, LoggedIn: true})
	if err != nil {
		t.Fatal(err)
	}
	personas := append(flows.BuiltinPersonas(), custom)

	reference := core.NewPipeline()
	reference.Workers = 1
	pipes := map[int]*core.Pipeline{}
	for _, w := range []int{1, 2, 4} {
		pipes[w] = core.NewPipeline()
		pipes[w].Workers = w
	}

	ties := 0
	for seed := int64(0); seed < 220; seed++ {
		recs := onePassRecords(seed, personas)
		name := fmt.Sprintf("svc-%d", seed)
		id := core.GuessIdentity(name, recs)
		want := artifactsOf(t, reference.AnalyzeRecords(id, recs))
		if len(id.FirstPartyESLDs) == 1 && topCountTied(recs, id.FirstPartyESLDs[0]) {
			ties++
		}

		for _, w := range []int{1, 2, 4} {
			res, _, err := pipes[w].Audit(context.Background(), core.ServiceIdentity{Name: name}, true, core.SliceSource(recs))
			if err != nil {
				t.Fatal(err)
			}
			got := artifactsOf(t, res)
			if !reflect.DeepEqual(got.id, want.id) {
				t.Fatalf("seed %d workers %d: identity %+v, two-step %+v", seed, w, got.id, want.id)
			}
			if !bytes.Equal(got.json, want.json) {
				t.Fatalf("seed %d workers %d: report.json differs from the two-step audit (%d vs %d bytes)", seed, w, len(got.json), len(want.json))
			}
			if got.hash != want.hash {
				t.Fatalf("seed %d workers %d: snapshot hash differs from the two-step audit", seed, w)
			}
		}
	}
	if ties < 40 {
		t.Fatalf("only %d of the streams tied on the top eSLD count; the generator no longer exercises the tie-break", ties)
	}
}

// topCountTied reports whether some other eSLD was contacted by as many
// records as the winner.
func topCountTied(recs []core.RequestRecord, winner string) bool {
	counts := map[string]int{}
	for _, r := range recs {
		if e := core.GuessIdentity("", []core.RequestRecord{r}).FirstPartyESLDs; len(e) == 1 {
			counts[e[0]]++
		}
	}
	for e, n := range counts {
		if e != winner && n == counts[winner] {
			return true
		}
	}
	return false
}
