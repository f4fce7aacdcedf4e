package ats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultBlocksPaperATS(t *testing.T) {
	e := Default()
	blocked := []string{
		"google-analytics.com", "www.google-analytics.com",
		"doubleclick.net", "stats.g.doubleclick.net",
		"amazon-adsystem.com", "aax.amazon-adsystem.com",
		"metrics.roblox.com", "browser.events.data.microsoft.com",
		"clarity.ms", "www.clarity.ms", "pubmatic.com", "ads.pubmatic.com",
		"mathtag.com", "pixel.mathtag.com", "appsflyer.com", "adjust.com",
		"sentry.io", "o123.ingest.sentry.io", "sharethrough.com",
	}
	for _, d := range blocked {
		if !e.IsATS(d) {
			t.Errorf("IsATS(%q) = false, want blocked", d)
		}
	}
	notBlocked := []string{
		"roblox.com", "www.roblox.com", "duolingo.com", "quizlet.com",
		"minecraft.net", "tiktok.com", "youtube.com", "googleapis.com",
		"d1.cloudfront.net", "vimeocdn.com", "akamaized.net",
	}
	for _, d := range notBlocked {
		if e.IsATS(d) {
			t.Errorf("IsATS(%q) = true, want not blocked (decision %+v)", d, e.Check(d))
		}
	}
}

func TestSubdomainWalkVsExact(t *testing.T) {
	e := NewEngine(List{Name: "l", Entries: []string{"ads.example.com"}})
	if !e.Check("tr.ads.example.com").Blocked {
		t.Error("subdomain of entry should be blocked")
	}
	if !e.Check("ads.example.com").Blocked {
		t.Error("the entry itself should be blocked")
	}
	if e.Check("example.com").Blocked {
		t.Error("parent of entry must not be blocked")
	}
	if e.Check("notads.example.com").Blocked {
		t.Error("sibling must not be blocked")
	}
}

func TestDecisionDetails(t *testing.T) {
	e := NewEngine(
		List{Name: "a", Entries: []string{"example.com"}},
		List{Name: "b", Entries: []string{"ads.example.com", "example.com"}},
	)
	d := e.Check("x.ads.example.com")
	if !d.Blocked {
		t.Fatal("want blocked")
	}
	if d.Entry != "ads.example.com" {
		t.Errorf("Entry = %q, want most specific ads.example.com", d.Entry)
	}
	if len(d.Lists) != 2 || d.Lists[0] != "a" || d.Lists[1] != "b" {
		t.Errorf("Lists = %v, want [a b]", d.Lists)
	}
}

func TestAddEntriesAndSize(t *testing.T) {
	e := NewEngine()
	if e.Size() != 0 {
		t.Fatalf("empty engine size %d", e.Size())
	}
	e.AddEntries("synthetic", "trk1.example", "trk2.example", "trk1.example")
	if e.Size() != 2 {
		t.Errorf("size = %d, want 2 (dedup by domain)", e.Size())
	}
	if !e.IsATS("trk1.example") || !e.IsATS("sub.trk2.example") {
		t.Error("added entries not blocking")
	}
	if got := e.Check("trk1.example").Lists; len(got) != 1 || got[0] != "synthetic" {
		t.Errorf("Check(trk1.example).Lists = %v", got)
	}
}

func TestNormalization(t *testing.T) {
	e := NewEngine(List{Name: "l", Entries: []string{"  ADS.Example.COM. ", "", "# comment"}})
	if !e.IsATS("ads.example.com") {
		t.Error("normalized entry should block")
	}
	if !e.IsATS("ADS.EXAMPLE.COM.") {
		t.Error("normalized query should match")
	}
	if e.Size() != 1 {
		t.Errorf("size = %d, want 1 (blank and comment skipped)", e.Size())
	}
	if e.Check("").Blocked {
		t.Error("empty query must not block")
	}
}

// Property: Check is monotone — if a name is blocked, prefixing labels never
// unblocks it.
func TestBlockedMonotoneUnderSubdomains(t *testing.T) {
	e := NewEngine(List{Name: "l", Entries: []string{"tracker.example", "deep.list.co"}})
	f := func(labels []uint8) bool {
		host := "tracker.example"
		for _, l := range labels {
			host = string(rune('a'+l%26)) + "." + host
		}
		return e.IsATS(host)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: exact matching is a subset of subdomain-walk matching — a host
// that is itself an entry is blocked by the walk.
func TestExactSubsetOfWalk(t *testing.T) {
	e := Default()
	f := func(a, b uint8) bool {
		hosts := []string{
			"doubleclick.net", "x.doubleclick.net", "roblox.com",
			"metrics.roblox.com", "a.metrics.roblox.com", "example.org",
		}
		h := hosts[int(a)%len(hosts)]
		if b%2 == 0 {
			h = "p" + strings.Repeat("q", int(b%5)) + "." + h
		}
		_, exact := e.entries[h]
		return !exact || e.Check(h).Blocked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
