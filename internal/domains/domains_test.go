package domains

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExtractBasic(t *testing.T) {
	cases := []struct {
		in                  string
		sub, domain, suffix string
	}{
		{"www.roblox.com", "www", "roblox", "com"},
		{"roblox.com", "", "roblox", "com"},
		{"metrics.roblox.com", "metrics", "roblox", "com"},
		{"browser.events.data.microsoft.com", "browser.events.data", "microsoft", "com"},
		{"google-analytics.com", "", "google-analytics", "com"},
		{"doubleclick.net", "", "doubleclick", "net"},
		{"d1234.cloudfront.net", "d1234", "cloudfront", "net"},
		{"kids.youtube.com", "kids", "youtube", "com"},
		{"clarity.ms", "", "clarity", "ms"},
		{"bbc.co.uk", "", "bbc", "co.uk"},
		{"forums.bbc.co.uk", "forums", "bbc", "co.uk"},
		{"example.k12.ca.us", "", "example", "k12.ca.us"},
		{"a.b.example.k12.ca.us", "a.b", "example", "k12.ca.us"},
	}
	for _, c := range cases {
		got := Extract(c.in)
		if got.Subdomain != c.sub || got.Domain != c.domain || got.Suffix != c.suffix {
			t.Errorf("Extract(%q) = %+v, want {%q %q %q}", c.in, got, c.sub, c.domain, c.suffix)
		}
	}
}

func TestExtractWildcardAndException(t *testing.T) {
	// "*.ck" makes foo.ck a public suffix, so bar.foo.ck registers bar.
	r := Extract("bar.foo.ck")
	if r.ESLD() != "bar.foo.ck" || r.Domain != "bar" || r.Suffix != "foo.ck" {
		t.Errorf("wildcard: Extract(bar.foo.ck) = %+v", r)
	}
	// A bare wildcard-matched name is all suffix: nothing registrable.
	r = Extract("foo.ck")
	if r.ESLD() != "" {
		t.Errorf("foo.ck should have no eSLD, got %q (%+v)", r.ESLD(), r)
	}
	// "!www.ck" exempts www.ck: it registers under .ck.
	r = Extract("www.ck")
	if r.ESLD() != "www.ck" || r.Domain != "www" || r.Suffix != "ck" {
		t.Errorf("exception: Extract(www.ck) = %+v", r)
	}
	r = Extract("a.www.ck")
	if r.ESLD() != "www.ck" || r.Subdomain != "a" {
		t.Errorf("exception with subdomain: Extract(a.www.ck) = %+v", r)
	}
}

func TestExtractURLForms(t *testing.T) {
	cases := map[string]string{
		"https://www.tiktok.com/video/123?x=1": "tiktok.com",
		"http://duolingo.com/":                 "duolingo.com",
		"quizlet.com:443":                      "quizlet.com",
		"WWW.Minecraft.NET.":                   "minecraft.net",
		"https://cdn.example.co.uk/path#frag":  "example.co.uk",
		"https://u:pw@Ads.Example.com:8443/p":  "example.com",
	}
	for in, want := range cases {
		if got := ESLD(in); got != want {
			t.Errorf("ESLD(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExtractIPAndEdge(t *testing.T) {
	for _, ip := range []string{"192.168.1.1", "8.8.8.8", "[2001:db8::1]:443", "2001:db8::1"} {
		r := Extract(ip)
		if r.Suffix != "" || r.Subdomain != "" || r.Domain == "" {
			t.Errorf("Extract(%q) = %+v, want bare-domain result", ip, r)
		}
	}
	if got := Extract(""); got != (Result{}) {
		t.Errorf("Extract(\"\") = %+v, want zero", got)
	}
	if got := Extract("localhost"); got.Domain != "localhost" || got.Suffix != "" {
		t.Errorf("Extract(localhost) = %+v", got)
	}
	// A bare public suffix has no registrable domain.
	if got := Extract("co.uk"); got.ESLD() != "" || got.Suffix != "co.uk" {
		t.Errorf("Extract(co.uk) = %+v", got)
	}
	if got := Extract("com"); got.ESLD() != "" {
		t.Errorf("Extract(com) = %+v", got)
	}
}

func TestFQDNRoundTrip(t *testing.T) {
	for _, in := range []string{
		"www.roblox.com", "roblox.com", "a.b.c.example.co.uk",
		"bar.foo.ck", "www.ck",
	} {
		if got := Extract(in).FQDN(); got != in {
			t.Errorf("FQDN round trip %q -> %q", in, got)
		}
	}
}

// TestExtractIdempotent checks Extract(ESLD(x)).ESLD() == ESLD(x).
func TestExtractIdempotent(t *testing.T) {
	f := func(sub, dom uint8) bool {
		host := hostFrom(sub, dom)
		e := ESLD(host)
		return e == "" || ESLD(e) == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestESLDIsSuffixOfInput checks that the eSLD is always a trailing
// dot-boundary substring of the normalized input.
func TestESLDIsSuffixOfInput(t *testing.T) {
	f := func(sub, dom uint8) bool {
		host := hostFrom(sub, dom)
		e := ESLD(host)
		return e == "" || host == e || strings.HasSuffix(host, "."+e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// hostFrom builds deterministic syntactic hostnames from two bytes.
func hostFrom(sub, dom uint8) string {
	subs := []string{"", "www", "api", "cdn.static", "a.b.c"}
	doms := []string{"example.com", "test.co.uk", "foo.ck", "site.io", "x.org", "data.net"}
	s := subs[int(sub)%len(subs)]
	d := doms[int(dom)%len(doms)]
	if s == "" {
		return d
	}
	return s + "." + d
}
