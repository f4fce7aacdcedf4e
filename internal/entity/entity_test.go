package entity

import (
	"testing"
)

func TestOwnerKnown(t *testing.T) {
	cases := map[string]string{
		"roblox.com":                        "Roblox Corporation",
		"www.roblox.com":                    "Roblox Corporation",
		"metrics.roblox.com":                "Roblox Corporation",
		"rbxcdn.com":                        "Roblox Corporation",
		"minecraft.net":                     "Microsoft Corporation",
		"browser.events.data.microsoft.com": "Microsoft Corporation",
		"clarity.ms":                        "Microsoft Corporation",
		"youtube.com":                       "Google LLC",
		"doubleclick.net":                   "Google LLC",
		"stats.g.doubleclick.net":           "Google LLC",
		"google-analytics.com":              "Google LLC",
		"pubmatic.com":                      "PubMatic, Inc.",
		"amazon-adsystem.com":               "Amazon Technologies",
		"d111.cloudfront.net":               "Amazon Technologies",
		"mathtag.com":                       "MediaMath, Inc.",
		"tiktokcdn.com":                     "TikTok Pte. Ltd.",
		"vimeocdn.com":                      "Vimeo, Inc.",
	}
	for host, want := range cases {
		o, ok := Owner(host)
		if !ok {
			t.Errorf("Owner(%q) unknown, want %q", host, want)
			continue
		}
		if o.Name != want {
			t.Errorf("Owner(%q) = %q, want %q", host, o.Name, want)
		}
	}
}

func TestOwnerUnknownFallsBackToESLD(t *testing.T) {
	if _, ok := Owner("totally-unknown-domain-xyz.com"); ok {
		t.Fatal("unexpected owner for unknown domain")
	}
	if got := OwnerName("sub.totally-unknown-domain-xyz.com"); got != "totally-unknown-domain-xyz.com" {
		t.Errorf("OwnerName fallback = %q", got)
	}
	if got := OwnerName(""); got != "" {
		t.Errorf("OwnerName(\"\") = %q", got)
	}
}

// TestSameOrg: hosts of one organization resolve to one owner name, and
// hosts with unknown owners compare by eSLD.
func TestSameOrg(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"youtube.com", "doubleclick.net", true},
		{"roblox.com", "rbxcdn.com", true},
		{"minecraft.net", "clarity.ms", true},
		{"roblox.com", "doubleclick.net", false},
		{"unknown-a.com", "unknown-a.com", true},
		{"sub1.unknown-a.com", "sub2.unknown-a.com", true},
		{"unknown-a.com", "unknown-b.com", false},
	}
	for _, c := range cases {
		if got := OwnerName(c.a) == OwnerName(c.b); got != c.want {
			t.Errorf("OwnerName(%q) == OwnerName(%q) is %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRegister(t *testing.T) {
	Register(Org{Name: "Test AdTech Co", Domains: []string{"test-adtech-zz.com"}, Tracker: true})
	o, ok := Owner("x.test-adtech-zz.com")
	if !ok || o.Name != "Test AdTech Co" || !o.Tracker {
		t.Fatalf("Owner after Register = %+v, %v", o, ok)
	}
}

func TestKnownOrgsCoversFigure5(t *testing.T) {
	// Every organization shown in Figure 5 of the paper must be resolvable.
	fig5 := []string{
		"Lemon Inc", "OneSoon Ltd", "MediaMath, Inc.", "Apptimize, Inc.",
		"Adform A/S", "Adjust GmbH", "Exponential Interactive", "Braze, Inc.",
		"Tapad, Inc.", "ProfitWell", "Integral Ad Science", "ClickTale",
		"OpenX Technologies", "Snap Inc.", "Index Exchange",
		"Crownpeak Technology", "OneTrust", "NSONE Inc", "Functional Software",
		"Microsoft Corporation", "TripleLift", "Ad Lightning, Inc.",
		"AppsFlyer", "Akamai Technologies", "Media.net Advertising",
		"Magnite, Inc.", "Sharethrough, Inc.", "Snowplow Analytics",
		"Adobe Inc.", "Amazon Technologies", "PubMatic, Inc.", "Google LLC",
	}
	known := map[string]bool{}
	for _, o := range defaultOrgs {
		known[o.Name] = true
	}
	for _, n := range fig5 {
		if !known[n] {
			t.Errorf("Figure 5 organization %q missing from entity dataset", n)
		}
	}
	if len(fig5) != 32 {
		t.Fatalf("figure 5 check list has %d orgs, want 32", len(fig5))
	}
}

func TestEveryOrgDomainResolvesToItself(t *testing.T) {
	for _, o := range defaultOrgs {
		for _, d := range o.Domains {
			if got := OwnerName(d); got != o.Name {
				t.Errorf("OwnerName(%q) = %q, want %q", d, got, o.Name)
			}
		}
	}
}
