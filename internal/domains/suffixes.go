package domains

// defaultSuffixes is the embedded public suffix list subset. It covers the
// generic TLDs, the country-code suffixes, and the private-registry suffixes
// needed to resolve every domain in the synthesized DiffAudit dataset, plus
// wildcard and exception rules exercising the full PSL algorithm. Rules are
// lower case, in public suffix list syntax ("co.uk", "*.ck", "!www.ck").
var defaultSuffixes = []string{
	// Generic TLDs.
	"com", "net", "org", "edu", "gov", "mil", "int", "io", "co", "tv",
	"me", "app", "dev", "ai", "gg", "ly", "to", "fm", "im", "cc", "ws",
	"info", "biz", "name", "mobi", "cloud", "online", "site", "store",
	"xyz", "live", "news", "media", "games", "chat", "social", "video",
	"link", "click", "email", "network", "systems", "services", "agency",
	"studio", "design", "digital", "world", "today", "zone", "run",

	// Country codes (flat).
	"us", "uk", "ca", "de", "fr", "es", "it", "nl", "se", "no", "fi",
	"dk", "pl", "ru", "cn", "jp", "kr", "in", "br", "mx", "ar", "cl",
	"au", "nz", "za", "sg", "hk", "tw", "th", "vn", "id", "my", "ph",
	"tr", "sa", "ae", "il", "ie", "pt", "gr", "cz", "sk", "hu", "ro",
	"bg", "hr", "si", "lt", "lv", "ee", "is", "ch", "at", "be", "lu",

	// Multi-label country suffixes.
	"co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
	"com.au", "net.au", "org.au", "edu.au", "gov.au",
	"co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
	"com.br", "net.br", "org.br",
	"co.kr", "or.kr", "go.kr",
	"com.cn", "net.cn", "org.cn", "gov.cn",
	"co.in", "net.in", "org.in", "firm.in", "gen.in",
	"com.mx", "org.mx", "gob.mx",
	"co.nz", "net.nz", "org.nz",
	"co.za", "org.za", "web.za",
	"com.sg", "edu.sg", "gov.sg",
	"com.tw", "org.tw", "idv.tw",
	"com.hk", "org.hk", "edu.hk",
	"com.tr", "org.tr", "gen.tr",
	"com.ar", "org.ar", "net.ar",
	"co.il", "org.il", "ac.il",

	// US state/k12 hierarchy (exercises deep suffixes).
	"k12.ca.us", "k12.ny.us", "cc.ca.us", "state.ca.us",

	// Wildcard and exception rules (exercise the full algorithm, as in the
	// PSL for .ck and .bd). Note: private-section PSL entries such as
	// cloudfront.net are deliberately absent — tldextract's default mode,
	// used by the paper, treats cloudfront.net itself as an eSLD.
	"*.ck", "!www.ck",
	"*.bd",
}
