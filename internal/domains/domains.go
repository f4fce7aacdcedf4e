// Package domains extracts effective second-level domains (eSLDs) from fully
// qualified domain names, mirroring the role the tldextract library plays in
// the DiffAudit paper. Matching follows the public suffix list algorithm:
// the longest matching suffix rule wins, wildcard rules ("*.ck") match one
// extra label, and exception rules ("!www.ck") override wildcards.
//
// The embedded rule set is a subset of the public suffix list sufficient for
// the domains observed in the paper's dataset plus the common generic and
// country-code suffixes. It is built once at init and only read after, so
// lookups take no lock.
package domains

import "strings"

// Result is the decomposition of a fully qualified domain name.
type Result struct {
	// Subdomain is everything left of the registered domain ("metrics" in
	// metrics.roblox.com). Empty when the FQDN is the registered domain.
	Subdomain string
	// Domain is the registrable label ("roblox").
	Domain string
	// Suffix is the public suffix ("com", "co.uk").
	Suffix string
}

// ESLD returns the effective second-level domain ("roblox.com"), or the
// empty string when the input had no registrable domain.
func (r Result) ESLD() string {
	if r.Domain == "" {
		return ""
	}
	if r.Suffix == "" {
		return r.Domain
	}
	return r.Domain + "." + r.Suffix
}

// FQDN reconstructs the input name.
func (r Result) FQDN() string {
	parts := make([]string, 0, 3)
	if r.Subdomain != "" {
		parts = append(parts, r.Subdomain)
	}
	if r.Domain != "" {
		parts = append(parts, r.Domain)
	}
	if r.Suffix != "" {
		parts = append(parts, r.Suffix)
	}
	return strings.Join(parts, ".")
}

// ruleSet holds public suffix rules keyed by the normalized rule text
// without wildcard/exception markers.
type ruleSet struct {
	exact map[string]bool // "com", "co.uk"
	wild  map[string]bool // "ck" for "*.ck"
	exc   map[string]bool // "www.ck" for "!www.ck"
}

// rules is the suffix table, fixed at init.
var rules = newRuleSet()

func newRuleSet() *ruleSet {
	rs := &ruleSet{
		exact: make(map[string]bool, len(defaultSuffixes)),
		wild:  make(map[string]bool),
		exc:   make(map[string]bool),
	}
	for _, rule := range defaultSuffixes {
		switch {
		case strings.HasPrefix(rule, "!"):
			rs.exc[rule[1:]] = true
		case strings.HasPrefix(rule, "*."):
			rs.wild[rule[2:]] = true
		default:
			rs.exact[rule] = true
		}
	}
	return rs
}

// publicSuffixLen returns the number of trailing labels that form the public
// suffix of labels, per the PSL algorithm. A name with no matching rule uses
// the implicit "*" rule (suffix = last label).
func publicSuffixLen(labels []string) int {
	best := 1 // implicit "*" rule
	for i := 0; i < len(labels); i++ {
		cand := strings.Join(labels[i:], ".")
		n := len(labels) - i
		if rules.exc[cand] {
			// Exception rule: the suffix is the rule minus its left label.
			return n - 1
		}
		if rules.exact[cand] && n > best {
			best = n
		}
		if i > 0 && rules.wild[cand] && n+1 > best {
			best = n + 1
		}
	}
	if best > len(labels) {
		best = len(labels)
	}
	return best
}

// Extract decomposes an FQDN (or URL host) into subdomain, domain and public
// suffix. Inputs are lower-cased; trailing dots, ports and brackets are
// stripped. IP addresses and single-label hosts yield Domain-only results.
func Extract(fqdn string) Result {
	host := normalizeHost(fqdn)
	if host == "" {
		return Result{}
	}
	if isIP(host) {
		return Result{Domain: host}
	}
	labels := strings.Split(host, ".")
	if len(labels) == 1 {
		if rules.exact[host] {
			return Result{Suffix: host}
		}
		return Result{Domain: labels[0]}
	}
	sl := publicSuffixLen(labels)
	if sl >= len(labels) {
		// Entire name is a public suffix: no registrable domain.
		return Result{Suffix: host}
	}
	suffix := strings.Join(labels[len(labels)-sl:], ".")
	domain := labels[len(labels)-sl-1]
	sub := strings.Join(labels[:len(labels)-sl-1], ".")
	return Result{Subdomain: sub, Domain: domain, Suffix: suffix}
}

// ESLD is shorthand for Extract(fqdn).ESLD().
func ESLD(fqdn string) string { return Extract(fqdn).ESLD() }

// normalizeHost lowers the name and removes scheme/userinfo/port/path
// remnants so both bare FQDNs and URL hosts are accepted.
func normalizeHost(s string) string {
	return strings.Trim(Hostname(strings.TrimSpace(s)), ".")
}

// Hostname returns the host a URL or authority names
// ("https://u:pw@Host:8443/p", "[2001:db8::1]:443", a Host header value),
// lowercased, without scheme, userinfo, port, path or IPv6 brackets. Both
// capture formats name a request's destination through it.
func Hostname(s string) string {
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.LastIndexByte(s, '@'); i >= 0 {
		s = s[i+1:]
	}
	if strings.HasPrefix(s, "[") {
		s = s[1:]
		if i := strings.IndexByte(s, ']'); i >= 0 {
			s = s[:i]
		}
	} else if i := strings.IndexByte(s, ':'); i >= 0 && i == strings.LastIndexByte(s, ':') {
		// One colon is a port; more is a bare IPv6 address, kept whole.
		s = s[:i]
	}
	return strings.ToLower(s)
}

// isIP reports whether host looks like an IPv4 or IPv6 literal.
func isIP(host string) bool {
	if strings.Contains(host, ":") {
		return true // IPv6 (colons never appear in hostnames post-normalization)
	}
	dots := 0
	for _, r := range host {
		switch {
		case r == '.':
			dots++
		case r < '0' || r > '9':
			return false
		}
	}
	return dots == 3
}
