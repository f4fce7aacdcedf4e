// Package entity resolves domain ownership, playing the role that whois and
// the DuckDuckGo Tracker Radar dataset play in the DiffAudit paper. Given an
// eSLD it answers "which organization owns this domain", which drives the
// first-party / third-party split: a destination is first party for a
// service when its eSLD matches the service's own domains or shares the
// service's parent organization.
package entity

import (
	"strings"
	"sync"

	"diffaudit/internal/domains"
)

// Org describes a parent organization that owns one or more eSLDs.
type Org struct {
	// Name is the organization's legal name as reported by Tracker Radar
	// (e.g., "Google LLC").
	Name string
	// Domains are the eSLDs the organization owns.
	Domains []string
	// Tracker reports whether Tracker Radar classifies the organization as
	// primarily an advertising/tracking company.
	Tracker bool
}

// registry is the mutable ownership index.
type registry struct {
	mu     sync.RWMutex
	byESLD map[string]*Org
}

var reg = newRegistry()

func newRegistry() *registry {
	r := &registry{byESLD: make(map[string]*Org, 256)}
	for i := range defaultOrgs {
		r.register(&defaultOrgs[i])
	}
	return r
}

func (r *registry) register(o *Org) {
	for _, d := range o.Domains {
		r.byESLD[strings.ToLower(d)] = o
	}
}

// Register adds an organization at runtime (used by the synthesizer for
// procedurally generated ad-tech companies). Later registrations win on
// eSLD collisions, matching Tracker Radar refresh semantics.
func Register(o Org) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	cp := o
	cp.Domains = append([]string(nil), o.Domains...)
	reg.register(&cp)
}

// Owner returns the organization that owns the eSLD of host (an FQDN, eSLD
// or URL). The boolean is false when ownership is unknown — the analysis
// then falls back to treating the eSLD itself as the owner, as the paper
// does for domains absent from Tracker Radar and whois.
func Owner(host string) (Org, bool) {
	esld := domains.ESLD(host)
	if esld == "" {
		return Org{}, false
	}
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	if o, ok := reg.byESLD[esld]; ok {
		return *o, true
	}
	return Org{}, false
}

// OwnerName returns the owner organization name, falling back to the eSLD
// itself when the owner is unknown.
func OwnerName(host string) string {
	if o, ok := Owner(host); ok {
		return o.Name
	}
	if esld := domains.ESLD(host); esld != "" {
		return esld
	}
	return strings.ToLower(strings.TrimSpace(host))
}
