// Package ats decides whether a destination domain is an advertising and
// tracking service (ATS), mirroring the block-list step of the DiffAudit
// paper ("if any of the block lists results in a block decision for a
// particular domain, we label that domain as an ATS"). Decisions are made on
// the fully qualified domain name: an entry blocks the exact name and, like
// Pi-hole style lists, every subdomain of it.
package ats

import (
	"sort"
	"strings"
	"sync"
)

// List is one named block list (e.g., one of the Firebog collection lists
// the paper uses).
type List struct {
	// Name identifies the list in decisions ("ads", "trackers", ...).
	Name string
	// Entries are blocked domains; an entry blocks itself and subdomains.
	Entries []string
}

// Decision reports why a domain was (or was not) blocked.
type Decision struct {
	// Blocked is the overall verdict across all lists.
	Blocked bool
	// Lists names every list with a matching entry.
	Lists []string
	// Entry is the most specific matching entry across lists.
	Entry string
}

// Engine evaluates block decisions across a set of lists.
type Engine struct {
	mu sync.RWMutex
	// entries maps a blocked domain to the list names containing it.
	entries map[string][]string
}

// NewEngine builds an engine from block lists. With no arguments the
// engine starts empty; see Default for the embedded lists.
func NewEngine(lists ...List) *Engine {
	e := &Engine{entries: make(map[string][]string, 512)}
	for _, l := range lists {
		e.Add(l)
	}
	return e
}

// Add merges a list into the engine.
func (e *Engine) Add(l List) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, raw := range l.Entries {
		d := strings.Trim(strings.ToLower(strings.TrimSpace(raw)), ".")
		if d == "" || strings.HasPrefix(d, "#") {
			continue
		}
		e.entries[d] = append(e.entries[d], l.Name)
	}
}

// AddEntries appends entries to a named list, creating it on first use.
func (e *Engine) AddEntries(listName string, entries ...string) {
	e.Add(List{Name: listName, Entries: entries})
}

// Check evaluates the block decision for an FQDN. Matching walks the label
// chain: "sub.ads.example.com" is blocked by entries "sub.ads.example.com",
// "ads.example.com" and "example.com".
func (e *Engine) Check(fqdn string) Decision {
	host := strings.Trim(strings.ToLower(strings.TrimSpace(fqdn)), ".")
	if host == "" {
		return Decision{}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	var d Decision
	for cand := host; cand != ""; {
		if lists, ok := e.entries[cand]; ok {
			if !d.Blocked {
				d.Blocked = true
				d.Entry = cand // first hit is the most specific
			}
			d.Lists = append(d.Lists, lists...)
		}
		i := strings.IndexByte(cand, '.')
		if i < 0 {
			break
		}
		cand = cand[i+1:]
	}
	if d.Blocked {
		sort.Strings(d.Lists)
		d.Lists = dedup(d.Lists)
	}
	return d
}

// IsATS is shorthand for Check(fqdn).Blocked.
func (e *Engine) IsATS(fqdn string) bool { return e.Check(fqdn).Blocked }

// Size returns the number of distinct blocked domains.
func (e *Engine) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.entries)
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || sorted[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the shared engine loaded with the embedded lists
// (advertising, tracking, and first-party telemetry). The synthesizer
// registers its procedurally generated tracker domains here so generator
// and auditor consult the same lists, as in the paper.
func Default() *Engine {
	defaultOnce.Do(func() {
		defaultEngine = NewEngine(AdvertisingList(), TrackingList(), TelemetryList())
	})
	return defaultEngine
}
