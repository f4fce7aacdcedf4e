// The server's background integrity scrubber: a low-priority loop that
// runs store scrub passes on a timer (Config.ScrubInterval, the CLI's
// -scrub-interval), finding at-rest snapshot corruption before a client
// request does. Repair bytes come from the decoded-snapshot cache: a
// result that is still cached re-encodes to exactly its original bytes
// (the codec is canonical), so a scrub that finds a corrupt file while a
// clean decode is in cache rewrites the file and nobody outside healthz
// ever knows. Progress and findings are exported on /v1/healthz under
// "scrub".
package server

import (
	"sync"
	"time"

	"diffaudit/internal/store"
)

// scrubState accumulates scrubber progress for healthz.
type scrubState struct {
	mu     sync.Mutex
	passes int
	last   time.Time
	lastR  store.ScrubResult
	total  store.ScrubResult
}

// scrubStats is the /v1/healthz view of the scrubber.
type scrubStats struct {
	Passes   int    `json:"passes"`
	LastPass string `json:"last_pass,omitempty"`
	// Last pass's counts and cumulative totals since the server started.
	Last  store.ScrubResult `json:"last"`
	Total store.ScrubResult `json:"total"`
}

func (st *scrubState) record(r store.ScrubResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.passes++
	st.last = time.Now().UTC()
	st.lastR = r
	st.total.Add(r)
}

func (st *scrubState) stats() scrubStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := scrubStats{Passes: st.passes, Last: st.lastR, Total: st.total}
	if !st.last.IsZero() {
		out.LastPass = st.last.Format(time.RFC3339)
	}
	return out
}

// scrubbable returns the store's scrub surface, nil when the configured
// store is not a *store.Snapshots (a test's substitute).
func (s *Server) scrubbable() *store.Snapshots {
	sc, _ := s.cfg.Store.(*store.Snapshots)
	return sc
}

// startScrubber launches the background loop when Config.ScrubInterval
// is set and the store supports scrubbing. The loop joins the server's
// WaitGroup, so Close waits for an in-flight pass to finish rather than
// racing it.
func (s *Server) startScrubber() {
	if s.cfg.ScrubInterval <= 0 || s.scrubbable() == nil {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(s.cfg.ScrubInterval)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
				s.Scrub()
			}
		}
	}()
}

// Scrub runs one synchronous integrity pass over the snapshot store and
// records its findings — the programmatic (and test) surface of the
// background loop. No-op zero result when the store cannot scrub.
func (s *Server) Scrub() store.ScrubResult {
	sc := s.scrubbable()
	if sc == nil {
		return store.ScrubResult{}
	}
	r := sc.ScrubPass(s.cachedEncoded)
	s.scrub.record(r)
	return r
}

// cachedEncoded is the scrubber's repair source: if the decoded result
// for a content hash is still in the LRU, re-encode it. The codec is
// canonical, so the bytes either reproduce the hash exactly or the
// cached result is not actually the snapshot's content (paranoia check —
// never "repair" a file into different bytes than its metadata claims).
func (s *Server) cachedEncoded(hash string) ([]byte, bool) {
	res := s.cache.peek(hash)
	if res == nil {
		return nil, false
	}
	data := store.EncodeResult(res)
	if store.Hash(data) != hash {
		return nil, false
	}
	return data, true
}
