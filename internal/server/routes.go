package server

import (
	"net/http"
	"strconv"
	"strings"
)

// registerRoutes mounts the route table. Every endpoint lives under /v1/.
func (s *Server) registerRoutes() {
	s.mux.HandleFunc("POST /v1/audits", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/personas", s.handlePersonas)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report.json", s.handleReportJSON)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report.csv", s.handleReportCSV)
	s.mux.HandleFunc("GET /v1/snapshots", s.handleSnapshots)
	s.mux.HandleFunc("GET /v1/snapshots/{ref}", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/diff", s.handleDiff)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
}

// pageParams parses the shared pagination query parameters. limit == 0
// means unpaginated (the default); cursor is the
// opaque position returned as next_cursor by the previous page.
func pageParams(r *http.Request) (limit int, cursor string, err string) {
	q := r.URL.Query()
	cursor = q.Get("cursor")
	if raw := q.Get("limit"); raw != "" {
		n, perr := strconv.Atoi(raw)
		if perr != nil || n < 1 {
			return 0, "", "limit must be a positive integer, got " + strconv.Quote(raw)
		}
		limit = n
	}
	return limit, cursor, ""
}

// setCacheHeaders stamps a cacheable response: a strong ETag plus the
// Cache-Control policy. ccImmutable is for responses whose request URL
// pins the exact content (a snapshot fetched by its full hash — a hash
// cannot change, but a sequence whose file was removed by hand can be
// reused after a restart); everything else revalidates, which the ETag
// makes nearly free.
const (
	ccRevalidate = "no-cache"
	ccImmutable  = "public, max-age=31536000, immutable"
)

func setCacheHeaders(w http.ResponseWriter, etag, cacheControl string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", cacheControl)
}

// etagMatch reports whether the request's If-None-Match matches a strong
// ETag. Weak comparison (RFC 9110 §8.8.3.2): a W/ prefix on the client's
// validator is ignored, which is what proxies that weakened the tag send
// back.
func etagMatch(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	if strings.TrimSpace(inm) == "*" {
		return true
	}
	for _, candidate := range strings.Split(inm, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag {
			return true
		}
	}
	return false
}

// notModified answers a conditional GET whose validator matched: the 304
// repeats the cache headers (so the client refreshes its entry's
// lifetime) and the Vary the 200 from writeRendered would have carried
// (RFC 9110 §15.4.5; every route that answers 304 renders through it), and
// carries no body — and the handler never decoded anything.
func notModified(w http.ResponseWriter, etag, cacheControl string) {
	setCacheHeaders(w, etag, cacheControl)
	w.Header().Add("Vary", "Accept-Encoding")
	w.WriteHeader(http.StatusNotModified)
}
