package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"diffaudit/internal/store"
)

// The API's one error shape. Every non-2xx response from every handler
// carries this envelope; nothing in this package writes plain-text errors
// (CI rejects http.Error here). The code is a stable, typed string
// clients can switch on; the message is for humans and may change between
// releases.
//
//	{"error": {"code": "not_found", "message": "no such job"}}
//	{"error": {"code": "unavailable", "message": "job queue full (depth 16); retry later", "retry_after": 1}}
//
// Codes by endpoint:
//
//	invalid_request    400  malformed upload, bad query param, unknown
//	                        format, bad cursor/limit (all endpoints)
//	payload_too_large  413  POST /v1/audits body over MaxUploadBytes
//	not_found          404  unknown job ID or snapshot reference
//	job_not_ready      409  report fetched before the job finished
//	job_failed         409  report of a failed job
//	job_timed_out      409  report of a timed-out job
//	rate_limited       429  client over its upload token bucket
//	                        (RateLimit-* and Retry-After headers present)
//	unavailable        503  queue full, deadline-aware load shed, or
//	                        server shutting down (retry_after present,
//	                        mirrors Retry-After)
//	internal           500  storage failure, render failure, journal failure
const (
	codeInvalidRequest  = "invalid_request"
	codePayloadTooLarge = "payload_too_large"
	codeNotFound        = "not_found"
	codeJobNotReady     = "job_not_ready"
	codeJobFailed       = "job_failed"
	codeJobTimedOut     = "job_timed_out"
	codeRateLimited     = "rate_limited"
	codeUnavailable     = "unavailable"
	codeInternal        = "internal"
)

// apiErrorBody is the envelope's inner object.
type apiErrorBody struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

// apiError writes the error envelope.
func apiError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]apiErrorBody{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// unavailable writes a 503 with an adaptive Retry-After hint (header and
// envelope field) — overload here is transient by construction (a
// bounded queue draining, or a shutdown the operator's balancer should
// route around), so well-behaved clients should back off and retry
// rather than fail. Every 503 path — queue full, deadline shed, shutting
// down — funnels through this helper or unavailableAfter, so the hint
// cannot drift between them: it is always retryAfterHint of one backlog
// estimate.
func (s *Server) unavailable(w http.ResponseWriter, msg string) {
	s.unavailableAfter(w, msg, s.backlogWait())
}

// unavailableAfter writes the 503 with the hint derived from a backlog
// estimate the caller already holds. The deadline shed uses this with
// the same estimate that made its decision — the EWMA and queue depth
// are read once per request, so the hint can never disagree with the
// message that explains it.
func (s *Server) unavailableAfter(w http.ResponseWriter, msg string, wait time.Duration) {
	writeUnavailable(w, msg, retryAfterHint(wait))
}

// writeUnavailable is the envelope writer unavailable wraps: one place
// that knows a 503 carries the hint in both the header and the body.
func writeUnavailable(w http.ResponseWriter, msg string, retryAfter int) {
	if retryAfter < 1 {
		retryAfter = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, http.StatusServiceUnavailable, map[string]apiErrorBody{
		"error": {Code: codeUnavailable, Message: msg, RetryAfter: retryAfter},
	})
}

// uploadErrStatus distinguishes an upload that tripped MaxUploadBytes
// (413, the connection is already doomed by MaxBytesReader) from a
// malformed one (400), returning the matching status and error code.
func uploadErrStatus(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, codePayloadTooLarge
	}
	return http.StatusBadRequest, codeInvalidRequest
}

// snapshotErrStatus distinguishes a reference the caller got wrong (404)
// from a snapshot that exists but cannot be served — corruption or I/O
// failure, which a 404 would mask (500).
func snapshotErrStatus(err error) (int, string) {
	if errors.Is(err, store.ErrUnresolved) {
		return http.StatusNotFound, codeNotFound
	}
	return http.StatusInternalServerError, codeInternal
}
