// Package server runs DiffAudit as a long-lived audit service: capture
// files are uploaded over HTTP, queued onto a bounded job queue, audited
// concurrently on the streaming pipeline, and the resulting reports are
// fetched back as JSON or CSV. This is the serving layer the ROADMAP's
// production-scale north star needs — uploads stream to disk, audits
// stream from disk, and no request ever materializes a whole capture in
// memory.
//
// API (v1; see routes.go):
//
//	POST /v1/audits        multipart upload; field name = persona (any
//	                       configured persona name or alias — built-ins:
//	                       child|adolescent|teen|adult|loggedout), file
//	                       extension selects the decoder (.har vs
//	                       .pcap/.pcapng); optional fields: name (service
//	                       name), keylog (SSLKEYLOGFILE part)
//	GET  /v1/personas      accepted personas and available rule packs
//	GET  /v1/jobs          job summaries (?limit=&cursor= paginate)
//	GET  /v1/jobs/{id}     one job's status
//	GET  /v1/jobs/{id}/report.json   full audit export (finished jobs)
//	GET  /v1/jobs/{id}/report.csv    per-flow CSV export
//	GET  /v1/snapshots     stored snapshot metadata (?limit=&cursor=
//	                       paginate by sequence)
//	GET  /v1/snapshots/{ref}   one stored snapshot's audit export
//	GET  /v1/diff?from=&to=    longitudinal diff between two snapshots
//	                       (refs: seq, hash, unique hash prefix, or job
//	                       ID; ?format=md for markdown, default JSON;
//	                       ?personas=a,b restricts the diff)
//	GET  /v1/healthz       liveness + queue depth + cache stats
//
// Errors use one JSON envelope with typed codes (errors.go). Cacheable
// GETs (reports, snapshots, diffs) carry strong ETags derived from
// snapshot content hashes and honor If-None-Match with 304 — a repeat
// reader costs zero decode work (the decoded-snapshot LRU in cache.go
// covers the non-conditional repeats).
//
// # Result durability and eviction
//
// Every server has a snapshot store (Config.Store) and a job journal
// (Config.JournalDir). Every successful audit is persisted as a
// content-addressed snapshot before it becomes evictable; eviction by the
// MaxJobs retention cap then drops only the in-memory Job bookkeeping, and
// the report endpoints keep answering 200 for evicted IDs by decoding the
// stored snapshot (/v1/jobs/{id} itself answers 404 — the job metadata is
// gone, the result is not). A server over a directory-backed store
// therefore serves byte-identical reports across restarts.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/faults"
	"diffaudit/internal/flows"
	"diffaudit/internal/lawaudit"
	"diffaudit/internal/netcap/tlsx"
	"diffaudit/internal/report"
	"diffaudit/internal/services"
	"diffaudit/internal/store"
)

// Config tunes the audit server.
type Config struct {
	// Workers is the number of concurrent audit jobs (default 2). Each
	// job internally uses the pipeline's own worker pool, so total
	// parallelism is Workers × Pipeline.Workers.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 16). A full queue rejects uploads with 503.
	QueueDepth int
	// MaxUploadBytes caps one POST /audit body (default 1 GiB). Uploads
	// stream to <JournalDir>/staging, so the cap protects disk, not memory.
	MaxUploadBytes int64
	// MaxJobs bounds how many finished jobs are retained in memory for
	// status and report fetching (default 256). When the cap is hit, the
	// oldest finished jobs are evicted — queued and running jobs are
	// never evicted, so a long-lived server's memory stays bounded.
	// Eviction drops only the in-memory Job; the stored snapshot keeps
	// serving. A done job whose snapshot failed to persist
	// (Job.SnapshotError) is retained past the cap rather than silently
	// lost.
	MaxJobs int
	// Store persists finished audits as content-addressed snapshots: it
	// serves the /v1/snapshots and /v1/diff endpoints, report fetching for
	// evicted jobs, and (with store.OpenFSStore) restart durability.
	// Required.
	Store store.Store
	// Personas are the custom personas the server accepts beside the four
	// built-ins, as upload field names, in journal records and in the
	// /v1/diff persona filter. Open fixes them: what a server accepts
	// depends on its configuration alone, never on what it has read.
	Personas []flows.Persona
	// NewPipeline constructs the analysis pipeline for each job (default
	// core.NewPipeline). Jobs never share a pipeline, so label caches are
	// per-job and results stay deterministic.
	NewPipeline func() *core.Pipeline
	// JournalDir holds the crash-safe job journal: accepted uploads are
	// staged under <JournalDir>/staging and recorded in
	// <JournalDir>/journal.log (fsynced, one sync per submit) before they
	// are queued, and Open re-enqueues interrupted jobs from the log after
	// a crash. Required. Point it at the same volume as the snapshot store
	// (serve does this) so a job and its eventual snapshot share
	// durability.
	JournalDir string
	// JobTimeout bounds one audit job's run time (0 = unlimited). A job
	// that exceeds it is marked with the "timeout" state and its worker
	// moves on at the next pipeline batch boundary — a pathological
	// capture cannot wedge a worker forever.
	JobTimeout time.Duration
	// CacheBytes bounds the decoded-snapshot LRU cache shared by the
	// report, snapshot, and diff read paths (entries charged their
	// encoded snapshot size). 0 takes the 64 MiB default; negative
	// disables the cache (every read decodes — the cold-path benchmark
	// configuration).
	CacheBytes int64
	// RateLimit enables per-client upload rate limiting: sustained
	// uploads per second each client (X-Client-ID header, else remote
	// host) may submit before drawing 429s. 0 disables limiting (the
	// default); RateBurst caps a client's burst (0 = 2×RateLimit, min 1).
	RateLimit float64
	RateBurst int
}

// DefaultCacheBytes is the decoded-snapshot cache bound when
// Config.CacheBytes is zero.
const DefaultCacheBytes int64 = 64 << 20

// JobState is the lifecycle of an audit job.
type JobState string

// Job states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobTimedOut JobState = "timeout"
)

// Terminal reports whether a state is final — the job will never run
// again in this process.
func (st JobState) Terminal() bool {
	return st == JobDone || st == JobFailed || st == JobTimedOut
}

// Job is one queued or completed audit.
type Job struct {
	ID          string    `json:"id"`
	State       JobState  `json:"state"`
	Service     string    `json:"service"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	// Files is the number of capture files in the job.
	Files int `json:"files"`
	// SnapshotSeq and SnapshotHash reference the stored snapshot of a
	// successful job. SnapshotError records a snapshot persistence
	// failure — the audit itself still succeeded, but only its in-memory
	// result exists.
	SnapshotSeq   uint64 `json:"snapshot_seq,omitempty"`
	SnapshotHash  string `json:"snapshot_hash,omitempty"`
	SnapshotError string `json:"snapshot_error,omitempty"`

	uploads []upload
	keylog  string // temp path of the uploaded SSLKEYLOGFILE ("" if none)
	// keylogSize is the staged keylog's byte count (see upload.Bytes).
	keylogSize int64
	result     *core.ServiceResult
	// recovered marks a job re-enqueued from the journal after a crash;
	// healthz reports "degraded" until every recovered job settles.
	recovered bool
}

// upload is one capture file staged on disk, in the form the journal
// records it. Bytes is the length the server acknowledged: staged files
// are not fsynced, so after a power loss a shorter file can sit under the
// same path, and a shorter capture parses to a different report without
// any error. The persona is journaled by name, which a restarted server
// parses against its own configured personas.
type upload struct {
	Path    string              `json:"path"`
	Bytes   int64               `json:"bytes"`
	HAR     bool                `json:"har"`
	Persona string              `json:"persona"`
	trace   flows.TraceCategory // Persona, resolved against Config.Personas
}

// Server is the audit server. Create with Open (or New), mount via
// Handler, stop with Close.
type Server struct {
	cfg      Config
	personas *flows.PersonaIndex // built-ins plus Config.Personas
	mux      *http.ServeMux
	queue    chan *Job
	journal  *journal
	cache    *resultCache

	// Overload defenses (see admission.go).
	limiter   *rateLimiter // nil unless Config.RateLimit > 0
	admission admission

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string
	nextID     int
	closed     bool
	recovering int // crash-recovered jobs not yet terminal

	// busy counts workers currently running a job (healthz workers_busy).
	busy atomic.Int32

	wg sync.WaitGroup
}

// New is Open for configurations that cannot fail: it panics on Open's
// errors.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic("server: " + err.Error())
	}
	return s
}

// Open starts a server, recovering interrupted jobs from the journal
// first: surviving journal records are re-enqueued ahead of new
// submissions (in original submission order), crash leftovers in the
// journal and staging directories are deleted, and only then does the
// worker pool start. Errors come from the configuration — no Store, or no
// JournalDir — from the store — it cannot list its snapshots, so new job
// IDs cannot be kept clear of stored ones — from Config.Personas, whose
// names or aliases collide — or from the journal: its directories cannot
// be created, its log cannot be read or rewritten, or the directory holds
// records in a layout this build does not read (an older build's *.job /
// *.batch files, or a newer build's log).
func Open(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.JournalDir == "" {
		return nil, errors.New("server: Config.JournalDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 256
	}
	if cfg.NewPipeline == nil {
		cfg.NewPipeline = core.NewPipeline
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	if cacheBytes < 0 {
		cacheBytes = 0 // disabled: every get misses, every put no-ops
	}
	personas, err := flows.NewPersonaIndex(cfg.Personas...)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		personas: personas,
		mux:      http.NewServeMux(),
		jobs:     make(map[string]*Job),
		cache:    newResultCache(cacheBytes),
	}
	s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	s.registerRoutes()
	// A restarted server must not mint job IDs that collide with the IDs
	// recorded in its store's snapshots, or /v1/jobs/{id}/report.* would
	// serve the wrong audit. Seed the counter past every stored job ID.
	// A store that cannot list cannot be fenced, so it is not served.
	metas, err := cfg.Store.List()
	if err != nil {
		return nil, fmt.Errorf("server: listing stored snapshots to fence job IDs: %w", err)
	}
	for _, m := range metas {
		if n := jobIDNum(m.JobID); n > s.nextID {
			s.nextID = n
		}
	}

	var recovered []*Job
	if s.journal, recovered, err = openJournal(cfg.JournalDir, personas); err != nil {
		return nil, err
	}
	// Recovered job IDs must also be fenced off, including the failed
	// ones — reusing a crashed job's ID would alias two distinct uploads.
	var requeue []*Job
	for _, job := range recovered {
		if n := jobIDNum(job.ID); n > s.nextID {
			s.nextID = n
		}
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if !job.State.Terminal() {
			s.recovering++
			requeue = append(requeue, job)
		}
	}
	// The queue must absorb every recovered job plus QueueDepth new ones;
	// recovery never 503s the jobs the journal promised to keep.
	s.queue = make(chan *Job, cfg.QueueDepth+len(requeue))
	for _, job := range requeue {
		s.queue <- job
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes the server itself mountable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops accepting jobs and waits for running audits to finish.
// Queued-but-unstarted jobs are drained and run before workers exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	// The journal needs no teardown: commits run on submitter goroutines,
	// so there is no background committer to stop, and the log's handle —
	// open only while unfinished jobs remain — must outlive Close for the
	// uploads still racing it.
}

// worker drains the job queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.run(job)
	}
}

// run executes one audit job end to end.
func (s *Server) run(job *Job) {
	s.busy.Add(1)
	defer s.busy.Add(-1)
	start := time.Now()
	// Worker occupancy — audit plus snapshot persistence — is what the
	// admission controller's queue-wait estimate is made of.
	defer func() { s.admission.observe(time.Since(start)) }()
	s.mu.Lock()
	job.State = JobRunning
	job.StartedAt = time.Now().UTC()
	s.mu.Unlock()

	// The deadline covers the audit only. Snapshot persistence runs
	// outside it: abandoning a finished result because the analysis ran
	// long would waste the work the deadline already paid for.
	ctx := context.Background()
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}

	result, err := s.runAudit(ctx, job)

	// Persist the snapshot before the job becomes visible as done (and
	// thus evictable): a finished job either has its result in memory or
	// in the store, never neither. Put gets one attempt; a failure is
	// recorded on the job below.
	var meta store.Meta
	var storeErr error
	if err == nil {
		meta, storeErr = s.cfg.Store.Put(job.ID, result)
	}

	// A done job whose snapshot could not persist gets no done line and
	// keeps its staged files: the in-memory result is the only copy, and a
	// restart re-runs the audit and re-attempts persistence. Every other
	// terminal state is safe to forget — done-and-persisted is durable in
	// the store, failed/timeout are deterministic re-runs of the same
	// inputs. The line goes in before the job is visible as finished, so a
	// client that saw it finish and submits the next one always finds the
	// log retired: what a submit costs does not hang on who wins that race.
	forget := err != nil || storeErr == nil
	if forget {
		s.journal.done(job.ID)
	}

	s.mu.Lock()
	job.FinishedAt = time.Now().UTC()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		job.State = JobTimedOut
		job.Error = fmt.Sprintf("audit exceeded the %v job timeout", s.cfg.JobTimeout)
	case err != nil:
		job.State = JobFailed
		job.Error = err.Error()
	default:
		job.State = JobDone
		job.result = result
		job.SnapshotSeq = meta.Seq
		job.SnapshotHash = meta.Hash
		if storeErr != nil {
			job.SnapshotError = storeErr.Error()
		}
	}
	if job.recovered {
		s.recovering--
	}
	s.mu.Unlock()

	if forget {
		job.cleanup()
	}
}

// runAudit is audit with panic containment: a panicking decoder or
// analysis pass fails its own job with the stack attached instead of
// killing the worker (and with it the whole process).
func (s *Server) runAudit(ctx context.Context, job *Job) (result *core.ServiceResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			result = nil
			err = fmt.Errorf("audit panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if ierr := faults.Inject("worker.panic"); ierr != nil {
		return nil, ierr
	}
	return s.audit(ctx, job)
}

// audit runs the streaming pipeline over a job's staged captures, each of
// which is opened and parsed exactly once.
func (s *Server) audit(ctx context.Context, job *Job) (*core.ServiceResult, error) {
	srcs := make([]core.RecordSource, 0, len(job.uploads))
	// The keylog is parsed on the first mobile capture and shared,
	// read-only, by the rest.
	var keylog *tlsx.KeyLog
	for _, up := range job.uploads {
		var fs *core.FileSource
		var err error
		if up.HAR {
			fs, err = core.OpenHARFileSource(up.Path, up.trace, flows.Web)
		} else {
			if keylog == nil && job.keylog != "" {
				if keylog, err = core.LoadKeyLog(job.keylog); err != nil {
					return nil, err
				}
			}
			fs, err = core.OpenPCAPFileSource(ctx, up.Path, keylog, up.trace)
		}
		if err != nil {
			return nil, err
		}
		defer fs.Close() // at return: the audit below drains every source
		srcs = append(srcs, fs)
	}
	src := core.MultiSource(srcs...)

	// Identity: a known service profile wins; otherwise the first party is
	// whatever the pass itself finds most contacted.
	p := s.cfg.NewPipeline()
	if spec, ok := services.ByName(job.Service); ok {
		id := core.ServiceIdentity{Name: spec.Name, Owner: spec.Owner, FirstPartyESLDs: spec.FirstPartyESLDs}
		return p.AnalyzeStreamContext(ctx, id, src)
	}
	return p.AnalyzeUnknownStream(ctx, job.Service, src)
}

// evictLocked drops the oldest finished jobs once the retention cap is
// exceeded, so in-memory results do not accumulate forever. Only the Job
// bookkeeping is dropped: the persisted snapshot remains addressable
// (report endpoints, /snapshots, /diff). Callers hold s.mu.
func (s *Server) evictLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		job := s.jobs[id]
		evictable := job.State.Terminal()
		if job.State == JobDone && job.SnapshotError != "" {
			// The snapshot failed to persist (e.g. disk full), so this
			// in-memory result is the only copy. Evicting it would break
			// the "in memory or in the store, never neither" invariant —
			// retain it past MaxJobs and let SnapshotError surface the
			// problem; the operator-visible trade is slow memory growth
			// over silent result loss.
			evictable = false
		}
		if excess > 0 && evictable {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// cleanup removes a job's staged files.
func (j *Job) cleanup() {
	for _, up := range j.uploads {
		os.Remove(up.Path)
	}
	if j.keylog != "" {
		os.Remove(j.keylog)
	}
}

// handleSubmit stages a multipart upload and enqueues the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission gates run before a single body byte: a rate-limited or
	// shed upload costs a header parse, not staging I/O.
	if !s.admit(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	mr, err := r.MultipartReader()
	if err != nil {
		apiError(w, http.StatusBadRequest, codeInvalidRequest, "multipart body required: %v", err)
		return
	}

	job := &Job{Service: "custom-service", SubmittedAt: time.Now().UTC()}
	ok := false
	defer func() {
		if !ok {
			job.cleanup()
		}
	}()

	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			status, code := uploadErrStatus(err)
			apiError(w, status, code, "multipart: %v", err)
			return
		}
		if err := s.consumePart(job, part); err != nil {
			status, code := uploadErrStatus(err)
			apiError(w, status, code, "%v", err)
			return
		}
	}
	if len(job.uploads) == 0 {
		apiError(w, http.StatusBadRequest, codeInvalidRequest, "no capture files in upload (want parts named after accepted personas — built-ins child|adolescent|adult|loggedout — with .har/.pcap/.pcapng filenames)")
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.unavailable(w, "server shutting down")
		return
	}
	s.nextID++
	job.ID = fmt.Sprintf("job-%d", s.nextID)
	job.State = JobQueued
	job.Files = len(job.uploads)
	s.mu.Unlock()

	// Journal before queue: once a client sees 202, a crash must not lose
	// the job. A failed write rejects the upload rather than accepting
	// work the journal cannot promise to keep. (The minted ID is abandoned
	// on failure — ID gaps are harmless, reuse is not.)
	if err := s.journal.append(recordOf(job)); err != nil {
		apiError(w, http.StatusInternalServerError, codeInternal, "journaling job: %v", err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.journal.done(job.ID)
		s.unavailable(w, "server shutting down")
		return
	}
	select {
	case s.queue <- job:
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		s.evictLocked()
	default:
		s.mu.Unlock()
		s.journal.done(job.ID)
		s.unavailable(w, fmt.Sprintf("job queue full (depth %d); retry later", s.cfg.QueueDepth))
		return
	}
	snap := job.snapshot()
	s.mu.Unlock()

	ok = true
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, snap)
}

// consumePart stages one multipart part: a capture file, the keylog, or a
// metadata value.
func (s *Server) consumePart(job *Job, part *multipart.Part) error {
	defer part.Close()
	field := part.FormName()
	switch {
	case field == "name":
		name, err := readSmallValue(part)
		if err != nil {
			return err
		}
		if name != "" {
			job.Service = name
		}
		return nil
	case field == "keylog":
		path, size, err := s.stageFile(part, "keylog")
		if err != nil {
			return err
		}
		job.keylog, job.keylogSize = path, size
		return nil
	}
	trace, okTrace := s.personas.Parse(field)
	if !okTrace {
		return fmt.Errorf("unknown field %q (want an accepted persona name — see GET /v1/personas; built-ins: child|adolescent|teen|adult|loggedout — or name, or keylog)", field)
	}
	fname := strings.ToLower(part.FileName())
	var isHAR bool
	switch filepath.Ext(fname) {
	case ".har", ".json":
		isHAR = true
	case ".pcap", ".pcapng", ".cap":
		isHAR = false
	default:
		return fmt.Errorf("field %q: cannot tell capture format from filename %q (want .har or .pcap/.pcapng)", field, part.FileName())
	}
	path, size, err := s.stageFile(part, field)
	if err != nil {
		return err
	}
	job.uploads = append(job.uploads, upload{Path: path, Bytes: size, HAR: isHAR, Persona: trace.String(), trace: trace})
	return nil
}

// stageBufBytes is the staging write size: a few-MB capture lands in a
// handful of write(2) calls instead of one per 4 KiB.
const stageBufBytes = 256 << 10

// stageFile streams one part to a file in the journal's staging directory
// and returns its path and length. The file is not fsynced — a multi-hundred-megabyte flush per
// upload is not worth what it buys: process death cannot lose page-cache
// writes, and after a power loss recovery compares the journaled length
// with what is on disk and fails the job rather than audit a shorter
// capture.
func (s *Server) stageFile(part *multipart.Part, label string) (string, int64, error) {
	f, err := os.CreateTemp(s.journal.staging(), "diffaudit-"+label+"-*")
	if err != nil {
		return "", 0, err
	}
	// A part never reads more than its 4 KiB peek buffer at a time. The
	// struct hides bufio.Writer's ReadFrom, which would hand the reader of
	// an empty buffer straight to the file, 4 KiB reads and all.
	w := bufio.NewWriterSize(f, stageBufBytes)
	n, err := io.Copy(struct{ io.Writer }{w}, part)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", 0, fmt.Errorf("staging %s: %w", label, err)
	}
	return f.Name(), n, nil
}

// readSmallValue reads a non-file form value of at most 4096 bytes; a
// longer one is refused, not cut short.
func readSmallValue(part *multipart.Part) (string, error) {
	data, err := io.ReadAll(io.LimitReader(part, 4096+1))
	if err != nil {
		return "", err
	}
	if len(data) > 4096 {
		return "", fmt.Errorf("field %q: value over 4096 bytes", part.FormName())
	}
	return strings.TrimSpace(string(data)), nil
}

// handleJobs lists job summaries in submission order (== job-ID order:
// IDs are minted monotonically and recovery preserves the original
// order). Without a limit the full listing returns, which is also the
// legacy behavior; with one, the page cuts after limit jobs and
// next_cursor names the last job served — pass it back as cursor to
// resume just past it. The cursor stays stable across eviction: a
// evicted job's ID still orders the remainder.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	limit, cursor, perr := pageParams(r)
	if perr != "" {
		apiError(w, http.StatusBadRequest, codeInvalidRequest, "%s", perr)
		return
	}
	after := 0
	if cursor != "" {
		if after = jobIDNum(cursor); after == 0 {
			apiError(w, http.StatusBadRequest, codeInvalidRequest, "cursor %q is not a job ID", cursor)
			return
		}
	}
	s.mu.Lock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		if jobIDNum(id) <= after {
			continue
		}
		out = append(out, s.jobs[id].snapshot())
	}
	s.mu.Unlock()
	body := map[string]any{}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
		body["next_cursor"] = out[limit-1].ID
	}
	body["jobs"] = out
	writeJSON(w, http.StatusOK, body)
}

// handleJob reports one job's status.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, okJob := s.lookup(r.PathValue("id"))
	if !okJob {
		apiError(w, http.StatusNotFound, codeNotFound, "no such job")
		return
	}
	s.mu.Lock()
	snap := job.snapshot()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

// jobRef is what a job ID denotes on the report endpoints, decided once per
// request so the ETag and the body always name the same snapshot.
type jobRef struct {
	// hash is the content hash behind the ETag; "" when snapshot
	// persistence failed and the response is simply unconditional.
	hash string
	// res is a live finished job's in-memory result; nil means the job was
	// evicted and meta is its stored snapshot.
	res  *core.ServiceResult
	meta store.Meta
}

// resolveJob finds what a job ID denotes: a live finished job from memory,
// otherwise the newest stored snapshot recorded under exactly that job ID.
// Job endpoints never fall back to the store's general reference
// resolution (sequence, hash, hash prefix) — otherwise GET
// /v1/jobs/1/report.json would serve the sequence-1 snapshot of a job that
// never existed. On failure it returns the HTTP status, typed error code,
// and message the caller should write.
func (s *Server) resolveJob(id string) (ref jobRef, status int, code, msg string) {
	if job, okJob := s.lookup(id); okJob {
		s.mu.Lock()
		state, res, hash, errMsg := job.State, job.result, job.SnapshotHash, job.Error
		s.mu.Unlock()
		switch state {
		case JobDone:
			return jobRef{hash: hash, res: res}, 0, "", ""
		case JobFailed:
			return jobRef{}, http.StatusConflict, codeJobFailed, fmt.Sprintf("job failed: %s", errMsg)
		case JobTimedOut:
			return jobRef{}, http.StatusConflict, codeJobTimedOut, fmt.Sprintf("job timed out: %s", errMsg)
		default:
			return jobRef{}, http.StatusConflict, codeJobNotReady, fmt.Sprintf("job is %s; report not ready", state)
		}
	}
	if meta, okMeta := s.cfg.Store.JobSnapshot(id); okMeta {
		return jobRef{hash: meta.Hash, meta: meta}, 0, "", ""
	}
	return jobRef{}, http.StatusNotFound, codeNotFound, "no such job"
}

// result returns the audit result a resolved job denotes: the in-memory
// one, or the stored snapshot through the decoded-snapshot cache.
func (s *Server) result(ref jobRef) (*core.ServiceResult, error) {
	if ref.res != nil {
		return ref.res, nil
	}
	return s.snapshotResult(ref.meta)
}

// snapshotResult materializes the snapshot meta describes: a cache hit
// returns the already-decoded result (zero decode work); a miss loads the
// snapshot from the store and caches it under its content hash for every
// later reader — report, snapshot, and diff handlers all share this path
// and therefore this cache. A snapshot that fails to load fails only the
// requests for it.
func (s *Server) snapshotResult(meta store.Meta) (*core.ServiceResult, error) {
	if res := s.cache.get(meta.Hash); res != nil {
		return res, nil
	}
	res, err := s.cfg.Store.Load(meta)
	if err != nil {
		return nil, err
	}
	s.cache.put(meta.Hash, res, int64(meta.Bytes))
	return res, nil
}

// reportResult does everything the report endpoints share before
// rendering: it resolves the job ID once, answers a matching If-None-Match
// with 304 from the hash alone (no snapshot is decoded), and fetches the
// result. The returned ETag carries the variant suffix distinguishing
// representations — the JSON and CSV exports of one snapshot must not
// validate against each other. ok is false when the response (error or
// 304) has already been written.
func (s *Server) reportResult(w http.ResponseWriter, r *http.Request, variant string) (res *core.ServiceResult, etag string, ok bool) {
	id := r.PathValue("id")
	ref, status, code, msg := s.resolveJob(id)
	if status != 0 {
		apiError(w, status, code, "%s", msg)
		return nil, "", false
	}
	if ref.hash != "" {
		etag = `"` + ref.hash + variant + `"`
		if etagMatch(r, etag) {
			notModified(w, etag, ccRevalidate)
			return nil, "", false
		}
	}
	res, err := s.result(ref)
	if err != nil {
		// A snapshot for this job exists but cannot be served: a storage
		// failure a 404 would mask (500).
		status, code := snapshotErrStatus(err)
		apiError(w, status, code, "stored snapshot for %s: %v", id, err)
		return nil, "", false
	}
	return res, etag, true
}

// writeRendered writes one rendered export, folding the render-error path
// every read handler shares. A non-empty etag stamps the response
// cacheable under cacheControl; the body is gzip-compressed when the
// request negotiated it. Vary is stamped unconditionally — the
// representation depends on Accept-Encoding whether or not this particular
// response compressed.
func writeRendered(w http.ResponseWriter, r *http.Request, contentType string, data []byte, err error, etag, cacheControl string) {
	if err != nil {
		apiError(w, http.StatusInternalServerError, codeInternal, "render: %v", err)
		return
	}
	if etag != "" {
		setCacheHeaders(w, etag, cacheControl)
	}
	w.Header().Add("Vary", "Accept-Encoding")
	w.Header().Set("Content-Type", contentType)
	writeMaybeGzip(w, r, data)
}

// writeExportJSON renders one result's JSON export — the body of both
// report.json and /v1/snapshots/{ref} — into pooled scratch and writes it.
// The bytes only live until the response write, so steady-state serving
// recycles buffers instead of allocating a report-sized one per request;
// the buffer is sized from the result's flow count, so the render neither
// outgrows it nor pins a class larger than the report needs.
func writeExportJSON(w http.ResponseWriter, r *http.Request, res *core.ServiceResult, etag, cacheControl string) {
	one := []*core.ServiceResult{res}
	out, err := report.AppendJSON(getBuf(report.JSONSizeHint(one)), one)
	writeRendered(w, r, "application/json", out, err, etag, cacheControl)
	putBuf(out)
}

func (s *Server) handleReportJSON(w http.ResponseWriter, r *http.Request) {
	res, etag, okRes := s.reportResult(w, r, "")
	if !okRes {
		return
	}
	writeExportJSON(w, r, res, etag, ccRevalidate)
}

func (s *Server) handleReportCSV(w http.ResponseWriter, r *http.Request) {
	res, etag, okRes := s.reportResult(w, r, "+csv")
	if !okRes {
		return
	}
	// Render into pooled scratch: the CSV bytes only live until the
	// response write, so steady-state CSV serving recycles one buffer
	// instead of rebuilding the whole export per request.
	buf := getBuf(32 << 10)
	out, err := report.AppendFlowsCSV(buf, []*core.ServiceResult{res})
	writeRendered(w, r, "text/csv", out, err, etag, ccRevalidate)
	if out != nil {
		putBuf(out)
	} else {
		putBuf(buf)
	}
}

// handleSnapshots lists stored snapshot metadata in sequence order,
// paginated by sequence number: cursor is the last sequence of the
// previous page, next_cursor appears only when snapshots remain.
func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	limit, cursor, perr := pageParams(r)
	if perr != "" {
		apiError(w, http.StatusBadRequest, codeInvalidRequest, "%s", perr)
		return
	}
	var after uint64
	if cursor != "" {
		n, err := strconv.ParseUint(cursor, 10, 64)
		if err != nil {
			apiError(w, http.StatusBadRequest, codeInvalidRequest, "cursor %q is not a snapshot sequence", cursor)
			return
		}
		after = n
	}
	metas, more := s.cfg.Store.Page(after, limit)
	body := map[string]any{}
	if more {
		body["next_cursor"] = strconv.FormatUint(metas[len(metas)-1].Seq, 10)
	}
	body["snapshots"] = metas
	writeJSON(w, http.StatusOK, body)
}

// handleSnapshot serves one stored snapshot's full audit export (the same
// shape as /v1/jobs/{id}/report.json) by any store reference. The export
// is immutable for a given content hash, so a fetch by full hash is
// immutable-cacheable; any other reference (sequence, prefix, job ID) can
// come to denote different content over time and must revalidate.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	meta, err := s.cfg.Store.Resolve(ref)
	if err != nil {
		status, code := snapshotErrStatus(err)
		apiError(w, status, code, "%v", err)
		return
	}
	etag := `"` + meta.Hash + `"`
	cacheControl := ccRevalidate
	if ref == meta.Hash {
		cacheControl = ccImmutable
	}
	if etagMatch(r, etag) {
		notModified(w, etag, cacheControl)
		return
	}
	res, err := s.snapshotResult(meta)
	if err != nil {
		status, code := snapshotErrStatus(err)
		apiError(w, status, code, "%v", err)
		return
	}
	writeExportJSON(w, r, res, etag, cacheControl)
}

// handleDiff renders the longitudinal diff between two stored snapshots.
// from and to accept any store reference: sequence number, content hash,
// unique hash prefix, or job ID. An optional personas=a,b parameter, parsed
// against the server's accepted personas, restricts the diff to those
// personas by name (core.LongitudinalFiltered over the two full, cached
// results). The response
// ETag derives from both content hashes plus the requested personas and
// format, so a matching If-None-Match answers 304 with zero decodes.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fromRef, toRef := q.Get("from"), q.Get("to")
	if fromRef == "" || toRef == "" {
		apiError(w, http.StatusBadRequest, codeInvalidRequest, "want /v1/diff?from=<ref>&to=<ref> (ref: snapshot seq, hash, hash prefix, or job ID)")
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "md" {
		apiError(w, http.StatusBadRequest, codeInvalidRequest, "unknown format %q (want md or json)", format)
		return
	}
	var personaNames []string
	var only map[string]bool
	if raw := q.Get("personas"); raw != "" {
		only = make(map[string]bool)
		for _, name := range strings.Split(raw, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			p, okP := s.personas.Parse(name)
			if !okP {
				apiError(w, http.StatusBadRequest, codeInvalidRequest, "unknown persona %q (see /v1/personas)", name)
				return
			}
			if !only[p.String()] {
				only[p.String()] = true
				personaNames = append(personaNames, p.String())
			}
		}
		if len(personaNames) == 0 {
			apiError(w, http.StatusBadRequest, codeInvalidRequest, "personas parameter selects no personas")
			return
		}
		sort.Strings(personaNames)
	}

	fromMeta, err := s.cfg.Store.Resolve(fromRef)
	if err != nil {
		status, code := snapshotErrStatus(err)
		apiError(w, status, code, "from: %v", err)
		return
	}
	toMeta, err := s.cfg.Store.Resolve(toRef)
	if err != nil {
		status, code := snapshotErrStatus(err)
		apiError(w, status, code, "to: %v", err)
		return
	}
	// The diff is a pure function of the two contents, the persona
	// filter, and the format — exactly the ETag's ingredients. Resolution
	// happens on metadata alone, so the 304 path never decodes.
	variant := format
	if len(personaNames) > 0 {
		variant += ";" + strings.Join(personaNames, ",")
	}
	etag := `"` + fromMeta.Hash + "-" + toMeta.Hash + "+" + variant + `"`
	if etagMatch(r, etag) {
		notModified(w, etag, ccRevalidate)
		return
	}

	fetch := func(meta store.Meta, side string) (*core.ServiceResult, bool) {
		res, ferr := s.snapshotResult(meta)
		if ferr != nil {
			status, code := snapshotErrStatus(ferr)
			apiError(w, status, code, "%s: %v", side, ferr)
			return nil, false
		}
		return res, true
	}
	from, okFrom := fetch(fromMeta, "from")
	if !okFrom {
		return
	}
	to, okTo := fetch(toMeta, "to")
	if !okTo {
		return
	}
	diff := core.LongitudinalFiltered(from, to, only)
	switch format {
	case "md":
		writeRendered(w, r, "text/markdown; charset=utf-8", []byte(report.DiffReport(diff)), nil, etag, ccRevalidate)
	default:
		data, err := report.ExportDiffJSON(diff)
		writeRendered(w, r, "application/json", data, err, etag, ccRevalidate)
	}
}

// personaView is one accepted persona in the /v1/personas listing; its ID
// is its position there.
type personaView struct {
	ID       int               `json:"id"`
	Name     string            `json:"name"`
	Aliases  []string          `json:"aliases,omitempty"`
	AgeKnown bool              `json:"age_known"`
	AgeMin   int               `json:"age_min,omitempty"`
	AgeMax   int               `json:"age_max,omitempty"`
	LoggedIn bool              `json:"logged_in"`
	Subject  string            `json:"subject"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Builtin  bool              `json:"builtin"`
}

// handlePersonas lists the accepted personas (the upload field names:
// built-ins, then Config.Personas) and the available regulation rule packs.
func (s *Server) handlePersonas(w http.ResponseWriter, r *http.Request) {
	var personas []personaView
	for i, p := range s.personas.Personas() {
		info := p.Info()
		v := personaView{
			ID: i, Name: info.Name, Aliases: info.Aliases,
			AgeKnown: info.AgeKnown, LoggedIn: info.LoggedIn,
			Subject: info.Subject, Attrs: info.Attrs,
			Builtin: p.BuiltinIndex() >= 0,
		}
		if info.AgeKnown {
			v.AgeMin = info.AgeMin
			// An unbounded bracket omits age_max rather than leaking the
			// AgeNoLimit sentinel.
			if info.AgeMax != flows.AgeNoLimit {
				v.AgeMax = info.AgeMax
			}
		}
		personas = append(personas, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"personas":   personas,
		"rule_packs": lawaudit.PackNames(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	recovering := s.recovering
	s.mu.Unlock()
	queued := len(s.queue)
	busy := int(s.busy.Load())
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"jobs":   jobs,
		// Load gauges: live queue depth vs its capacity, workers mid-job,
		// and total in-flight work (queued + running) — the numbers an
		// operator graphs to see overload coming.
		"queue_depth":    queued,
		"queue_capacity": s.cfg.QueueDepth,
		"workers":        s.cfg.Workers,
		"workers_busy":   busy,
		"jobs_inflight":  queued + busy,
		// degraded: the server is serving, but crash-recovered jobs are
		// still settling — fresh results may lag. retrying is deprecated
		// and always 0: the server has no retry loop.
		"degraded":   recovering > 0,
		"recovering": recovering,
		"retrying":   0,
		// Admission-control view: the service-time estimate behind the
		// shed decision and how many uploads each gate has rejected.
		"admission": map[string]any{
			"ewma_ms":      float64(s.admission.ewmaNanos.Load()) / 1e6,
			"est_wait_ms":  float64(s.admission.estimateWait(queued, s.cfg.Workers)) / 1e6,
			"shed":         s.admission.shed.Load(),
			"rate_limited": s.limiter.limitedCount(),
		},
		"snapshots": s.cfg.Store.Len(),
		// The decoded-snapshot cache's hit/miss/eviction counters tell an
		// operator whether CacheBytes is sized to the working set.
		"cache":   s.cache.stats(),
		"breaker": deprecatedBreakerStats,
		"scrub":   deprecatedScrubStats,
	})
}

// deprecatedBreakerStats is the healthz "breaker" block, kept so clients
// that read it keep parsing. The server has no store circuit breaker; this
// is the shape it always reported for a disabled one.
var deprecatedBreakerStats = map[string]any{
	"state": "disabled", "failure_rate": 0.0, "window": 0, "window_filled": 0,
	"trips": 0, "stale_served": 0, "short_circuits": 0,
}

// deprecatedScrubStats is the healthz "scrub" block, kept so clients that
// read it keep parsing. The server has no integrity scrubber: a corrupt
// snapshot file fails its own reads with a 500, and a restart's rescan
// skips it. This is the shape a server that never scrubbed reported.
var deprecatedScrubStats = map[string]any{
	"passes": 0,
	"last":   map[string]any{"scanned": 0, "corrupt": 0, "repaired": 0, "quarantined": 0},
	"total":  map[string]any{"scanned": 0, "corrupt": 0, "repaired": 0, "quarantined": 0},
}

// jobIDNum extracts the numeric suffix of a "job-<n>" ID (0 when foreign).
func jobIDNum(id string) int {
	var n int
	fmt.Sscanf(id, "job-%d", &n)
	return n
}

// lookup finds a job by ID.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, okJob := s.jobs[id]
	return job, okJob
}

// snapshot copies the public fields of a job (callers hold s.mu or own
// the job exclusively).
func (j *Job) snapshot() Job {
	return Job{
		ID:            j.ID,
		State:         j.State,
		Service:       j.Service,
		Error:         j.Error,
		SubmittedAt:   j.SubmittedAt,
		StartedAt:     j.StartedAt,
		FinishedAt:    j.FinishedAt,
		Files:         j.Files,
		SnapshotSeq:   j.SnapshotSeq,
		SnapshotHash:  j.SnapshotHash,
		SnapshotError: j.SnapshotError,
	}
}

// Result returns a finished job's audit result — the programmatic
// counterpart of the report endpoints, including their evicted-but-stored
// fallback.
func (s *Server) Result(id string) (*core.ServiceResult, error) {
	ref, status, _, msg := s.resolveJob(id)
	if status != 0 {
		return nil, errors.New("server: " + msg)
	}
	res, err := s.result(ref)
	if err != nil {
		return nil, fmt.Errorf("server: stored snapshot for %s: %w", id, err)
	}
	return res, nil
}

// SnapshotResult resolves any store reference and materializes its result
// through the decoded-snapshot cache — the programmatic counterpart of
// GET /v1/snapshots/{ref}, and the read path the benchmarks drive.
func (s *Server) SnapshotResult(ref string) (*core.ServiceResult, store.Meta, error) {
	meta, err := s.cfg.Store.Resolve(ref)
	if err != nil {
		return nil, store.Meta{}, err
	}
	res, err := s.snapshotResult(meta)
	if err != nil {
		return nil, store.Meta{}, err
	}
	return res, meta, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
