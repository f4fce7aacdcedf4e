// Package server runs DiffAudit as a long-lived audit service: capture
// files are uploaded over HTTP, queued onto a bounded job queue, audited
// concurrently on the streaming pipeline, and the resulting reports are
// fetched back as JSON or CSV. This is the serving layer the ROADMAP's
// production-scale north star needs — uploads stream to disk, audits
// stream from disk, and no request ever materializes a whole capture in
// memory.
//
// The Go API is Open, ServeHTTP and Close; everything else a client
// reads or writes goes over HTTP (v1; see routes.go):
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
// retention cap (defaultMaxJobs) then drops only the in-memory Job
// bookkeeping, and the report endpoints keep answering 200 for evicted
// IDs by decoding the stored snapshot (/v1/jobs/{id} itself answers 404 —
// the job metadata is gone, the result is not). The store is append-only,
// so a server over a directory-backed store serves byte-identical reports
// across restarts.
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
	"diffaudit/internal/report"
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
	// MaxUploadBytes caps one POST /v1/audits body (default 1 GiB). Uploads
	// stream to <JournalDir>/staging, so the cap protects disk, not memory.
	MaxUploadBytes int64
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

	maxJobs int // the retention cap, defaultMaxJobs when 0; only tests lower it
}

// defaultMaxJobs bounds how many finished jobs are retained in memory for
// status and report fetching. When the cap is hit, the oldest finished
// jobs are evicted — queued and running jobs are never evicted, so a
// long-lived server's memory stays bounded. Eviction drops only the
// in-memory Job; the stored snapshot keeps serving. A done job whose
// snapshot failed to persist (Job.SnapshotError) is retained past the cap
// rather than silently lost.
const defaultMaxJobs = 256

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
	// Stages splits a finished job's wall time into the stages it went
	// through (see JobStages).
	Stages *JobStages `json:"stages,omitempty"`
	// Labels counts the audit's label-cache lookups: keys the job sent to
	// the classifier, and keys the server's cache already held.
	Labels *core.LabelStats `json:"labels,omitempty"`

	uploads []upload
	keylog  string // temp path of the uploaded SSLKEYLOGFILE ("" if none)
	// keylogSize is the staged keylog's byte count (see upload.Bytes).
	keylogSize int64
	result     *core.ServiceResult
	// recovered marks a job re-enqueued from the journal after a crash;
	// healthz reports "degraded" until every recovered job settles.
	recovered bool
	labels    core.LabelStats
	tl        timeline
}

// JobStages is where a finished job's time went, in milliseconds. The
// stages follow one another without gaps, so they sum to the span from
// submitted_at to the end of the snapshot write; finished_at follows
// after the journal's done line. A job recovered from the journal was not
// staged or journaled by this process: those two stages are 0 and its
// queue wait starts at recovery.
type JobStages struct {
	// StagedMS is reading the upload into the staging directory.
	StagedMS float64 `json:"staged_ms"`
	// JournaledMS is minting the job ID, the journal's submit line and
	// its fsync, and the enqueue.
	JournaledMS float64 `json:"journaled_ms"`
	// QueueWaitMS is waiting for a worker.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// AuditMS is decoding the captures and analysing their records.
	AuditMS float64 `json:"audit_ms"`
	// PutMS is writing the snapshot to the store.
	PutMS float64 `json:"put_ms"`
}

// timeline holds the instants a job passed, read off the monotonic clock.
type timeline struct {
	submitted, staged, queued, started, audited, stored time.Time
}

// stages reports the timeline's durations; nil until the job's audit and
// snapshot write are over.
func (tl *timeline) stages() *JobStages {
	if tl.stored.IsZero() {
		return nil
	}
	ms := func(from, to time.Time) float64 {
		if from.IsZero() {
			return 0
		}
		return float64(to.Sub(from)) / float64(time.Millisecond)
	}
	return &JobStages{
		StagedMS:    ms(tl.submitted, tl.staged),
		JournaledMS: ms(tl.staged, tl.queued),
		QueueWaitMS: ms(tl.queued, tl.started),
		AuditMS:     ms(tl.started, tl.audited),
		PutMS:       ms(tl.audited, tl.stored),
	}
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

// Server is the audit server. Create with Open, mount the server itself as
// the handler, stop with Close.
type Server struct {
	cfg      Config
	personas *flows.PersonaIndex // built-ins plus Config.Personas
	mux      *http.ServeMux
	queue    chan *Job
	journal  *journal
	cache    *resultCache
	// pipe runs every job, kept for the server's life so its label cache
	// classifies a key once whichever job brings it.
	pipe *core.Pipeline

	admission admission // the deadline shed's estimate (admission.go)

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
	if cfg.maxJobs <= 0 {
		cfg.maxJobs = defaultMaxJobs
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
		pipe:     core.NewPipeline(),
	}
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
		job.tl.queued = time.Now()
		s.queue <- job
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

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
	job.tl.started = time.Now()
	job.StartedAt = job.tl.started.UTC()
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

	result, labels, err := s.runAudit(ctx, job)
	audited := time.Now()

	// Persist the snapshot before the job becomes visible as done (and
	// thus evictable): a finished job either has its result in memory or
	// in the store, never neither. Put gets one attempt; a failure is
	// recorded on the job below.
	var meta store.Meta
	var storeErr error
	if err == nil {
		meta, storeErr = s.cfg.Store.Put(job.ID, result)
	}
	stored := time.Now()

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
	job.tl.audited, job.tl.stored = audited, stored
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
		job.labels = labels
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

// runAudit runs the server's one pipeline over a job's staged captures,
// in upload order: a known service is audited under its profile, and
// errors name no staging path. A panicking decoder or analysis pass fails
// its own job with the stack attached instead of killing the worker (and
// with it the whole process).
func (s *Server) runAudit(ctx context.Context, job *Job) (result *core.ServiceResult, labels core.LabelStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, labels = nil, core.LabelStats{}
			err = fmt.Errorf("audit panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if ierr := faults.Inject("worker.panic"); ierr != nil {
		return nil, core.LabelStats{}, ierr
	}
	caps := make([]core.Capture, len(job.uploads))
	for i, up := range job.uploads {
		caps[i] = core.Capture{Path: up.Path, HAR: up.HAR, Trace: up.trace}
	}
	result, labels, _, err = s.pipe.AuditCaptures(ctx, job.Service, job.keylog, caps)
	return result, labels, err
}

// evictLocked drops the oldest finished jobs once the retention cap is
// exceeded, so in-memory results do not accumulate forever. Only the Job
// bookkeeping is dropped: the persisted snapshot remains addressable
// (report endpoints, /snapshots, /diff). Callers hold s.mu.
func (s *Server) evictLocked() {
	excess := len(s.jobs) - s.cfg.maxJobs
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
			// retain it past the cap and let SnapshotError surface the
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
	// The deadline shed runs before a single body byte: a shed upload
	// costs a header parse, not staging I/O. Its hint reuses the estimate
	// that decided it, so message and Retry-After describe one backlog.
	if shed, wait := s.shouldShed(); shed {
		s.admission.shed.Add(1)
		s.unavailableAfter(w, "estimated queue wait "+wait.Round(time.Second).String()+
			" exceeds the "+s.cfg.JobTimeout.String()+" job deadline; load shed", wait)
		return
	}
	// A full queue refuses before the body too: staging and journaling an
	// upload only to refuse it would spend its disk I/O and an fsync on
	// nothing. The check after the journal write still catches the race.
	if len(s.queue) == cap(s.queue) {
		s.queueFull(w)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	mr, err := r.MultipartReader()
	if err != nil {
		apiError(w, http.StatusBadRequest, codeInvalidRequest, "multipart body required: %v", err)
		return
	}

	job := &Job{Service: "custom-service", tl: timeline{submitted: time.Now()}}
	job.SubmittedAt = job.tl.submitted.UTC()
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
	job.tl.staged = time.Now()
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
	job.tl.queued = time.Now()
	select {
	case s.queue <- job:
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		s.evictLocked()
	default:
		s.mu.Unlock()
		s.journal.done(job.ID)
		s.queueFull(w)
		return
	}
	snap := job.snapshot()
	s.mu.Unlock()

	ok = true
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, snap)
}

// queueFull answers an upload the job queue has no room for.
func (s *Server) queueFull(w http.ResponseWriter) {
	s.unavailable(w, fmt.Sprintf("job queue full (depth %d); retry later", s.cfg.QueueDepth))
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

// stageWriters recycles staging writers, so a part costs no fresh
// stageBufBytes buffer.
var stageWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, stageBufBytes) }}

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
	w := stageWriters.Get().(*bufio.Writer)
	w.Reset(f)
	n, err := io.Copy(struct{ io.Writer }{w}, part)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	w.Reset(nil) // drop the file, and any bytes a failed flush left
	stageWriters.Put(w)
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
// one, as an entry with no hash (so nothing is attached to the cache for
// it), or the stored snapshot's cache entry.
func (s *Server) result(ref jobRef) (cacheEntry, error) {
	if ref.res != nil {
		return cacheEntry{res: ref.res}, nil
	}
	return s.snapshotEntry(ref.meta)
}

// snapshotEntry materializes the snapshot meta describes: a cache hit
// returns the already-decoded result (zero decode work) with whatever gzip
// body is attached to it; a miss loads the snapshot from the store and
// caches it under its content hash for every later reader — report,
// snapshot, and diff handlers all share this path and therefore this
// cache. A snapshot that fails to load fails only the requests for it.
func (s *Server) snapshotEntry(meta store.Meta) (cacheEntry, error) {
	if e, ok := s.cache.get(meta.Hash); ok {
		return e, nil
	}
	res, err := s.cfg.Store.Load(meta)
	if err != nil {
		return cacheEntry{}, err
	}
	s.cache.put(meta.Hash, res, int64(meta.Bytes))
	return cacheEntry{hash: meta.Hash, res: res}, nil
}

// reportResult does everything the report endpoints share before
// rendering: it resolves the job ID once, answers a matching If-None-Match
// with 304 from the hash alone (no snapshot is decoded), and fetches the
// result. The returned ETag carries the variant suffix distinguishing
// representations — the JSON and CSV exports of one snapshot must not
// validate against each other. ok is false when the response (error or
// 304) has already been written.
func (s *Server) reportResult(w http.ResponseWriter, r *http.Request, variant string) (e cacheEntry, etag string, ok bool) {
	id := r.PathValue("id")
	ref, status, code, msg := s.resolveJob(id)
	if status != 0 {
		apiError(w, status, code, "%s", msg)
		return cacheEntry{}, "", false
	}
	if ref.hash != "" {
		etag = `"` + ref.hash + variant + `"`
		if etagMatch(r, etag) {
			notModified(w, etag, ccRevalidate)
			return cacheEntry{}, "", false
		}
	}
	e, err := s.result(ref)
	if err != nil {
		// A snapshot for this job exists but cannot be served: a storage
		// failure a 404 would mask (500).
		status, code := snapshotErrStatus(err)
		apiError(w, status, code, "stored snapshot for %s: %v", id, err)
		return cacheEntry{}, "", false
	}
	return e, etag, true
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
	setRenderedHeaders(w, contentType, etag, cacheControl)
	writeMaybeGzip(w, r, data)
}

// setRenderedHeaders stamps the headers every rendered 200 carries.
func setRenderedHeaders(w http.ResponseWriter, contentType, etag, cacheControl string) {
	if etag != "" {
		setCacheHeaders(w, etag, cacheControl)
	}
	w.Header().Add("Vary", "Accept-Encoding")
	w.Header().Set("Content-Type", contentType)
}

// writeExportJSON writes one result's JSON export — the body of both
// report.json and /v1/snapshots/{ref}. A gzip read of an entry that holds
// the export's gzip body writes those bytes as they are; an identity read
// of it inflates them. Otherwise the export is rendered into pooled
// scratch sized from the result's flow count, so the render neither
// outgrows it nor pins a class larger than the report needs; when that
// read negotiated gzip, its compressed body is attached to the cache entry
// for every later read. Identity reads never compress.
func (s *Server) writeExportJSON(w http.ResponseWriter, r *http.Request, e cacheEntry, etag, cacheControl string) {
	zipped := acceptsGzip(r)
	if e.gz != nil && zipped {
		setRenderedHeaders(w, "application/json", etag, cacheControl)
		writeGzipBody(w, e.gz)
		return
	}
	var out []byte
	var err error
	if e.gz != nil {
		out, err = inflate(e.gz, e.rawLen)
	} else {
		one := []*core.ServiceResult{e.res}
		out, err = report.AppendJSON(getBuf(report.JSONSizeHint(one)), one)
	}
	if err != nil || !zipped || e.hash == "" || len(out) < gzipMinBytes {
		writeRendered(w, r, "application/json", out, err, etag, cacheControl)
		putBuf(out)
		return
	}
	z := gzipBody(out)
	s.cache.attach(e.hash, z, len(out))
	setRenderedHeaders(w, "application/json", etag, cacheControl)
	writeGzipBody(w, z)
	putBuf(z)
	putBuf(out)
}

func (s *Server) handleReportJSON(w http.ResponseWriter, r *http.Request) {
	e, etag, okRes := s.reportResult(w, r, "")
	if !okRes {
		return
	}
	s.writeExportJSON(w, r, e, etag, ccRevalidate)
}

func (s *Server) handleReportCSV(w http.ResponseWriter, r *http.Request) {
	e, etag, okRes := s.reportResult(w, r, "+csv")
	if !okRes {
		return
	}
	// Render into pooled scratch: the CSV bytes only live until the
	// response write, so steady-state CSV serving recycles one buffer
	// instead of rebuilding the whole export per request. The buffer is
	// sized from the flow count, as the JSON one is, so the render neither
	// grows it by doubling, dropping a buffer each time, nor parks it in a
	// class larger than CSV renders need.
	one := []*core.ServiceResult{e.res}
	buf := getBuf(report.CSVSizeHint(one))
	out, err := report.AppendFlowsCSV(buf, one)
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
	e, err := s.snapshotEntry(meta)
	if err != nil {
		status, code := snapshotErrStatus(err)
		apiError(w, status, code, "%v", err)
		return
	}
	s.writeExportJSON(w, r, e, etag, cacheControl)
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
		e, ferr := s.snapshotEntry(meta)
		if ferr != nil {
			status, code := snapshotErrStatus(ferr)
			apiError(w, status, code, "%s: %v", side, ferr)
			return nil, false
		}
		return e.res, true
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
		// still settling — fresh results may lag.
		"degraded":   recovering > 0,
		"recovering": recovering,
		// Admission-control view: the service-time estimate behind the
		// shed decision and how many uploads it has rejected.
		"admission": map[string]any{
			"ewma_ms":     float64(s.admission.ewmaNanos.Load()) / 1e6,
			"est_wait_ms": float64(s.admission.estimateWait(queued, s.cfg.Workers)) / 1e6,
			"shed":        s.admission.shed.Load(),
		},
		"snapshots": s.cfg.Store.Len(),
		// The decoded-snapshot cache's hit/miss/eviction counters tell an
		// operator whether CacheBytes is sized to the working set.
		"cache": s.cache.stats(),
	})
}

// jobIDNum extracts n ≥ 1 from a "job-<n>" ID whose n is ASCII digits
// only; it is 0 for anything else ("job-3x", "job- 4", "job-+7", "job--5").
func jobIDNum(id string) int {
	digits, ok := strings.CutPrefix(id, "job-")
	n, err := strconv.Atoi(digits)
	if !ok || err != nil || n < 1 || strings.Trim(digits, "0123456789") != "" {
		return 0
	}
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
	var labels *core.LabelStats
	if j.State == JobDone {
		l := j.labels
		labels = &l
	}
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
		Stages:        j.tl.stages(),
		Labels:        labels,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
