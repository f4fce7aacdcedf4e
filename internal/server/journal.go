// The durable job journal: the piece that makes an accepted upload
// survive a process kill at any point before its snapshot lands.
//
// handleSubmit stages uploads under <JournalDir>/staging and, before the
// job is queued, records it in
// <JournalDir>/journal.log — one append-only file of CRC-framed lines:
//
//	<crc32 of the rest of the line, 8 hex digits> S <submit record, JSON>\n
//	<crc32 of the rest of the line, 8 hex digits> D <job ID>\n
//
// The live set — submits no done follows — is the whole meaning of the
// file. Submit lines are fsynced, one submit at a time (see append),
// before the client sees its 202. Done lines are unsynced appends:
// completions overlap submit storms on the same core, and losing one in a
// crash only re-runs an idempotent job whose snapshot is already stored.
// There is no "running" record — recovery re-runs a job the same whether
// it died queued or mid-audit — and a job whose snapshot could not persist
// gets no done line, which keeps it live.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"diffaudit/internal/faults"
	"diffaudit/internal/flows"
)

const (
	// journalVersion versions the submit record; Open refuses a log
	// holding records from a future format instead of misreading them.
	journalVersion = 1
	// journalMaxGarbage caps the bytes of finished jobs' lines the log may
	// carry before a submit rewrites it; a cap on size instead would have a
	// deep queue's live lines forcing rewrites.
	journalMaxGarbage = 1 << 20
)

// journalRecord is one accepted job's durable form.
type journalRecord struct {
	Version     int       `json:"version"`
	ID          string    `json:"id"`
	Service     string    `json:"service"`
	SubmittedAt time.Time `json:"submitted_at"`
	Keylog      string    `json:"keylog,omitempty"`
	KeylogBytes int64     `json:"keylog_bytes,omitempty"`
	Uploads     []upload  `json:"uploads"`
}

// journal persists job records in one log file under one directory.
type journal struct {
	dir string

	// commit admits one submit at a time to write, sync and, on failure,
	// take back its frame.
	commit sync.Mutex

	// mu guards the log file and the live set. A submit holds it for its
	// write but not its fsync.
	mu      sync.Mutex
	f       *os.File          // nil while no job is live
	live    map[string][]byte // job ID → its submit frame
	garbage int64             // bytes in f that belong to finished jobs
}

// staging holds the uploads: beside the log, on the same volume, so a
// record's file paths live as long as the record.
func (j *journal) staging() string { return filepath.Join(j.dir, "staging") }

func (j *journal) logPath() string { return filepath.Join(j.dir, "journal.log") }

// recordOf builds a job's submit record. The caller owns the job or
// holds s.mu; uploads and keylog are immutable after submit.
func recordOf(job *Job) journalRecord {
	return journalRecord{
		Version:     journalVersion,
		ID:          job.ID,
		Service:     job.Service,
		SubmittedAt: job.SubmittedAt,
		Keylog:      job.keylog,
		KeylogBytes: job.keylogSize,
		Uploads:     job.uploads,
	}
}

// frame renders one log line.
func frame(kind byte, payload []byte) []byte {
	body := append([]byte{kind, ' '}, payload...)
	return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(body), body)
}

// nextFrame splits the first line off data. ok is false when that line is
// torn, fails its checksum, or is absent: the end of what recovery trusts.
func nextFrame(data []byte) (kind byte, payload, rest []byte, ok bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 11 || data[8] != ' ' || string(data[:8]) != fmt.Sprintf("%08x", crc32.ChecksumIEEE(data[9:nl])) {
		return 0, nil, nil, false
	}
	return data[9], data[11:nl], data[nl+1:], true
}

// append journals a submit record and blocks until it is durable (or
// failed): the client's 202 is its own fsync. Submits commit one at a
// time under j.commit, so nothing else syncs or rewrites the file
// meanwhile; the frame is written under j.mu and synced outside it, so a
// done line never waits on a disk flush. The frame enters live when it is
// written, before it is synced: a done can never find the live set empty
// — and unlink the log — under a submit still on its way to disk.
// "journal.write" injects the record write failing; "journal.sync" the
// commit failing (or stalling) unacknowledged, between write and sync.
func (j *journal) append(rec journalRecord) error {
	if err := faults.Inject("journal.write"); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	payload, _ := json.Marshal(rec) // strings, numbers and a time: cannot fail
	submit := frame('S', payload)
	j.commit.Lock()
	defer j.commit.Unlock()
	var err error
	j.mu.Lock()
	j.live[rec.ID] = submit
	unsynced := j.f
	if unsynced == nil || j.garbage > journalMaxGarbage {
		unsynced, err = nil, j.rewriteLocked() // live holds the frame: written, synced
	} else {
		_, err = unsynced.Write(submit)
	}
	j.mu.Unlock()
	if err == nil {
		err = faults.Inject("journal.sync")
	}
	if err == nil && unsynced != nil {
		err = unsynced.Sync()
	}
	if err == nil {
		return nil
	}
	// The submitter gets no 202, so the job may not come back after a
	// crash: take whatever reached the file out of it.
	j.mu.Lock()
	delete(j.live, rec.ID)
	j.garbage = journalMaxGarbage + 1 // should this rewrite fail too, the next submit retries it
	j.rewriteLocked()
	j.mu.Unlock()
	return fmt.Errorf("journal: %w", err)
}

// done records that a job reached a state recovery must not replay: its
// snapshot is stored, or it failed deterministically. The line is one
// unsynced write; the last live job takes the whole log with it instead.
func (j *journal) done(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	submit, ok := j.live[id]
	if !ok {
		return
	}
	delete(j.live, id)
	if len(j.live) == 0 {
		j.rewriteLocked() // nothing live: an unlink, which cannot fail
		return
	}
	line := frame('D', []byte(id))
	j.garbage += int64(len(submit) + len(line))
	if _, err := j.f.Write(line); err != nil {
		// A partial frame mid-log would hide every later line from
		// recovery: count it all as garbage, so the next submit rewrites.
		j.garbage = journalMaxGarbage + 1
	}
}

// rewriteLocked replaces the log with exactly the live submit frames
// (temp + fsync + rename + dirsync), or with no file when nothing is live
// — a drained journal directory is empty. It creates the log for the
// first job, shrinks it once garbage passes journalMaxGarbage, and runs at
// Open, so damage never outlives one start. The old file stays current
// until the new one is in place. Callers hold j.mu.
func (j *journal) rewriteLocked() error {
	var f *os.File
	if len(j.live) == 0 {
		os.Remove(j.logPath())
	} else {
		var buf []byte
		for _, submit := range j.live {
			buf = append(buf, submit...)
		}
		var err error
		if f, err = os.CreateTemp(j.dir, ".tmp-*"); err != nil {
			return err
		}
		_, err = f.Write(buf)
		if err == nil {
			err = f.Sync()
		}
		if err == nil {
			err = os.Rename(f.Name(), j.logPath())
		}
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
		// Make the rename durable, best effort: not every filesystem can
		// sync a directory, and the file's own fsync already happened.
		if d, err := os.Open(j.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	if j.f != nil {
		j.f.Close()
	}
	// The new handle followed its file through the rename and sits at its end.
	j.f, j.garbage = f, 0
	return nil
}

// openJournal creates (if needed) the journal and staging directories and
// rebuilds the jobs a previous process left unfinished. It reads the log
// up to its first torn or corrupt frame — everything past it was never
// acknowledged, or is a lost done — and rewrites it down to the live
// submits. Each becomes a Job: re-runnable ones come back queued, the
// rest failed with a diagnostic, so the interruption is visible rather
// than silent. Crash leftovers — .tmp-* files of interrupted rewrites,
// staging files no live record references — are deleted, so crashes
// cannot leak disk. Records it cannot read are an error, not damage:
// files of the layout before journal.log, or a frame that passes its
// checksum but comes from another build. Starting anyway would silently
// drop the acknowledged jobs in them.
func openJournal(dir string, personas *flows.PersonaIndex) (*journal, []*Job, error) {
	j := &journal{dir: dir, live: make(map[string][]byte)}
	if err := os.MkdirAll(j.staging(), 0o755); err != nil { // and dir above it
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	for _, path := range tmps {
		os.Remove(path)
	}
	for _, pattern := range []string{"*.job", "*.batch"} {
		if old, _ := filepath.Glob(filepath.Join(dir, pattern)); len(old) > 0 {
			return nil, nil, fmt.Errorf("journal: %s is a job record in the layout before journal.log, which this build does not read; let the build that wrote it finish its jobs, or delete it to abandon them", old[0])
		}
	}
	data, err := os.ReadFile(j.logPath())
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs := map[string]journalRecord{}
	for kind, payload, rest, ok := nextFrame(data); ok; kind, payload, rest, ok = nextFrame(data) {
		var rec journalRecord
		switch {
		case kind == 'D':
			delete(recs, string(payload))
			delete(j.live, string(payload))
		case kind == 'S' && json.Unmarshal(payload, &rec) == nil && rec.ID != "" && rec.Version <= journalVersion:
			recs[rec.ID], j.live[rec.ID] = rec, data[:len(data)-len(rest)]
		default:
			return nil, nil, fmt.Errorf("journal: %s holds a record this build cannot read (kind %q, version %d; this build writes version %d)", j.logPath(), kind, rec.Version, journalVersion)
		}
		data = rest
	}
	if err := j.rewriteLocked(); err != nil { // nobody else holds j yet
		return nil, nil, fmt.Errorf("journal: %w", err)
	}

	staged := func(what, path string, want int64) string {
		if fi, err := os.Stat(path); err != nil {
			return fmt.Sprintf("staged %s missing: %v", what, err)
		} else if fi.Size() != want {
			return fmt.Sprintf("staged %s truncated: %d of the %d acknowledged bytes survived", what, fi.Size(), want)
		}
		return ""
	}
	referenced := map[string]bool{}
	var jobs []*Job
	for _, rec := range recs {
		job := &Job{
			ID:          rec.ID,
			State:       JobQueued,
			Service:     rec.Service,
			SubmittedAt: rec.SubmittedAt,
			Files:       len(rec.Uploads),
			uploads:     rec.Uploads,
			keylog:      rec.Keylog,
			keylogSize:  rec.KeylogBytes,
			recovered:   true,
		}
		broken := ""
		for i := range job.uploads {
			up, ok := &job.uploads[i], false
			if up.trace, ok = personas.Parse(up.Persona); !ok {
				broken = fmt.Sprintf("persona %q is not configured on this server", up.Persona)
			} else {
				broken = staged("capture", up.Path, up.Bytes)
			}
			if broken != "" {
				break
			}
			referenced[up.Path] = true
		}
		if broken == "" && job.keylog != "" {
			broken = staged("keylog", job.keylog, job.keylogSize)
			referenced[job.keylog] = true
		}
		if broken != "" {
			// Not re-runnable: surface the loss as a failed job, not a
			// re-queue that cannot succeed, and release what staging is left.
			job.State = JobFailed
			job.Error = "crash recovery: " + broken
			job.FinishedAt = time.Now().UTC()
			job.cleanup()
			j.done(rec.ID)
		}
		jobs = append(jobs, job)
	}
	// Staging orphans: uploads whose submit crashed before its frame synced.
	stray, _ := filepath.Glob(filepath.Join(j.staging(), "*"))
	for _, path := range stray {
		if !referenced[path] {
			os.Remove(path)
		}
	}
	// Job IDs are "job-<n>": numeric order is submission order.
	sort.Slice(jobs, func(a, b int) bool { return jobIDNum(jobs[a].ID) < jobIDNum(jobs[b].ID) })
	return j, jobs, nil
}
