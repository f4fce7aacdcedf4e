package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/faults"
	"diffaudit/internal/flows"
	"diffaudit/internal/store"
)

// builtinsOnly is the persona index of a server configured with no custom
// personas.
var builtinsOnly, _ = flows.NewPersonaIndex()

// stalledPipeline returns a NewPipeline that blocks on gate — the
// in-process stand-in for a worker frozen mid-audit when the process is
// killed. Abandoning a server built on it (no Close) leaks the blocked
// goroutine for the remainder of the test binary, which is exactly the
// "process died here" semantics the crash matrix needs.
func stalledPipeline(gate chan struct{}) func() *core.Pipeline {
	return func() *core.Pipeline {
		<-gate
		return core.NewPipeline()
	}
}

// stalledPutStore wraps a Store so Put blocks forever — the crash point
// between "audit finished" and "snapshot durable".
type stalledPutStore struct {
	store.Store
	gate chan struct{}
}

func (s *stalledPutStore) Put(jobID string, r *core.ServiceResult) (store.Meta, error) {
	<-s.gate
	return s.Store.Put(jobID, r)
}

// healthSnapshot decodes GET /healthz.
func healthSnapshot(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	code, body := getBody(t, ts, "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d: %s", code, body)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// submitFrame and doneFrame render the two kinds of log line.
func submitFrame(t *testing.T, rec journalRecord) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame('S', payload)
}

func doneFrame(id string) []byte { return frame('D', []byte(id)) }

// mkJournalDir creates an empty journal directory with its staging
// directory, the state every hand-built crash scene starts from.
func mkJournalDir(t *testing.T) string {
	t.Helper()
	jdir := filepath.Join(t.TempDir(), "journal")
	if err := os.MkdirAll(filepath.Join(jdir, "staging"), 0o755); err != nil {
		t.Fatal(err)
	}
	return jdir
}

// writeLog leaves journal.log holding exactly data.
func writeLog(t *testing.T, jdir string, data ...[]byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(jdir, "journal.log"), bytes.Join(data, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// stageCapture writes data into the journal's staging directory and
// returns a submit record referencing it.
func stageCapture(t *testing.T, jdir, id string, data []byte) journalRecord {
	t.Helper()
	staged := filepath.Join(jdir, "staging", "diffaudit-child-"+id+".har")
	if err := os.WriteFile(staged, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return journalRecord{
		Version:     journalVersion,
		ID:          id,
		Service:     "Quizlet",
		SubmittedAt: time.Now().UTC(),
		Uploads:     []upload{{Path: staged, Bytes: int64(len(data)), HAR: true, Persona: "child"}},
	}
}

// journalFiles lists every regular file under a journal directory — what
// the next start would re-run, sweep, or refuse.
func journalFiles(t *testing.T, jdir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(jdir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, strings.TrimPrefix(path, jdir+"/"))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// waitDrained is called once every job is visible as finished. The log
// must be gone by then — a job's done line is written before the job turns
// visible, so a serial client's next submit never races it — and the
// staged files, removed just after, get a moment to follow.
func waitDrained(t *testing.T, jdir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(jdir, "journal.log")); !os.IsNotExist(err) {
		t.Fatalf("journal.log outlived the last job turning visible as finished (stat: %v)", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		left := journalFiles(t, jdir)
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal not drained: %v left", left)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// jobIDs lists recovered jobs' IDs in the order recovery returned them.
func jobIDs(jobs []*Job) []string {
	ids := []string{}
	for _, job := range jobs {
		ids = append(ids, job.ID)
	}
	return ids
}

// TestJournalCrashRecoveryMatrix is the acceptance matrix for the
// journal: a server is abandoned (never Closed — the in-process stand-in
// for kill -9) at three points in a job's life, a fresh server is opened
// over the same journal and store directories, and in every case the
// interrupted job re-runs to done with a report byte-identical to an
// uninterrupted server's.
func TestJournalCrashRecoveryMatrix(t *testing.T) {
	harData := string(childHAR(t))
	parts := map[string][2]string{
		"child": {"child.har", harData},
		"name":  {"", "Quizlet"},
	}

	// The uninterrupted baseline.
	baseDir := t.TempDir()
	baseStore, err := store.OpenFSStore(filepath.Join(baseDir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	baseSrv := New(Config{Workers: 1, JournalDir: filepath.Join(baseDir, "journal"), Store: baseStore})
	baseTS := httptest.NewServer(baseSrv)
	job := runJob(t, baseTS, parts)
	_, want := getBody(t, baseTS, "/v1/jobs/"+job.ID+"/report.json")
	baseTS.Close()
	baseSrv.Close()

	// submit stages parts and requires 202 without waiting.
	accept := func(t *testing.T, ts *httptest.Server) Job {
		t.Helper()
		resp := submit(t, ts, parts)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
		return decodeJob(t, resp)
	}

	// recover asserts the crash left a log behind, opens a healthy server
	// over the crashed one's directories and asserts every interrupted job
	// re-runs to a byte-identical done.
	recoverAndCheck := func(t *testing.T, dir string, ids ...string) {
		t.Helper()
		// The 202s were gated on group commits: the crashed server must
		// have left the log for the recovery to read.
		if _, err := os.Stat(filepath.Join(dir, "journal", "journal.log")); err != nil {
			t.Fatalf("no journal.log survived the crash — the 202s were not backed by a commit: %v", err)
		}
		st, err := store.OpenFSStore(filepath.Join(dir, "snapshots"))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Open(Config{Workers: 1, JournalDir: filepath.Join(dir, "journal"), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for _, id := range ids {
			done := wait(t, ts, id)
			if done.State != JobDone {
				t.Fatalf("recovered %s = %+v", id, done)
			}
			code, got := getBody(t, ts, "/v1/jobs/"+id+"/report.json")
			if code != http.StatusOK {
				t.Fatalf("recovered report %s: %d", id, code)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered %s report differs from the uninterrupted baseline", id)
			}
		}
		// All recovered jobs settled: the journal must be empty again —
		// no log, no staged capture — and healthz back to non-degraded.
		if h := healthSnapshot(t, ts); h["degraded"] != false {
			t.Fatalf("healthz after recovery = %v", h)
		}
		waitDrained(t, filepath.Join(dir, "journal"))
	}

	t.Run("killed-with-job-queued-and-job-running", func(t *testing.T) {
		// One wedged worker: job-1 dies running (mid-audit), job-2 dies
		// queued — the first two matrix cells in one crash.
		dir := t.TempDir()
		st, err := store.OpenFSStore(filepath.Join(dir, "snapshots"))
		if err != nil {
			t.Fatal(err)
		}
		crashed := New(Config{
			Workers:     1,
			JournalDir:  filepath.Join(dir, "journal"),
			Store:       st,
			NewPipeline: stalledPipeline(make(chan struct{})),
		})
		ts := httptest.NewServer(crashed)
		j1 := accept(t, ts)
		j2 := accept(t, ts)
		ts.Close() // abandon crashed without Close: the "kill -9"
		recoverAndCheck(t, dir, j1.ID, j2.ID)
	})

	t.Run("killed-mid-store-put", func(t *testing.T) {
		// The audit finished but the snapshot write never returned: no
		// done line was written, so the restart re-runs the job.
		dir := t.TempDir()
		st, err := store.OpenFSStore(filepath.Join(dir, "snapshots"))
		if err != nil {
			t.Fatal(err)
		}
		crashed := New(Config{
			Workers:    1,
			JournalDir: filepath.Join(dir, "journal"),
			Store:      &stalledPutStore{Store: st, gate: make(chan struct{})},
		})
		ts := httptest.NewServer(crashed)
		j1 := accept(t, ts)
		// Wait until the worker has the job before "killing" it.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("job never reached running")
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + j1.ID)
			if err != nil {
				t.Fatal(err)
			}
			var jb Job
			json.NewDecoder(resp.Body).Decode(&jb)
			resp.Body.Close()
			if jb.State == JobRunning {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // let the audit reach the stalled Put
		ts.Close()
		recoverAndCheck(t, dir, j1.ID)
	})
}

// TestJournalStartupGC: opening a server over a journal littered with
// crash leftovers — an interrupted rewrite (.tmp-*), a log that is
// garbage from its first byte, and staging files no record references —
// deletes all of them.
func TestJournalStartupGC(t *testing.T) {
	jdir := mkJournalDir(t)
	for _, f := range []string{".tmp-interrupted", "staging/diffaudit-child-orphan"} {
		if err := os.WriteFile(filepath.Join(jdir, f), []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeLog(t, jdir, []byte("{not a frame"))

	srv, err := Open(testConfig(t, Config{JournalDir: jdir}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if left := journalFiles(t, jdir); len(left) != 0 {
		t.Errorf("survived startup GC: %v", left)
	}
}

// TestJournalRefusesUnreadableRecords: Open does not start over records
// it cannot read — the per-job and batch files of the layout before
// journal.log, or a log frame that passes its checksum but comes from a
// newer build. Each holds acknowledged jobs; starting anyway would drop
// them silently. The error names the file.
func TestJournalRefusesUnreadableRecords(t *testing.T) {
	future := journalRecord{Version: journalVersion + 1, ID: "job-1"}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"job-9.job", []byte(`{"version":1,"id":"job-9"}`)},
		{"batch-000001.batch", []byte(`{"version":1,"records":[]}`)},
		{"journal.log", submitFrame(t, future)},
		{"journal.log", frame('X', []byte("job-1"))},
	} {
		jdir := mkJournalDir(t)
		path := filepath.Join(jdir, tc.name)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := Open(testConfig(t, Config{JournalDir: jdir}))
		if err == nil {
			srv.Close()
			t.Fatalf("Open over %s (%q) succeeded, want a refusal", tc.name, tc.data)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("refusal of %s does not name the file: %v", tc.name, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, tc.data) {
			t.Errorf("refused %s was not left as it was", tc.name)
		}
	}
}

// TestJournalRecoveryDamagedStaging: a record whose staged files are not
// what the server acknowledged recovers as a failed job with a
// diagnostic — visible loss, not a silent drop, not an endless
// crash-rerun loop, and above all not an error-free audit of a capture
// that a power loss cut short (staged files are never fsynced).
func TestJournalRecoveryDamagedStaging(t *testing.T) {
	har := childHAR(t)
	for name, tc := range map[string]struct {
		damage func(t *testing.T, rec *journalRecord)
		want   string
	}{
		// The crash interleaved with cleanup, or an operator pruned staging.
		"capture missing": {func(t *testing.T, rec *journalRecord) { os.Remove(rec.Uploads[0].Path) }, "staged capture missing"},
		"capture truncated": {func(t *testing.T, rec *journalRecord) {
			if err := os.Truncate(rec.Uploads[0].Path, int64(len(har)/2)); err != nil {
				t.Fatal(err)
			}
		}, "staged capture truncated"},
		"keylog truncated": {func(t *testing.T, rec *journalRecord) {
			rec.Keylog = filepath.Join(filepath.Dir(rec.Uploads[0].Path), "diffaudit-keylog-1")
			rec.KeylogBytes = 64
			if err := os.WriteFile(rec.Keylog, []byte("CLIENT_RANDOM"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "staged keylog truncated"},
	} {
		t.Run(name, func(t *testing.T) {
			jdir := mkJournalDir(t)
			rec := stageCapture(t, jdir, "job-3", har)
			tc.damage(t, &rec)
			writeLog(t, jdir, submitFrame(t, rec))

			srv, err := Open(testConfig(t, Config{JournalDir: jdir}))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()

			code, body := getBody(t, ts, "/v1/jobs/job-3")
			if code != http.StatusOK {
				t.Fatalf("recovered job: %d: %s", code, body)
			}
			var job Job
			if err := json.Unmarshal(body, &job); err != nil {
				t.Fatal(err)
			}
			if job.State != JobFailed || !strings.Contains(job.Error, "crash recovery: "+tc.want) {
				t.Fatalf("job = %+v, want failed with a %q diagnostic", job, tc.want)
			}
			// The unrecoverable record must not survive to fail again next
			// boot, and what was left of its staging is released.
			if left := journalFiles(t, jdir); len(left) != 0 {
				t.Fatalf("unrecoverable job left %v behind", left)
			}
			// healthz: a recovered-failed job settled immediately; not degraded.
			if h := healthSnapshot(t, ts); h["degraded"] != false {
				t.Fatalf("healthz = %v", h)
			}
		})
	}

	// The byte count recovery compares against is the one the upload
	// path counted, end to end: cut a real staged upload short behind an
	// abandoned server's back.
	jdir := filepath.Join(t.TempDir(), "journal")
	crashed := New(testConfig(t, Config{Workers: 1, JournalDir: jdir, NewPipeline: stalledPipeline(make(chan struct{}))}))
	ts := httptest.NewServer(crashed)
	resp := submit(t, ts, quizletParts(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := decodeJob(t, resp).ID
	ts.Close() // abandon
	stagedFiles, _ := filepath.Glob(filepath.Join(jdir, "staging", "*"))
	if len(stagedFiles) != 1 {
		t.Fatalf("staged files = %v, want one", stagedFiles)
	}
	fi, err := os.Stat(stagedFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(stagedFiles[0], fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(testConfig(t, Config{Workers: 1, JournalDir: jdir}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	job, ok := srv.lookup(id)
	if !ok || job.State != JobFailed || !strings.Contains(job.Error, "staged capture truncated") {
		t.Fatalf("upload cut one byte short recovered as %+v, want failed with the truncation diagnostic", job)
	}
}

// TestJournalRecoveryDegradedHealth: while crash-recovered jobs are still
// re-running, healthz reports degraded with the recovering count; once
// they settle it returns to normal.
func TestJournalRecoveryDegradedHealth(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")

	crashed := New(testConfig(t, Config{
		Workers:     1,
		JournalDir:  jdir,
		NewPipeline: stalledPipeline(make(chan struct{})),
	}))
	ts := httptest.NewServer(crashed)
	resp := submit(t, ts, map[string][2]string{
		"child": {"child.har", string(childHAR(t))},
		"name":  {"", "Quizlet"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	ts.Close() // abandon

	gate := make(chan struct{})
	srv, err := Open(testConfig(t, Config{Workers: 1, JournalDir: jdir, NewPipeline: stalledPipeline(gate)}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()

	h := healthSnapshot(t, ts2)
	if h["degraded"] != true || h["recovering"] != float64(1) {
		t.Fatalf("healthz during recovery = %v, want degraded with recovering=1", h)
	}

	close(gate)
	done := wait(t, ts2, job.ID)
	if done.State != JobDone {
		t.Fatalf("recovered job = %+v", done)
	}
	h = healthSnapshot(t, ts2)
	if h["degraded"] != false || h["recovering"] != float64(0) {
		t.Fatalf("healthz after recovery = %v", h)
	}
}

// TestJournalRecoveredIDsFenceNextID: a restarted server must mint IDs
// past every recovered job, or a new upload would alias a crashed one.
func TestJournalRecoveredIDsFenceNextID(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")

	crashed := New(testConfig(t, Config{
		Workers:     1,
		JournalDir:  jdir,
		NewPipeline: stalledPipeline(make(chan struct{})),
	}))
	ts := httptest.NewServer(crashed)
	parts := map[string][2]string{
		"child": {"child.har", string(childHAR(t))},
		"name":  {"", "Quizlet"},
	}
	var last Job
	for i := 0; i < 3; i++ {
		resp := submit(t, ts, parts)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		last = decodeJob(t, resp)
	}
	ts.Close() // abandon

	srv, err := Open(testConfig(t, Config{Workers: 1, JournalDir: jdir}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()

	resp := submit(t, ts2, parts)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d", resp.StatusCode)
	}
	fresh := decodeJob(t, resp)
	if jobIDNum(fresh.ID) <= jobIDNum(last.ID) {
		t.Fatalf("fresh job %s does not fence recovered %s", fresh.ID, last.ID)
	}
}

// TestJournalConcurrentSubmits pins the commit mechanics at the journal
// level: concurrent submits each take a commit of their own and return
// only once it is done, a done line never waits on a submit's flush, done
// lines are appended without rewriting anything, and the last done takes
// the log with it.
func TestJournalConcurrentSubmits(t *testing.T) {
	j, _, err := openJournal(filepath.Join(t.TempDir(), "journal"), builtinsOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer faults.Reset()
	recs := map[int]journalRecord{}
	for n := 1; n <= 5; n++ {
		recs[n] = journalRecord{Version: journalVersion, ID: fmt.Sprintf("job-%d", n), Service: "Quizlet", SubmittedAt: time.Now().UTC()}
	}
	logSize := func() int64 {
		fi, err := os.Stat(j.logPath())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	// Slow every commit, so the four submits overlap. The k-th append to
	// return has seen at least k commits: none rides on another's.
	faults.Set("journal.batch", faults.Plan{Delay: 20 * time.Millisecond, Count: -1})
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen []int // journal.batch calls when each append returned, in return order
	)
	for n := 1; n <= 4; n++ {
		wg.Add(1)
		want := submitFrame(t, recs[n])
		go func() {
			defer wg.Done()
			if err := j.append(recs[n]); err != nil {
				t.Errorf("append job-%d: %v", n, err)
				return
			}
			mu.Lock()
			seen = append(seen, faults.Calls("journal.batch"))
			mu.Unlock()
			if data, err := os.ReadFile(j.logPath()); err != nil || !bytes.Contains(data, want) {
				t.Errorf("append job-%d returned before its frame was in the log (%v)", n, err)
			}
		}()
	}
	wg.Wait()
	if commits := faults.Calls("journal.batch"); commits != 4 {
		t.Fatalf("4 concurrent appends took %d commits, want 4", commits)
	}
	for k, calls := range seen {
		if calls < k+1 {
			t.Fatalf("append #%d returned after %d commits: it rode on another submit's commit (%v)", k+1, calls, seen)
		}
	}

	// Stall a later submit between its write and its sync: a done for an
	// earlier job must still go through at once.
	const stall = time.Second
	faults.Set("journal.batch", faults.Plan{Delay: stall, Count: 1})
	appended := make(chan error, 1)
	go func() { appended <- j.append(recs[5]) }()
	for deadline := time.Now().Add(5 * time.Second); faults.Calls("journal.batch") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("append job-5 never reached its commit")
		}
	}
	before := logSize()
	start := time.Now()
	j.done("job-3")
	if took := time.Since(start); took > stall/2 {
		t.Fatalf("done(job-3) took %v behind a submit stalled in its commit: it waited on the flush", took)
	}
	select {
	case err := <-appended:
		t.Fatalf("append job-5 returned (%v) inside its stalled commit", err)
	default:
	}
	if grew := logSize() - before; grew != int64(len(doneFrame("job-3"))) {
		t.Fatalf("done(job-3) changed the log by %d bytes, want one appended done line", grew)
	}
	if err := <-appended; err != nil {
		t.Fatalf("append job-5: %v", err)
	}

	j.done("job-3") // a second done for the same job is not a second line
	j.done("job-2")
	j.done("job-4")
	if grew := logSize() - before; grew != int64(len(doneFrame("job-3"))*3) {
		t.Fatalf("three dones grew the log by %d bytes, want three lines", grew)
	}
	j.done("job-1")
	j.done("job-5")
	if left := journalFiles(t, j.dir); len(left) != 0 {
		t.Fatalf("the log survives its last live job: %v", left)
	}
}

// TestJournalFailedBatchCancelled: a batch that reached the log but not
// the disk was never acknowledged, so its jobs must not come back — not
// beside a job that was, and not when they were the only ones.
func TestJournalFailedBatchCancelled(t *testing.T) {
	defer faults.Reset()
	jdir := filepath.Join(t.TempDir(), "journal")
	j, _, err := openJournal(jdir, builtinsOnly)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(n int) journalRecord {
		return journalRecord{Version: journalVersion, ID: fmt.Sprintf("job-%d", n), Service: "Quizlet"}
	}
	reopened := func() []string {
		t.Helper()
		_, jobs, err := openJournal(jdir, builtinsOnly)
		if err != nil {
			t.Fatal(err)
		}
		return jobIDs(jobs)
	}
	faults.Set("journal.batch", faults.Plan{Err: errors.New("disk detached"), Count: -1})
	if err := j.append(rec(1)); err == nil {
		t.Fatal("append succeeded through a failing sync")
	}
	if left := journalFiles(t, jdir); len(left) != 0 {
		t.Fatalf("a failed lone batch left %v", left)
	}
	faults.Reset()
	if err := j.append(rec(2)); err != nil {
		t.Fatal(err)
	}
	faults.Set("journal.batch", faults.Plan{Err: errors.New("disk detached"), Count: -1})
	if err := j.append(rec(3)); err == nil {
		t.Fatal("append succeeded through a failing sync")
	}
	if got := reopened(); !reflect.DeepEqual(got, []string{"job-2"}) {
		t.Fatalf("recovered %v, want only the acknowledged job-2", got)
	}
}

// TestJournalCrashBetweenBatchStages pins the crash contract by
// recovering over the exact log a kill at each point leaves behind: a
// synced batch is the durability promise and every record in it re-runs
// to a byte-identical report; a frame the crash tore, and everything
// after the first damaged frame, was never acknowledged and owes
// nothing; a done line keeps its job dead; and a done line the crash
// lost only re-runs a job whose result is already stored.
func TestJournalCrashBetweenBatchStages(t *testing.T) {
	harData := childHAR(t)
	parts := map[string][2]string{
		"child": {"child.har", string(harData)},
		"name":  {"", "Quizlet"},
	}

	// The uninterrupted baseline every recovered job must match. Its
	// store goes on to play the store a crashed server had already
	// persisted job-1 into.
	dir := t.TempDir()
	st, err := store.OpenFSStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	base := New(testConfig(t, Config{Workers: 1, Store: st}))
	baseTS := httptest.NewServer(base)
	baseJob := runJob(t, baseTS, parts)
	_, want := getBody(t, baseTS, "/v1/jobs/"+baseJob.ID+"/report.json")
	baseTS.Close()
	base.Close()

	// recover opens a server over jdir and requires exactly the jobs in
	// ids to come back, each re-running to the baseline report, and the
	// journal directory to end up empty.
	recoverOnly := func(t *testing.T, jdir string, cfg Config, ids ...string) {
		t.Helper()
		cfg.Workers, cfg.JournalDir = 1, jdir
		srv, err := Open(testConfig(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if h := healthSnapshot(t, ts); h["jobs"] != float64(len(ids)) {
			t.Fatalf("recovery came back with %v jobs, want exactly %v", h["jobs"], ids)
		}
		for _, id := range ids {
			if done := wait(t, ts, id); done.State != JobDone {
				t.Fatalf("recovered %s = %+v", id, done)
			}
			code, got := getBody(t, ts, "/v1/jobs/"+id+"/report.json")
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("recovered %s report differs from the uninterrupted baseline (code %d)", id, code)
			}
		}
		waitDrained(t, jdir)
	}

	t.Run("killed-after-sync", func(t *testing.T) {
		jdir := mkJournalDir(t)
		writeLog(t, jdir,
			submitFrame(t, stageCapture(t, jdir, "job-1", harData)),
			submitFrame(t, stageCapture(t, jdir, "job-2", harData)))
		recoverOnly(t, jdir, Config{}, "job-1", "job-2")
	})

	t.Run("torn-tail-never-acked", func(t *testing.T) {
		// The batch's write was cut short: its submitter never got a 202,
		// so recovery must not resurrect the job — and must GC the staged
		// upload the torn frame references, and a rewrite's temp file.
		jdir := mkJournalDir(t)
		torn := submitFrame(t, stageCapture(t, jdir, "job-2", harData))
		writeLog(t, jdir, submitFrame(t, stageCapture(t, jdir, "job-1", harData)), torn[:len(torn)/2])
		if err := os.WriteFile(filepath.Join(jdir, ".tmp-interrupted"), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		recoverOnly(t, jdir, Config{}, "job-1")
	})

	t.Run("corrupt-frame-in-the-middle", func(t *testing.T) {
		// Nothing past the first frame that fails its checksum can be
		// trusted to be in acknowledged order; recovery stops there.
		jdir := mkJournalDir(t)
		bad := submitFrame(t, stageCapture(t, jdir, "job-2", harData))
		bad[len(bad)/2] ^= 0x01
		writeLog(t, jdir,
			submitFrame(t, stageCapture(t, jdir, "job-1", harData)),
			bad,
			submitFrame(t, stageCapture(t, jdir, "job-3", harData)))
		recoverOnly(t, jdir, Config{}, "job-1")
	})

	t.Run("done-entry-stays-dead", func(t *testing.T) {
		// job-8 finished (its staging was cleaned and its done line
		// appended) before the crash; job-3 was still in flight. Recovery
		// must re-run only job-3 — resurrecting job-8 would surface a
		// completed job as a phantom "staged capture missing" failure.
		jdir := mkJournalDir(t)
		settled := stageCapture(t, jdir, "job-8", harData)
		os.Remove(settled.Uploads[0].Path)
		writeLog(t, jdir,
			submitFrame(t, stageCapture(t, jdir, "job-3", harData)),
			submitFrame(t, settled),
			doneFrame("job-8"))
		recoverOnly(t, jdir, Config{}, "job-3")
	})

	t.Run("lost-done-reruns-idempotent-job", func(t *testing.T) {
		// The snapshot landed in the store but the unsynced done line did
		// not reach the disk: the job re-runs to the same content under
		// the same ID.
		jdir := mkJournalDir(t)
		writeLog(t, jdir, submitFrame(t, stageCapture(t, jdir, baseJob.ID, harData)))
		recoverOnly(t, jdir, Config{Store: st}, baseJob.ID)
		metas, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			if m.JobID != baseJob.ID || m.Hash != baseJob.SnapshotHash {
				t.Errorf("re-run stored %+v, want only %s's content %s", m, baseJob.ID, baseJob.SnapshotHash)
			}
		}
	})
}

// TestJournalModel drives the log with a seeded random walk of submit
// bursts, dones and abandon-and-reopen against the obvious model: a list
// of live IDs. After every reopen recovery must return exactly the
// model's IDs in submission order; the log must exist exactly when some
// job is live; and — the records are fat so that a dozen jobs get there
// — finished jobs' lines must be rewritten away once they exceed
// journalMaxGarbage, so the file never outgrows that plus its live
// lines. Some bursts race dones for older live jobs, sometimes for all
// of them: a done that unlinked or rewrote the log under a
// written-but-unsynced batch, or under an acknowledged job still
// running, loses that job at the next reopen.
func TestJournalModel(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	rng := rand.New(rand.NewSource(15))
	pad := strings.Repeat("x", 128<<10)
	const maxLive, maxBurst = 16, 4
	var (
		j        *journal
		live     []string // the model
		next     int
		rewrites int
	)
	logSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "journal.log"))
		if err != nil {
			if len(live) > 0 {
				t.Fatalf("%d jobs live but no log: %v", len(live), err)
			}
			return 0
		}
		if len(live) == 0 {
			t.Fatalf("no job live but the log exists (%d bytes)", fi.Size())
		}
		// Garbage is capped when a batch is written; until the next one
		// the file grows only by done lines.
		if limit := int64(journalMaxGarbage + (maxLive+maxBurst)*(len(pad)+1024)); fi.Size() > limit {
			t.Fatalf("log grew to %d bytes with %d jobs live, cap is %d", fi.Size(), len(live), limit)
		}
		return fi.Size()
	}
	reopen := func() {
		if j != nil && j.f != nil {
			j.f.Close() // the dead process's descriptor; nothing is flushed or removed
		}
		var jobs []*Job
		var err error
		if j, jobs, err = openJournal(dir, builtinsOnly); err != nil {
			t.Fatal(err)
		}
		if got := jobIDs(jobs); !reflect.DeepEqual(got, append([]string{}, live...)) {
			t.Fatalf("recovered %v, model has %v", got, live)
		}
		logSize()
	}
	// finish marks the model's jobs at the given indexes done, in the
	// journal and in the model.
	finish := func(idx ...int) {
		kept := live[:0:0]
		for i, id := range live {
			if len(idx) > 0 && idx[0] == i {
				j.done(id)
				idx = idx[1:]
			} else {
				kept = append(kept, id)
			}
		}
		live = kept
	}
	reopen()
	for step := 0; step < 600; step++ {
		switch r := rng.Intn(40); {
		case r == 0:
			reopen()
		case r < 18 && len(live) < maxLive:
			before := logSize()
			var racing []int // older jobs finishing while the burst commits
			mode := rng.Intn(10)
			if mode < 5 {
				for i := range live {
					if mode == 0 || rng.Intn(2) == 0 {
						racing = append(racing, i)
					}
				}
			}
			if mode == 0 {
				// Hold the batch between its write and its sync, and let
				// every older job finish inside that window.
				faults.Set("journal.batch", faults.Plan{Delay: 10 * time.Millisecond})
			}
			var wg sync.WaitGroup
			for k := rng.Intn(maxBurst); k >= 0; k-- {
				next++
				rec := journalRecord{Version: journalVersion, ID: fmt.Sprintf("job-%d", next), Service: pad}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := j.append(rec); err != nil {
						t.Errorf("append %s: %v", rec.ID, err)
					}
				}()
				live = append(live, rec.ID)
			}
			for mode == 0 && faults.Calls("journal.batch") == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			finish(racing...)
			wg.Wait()
			faults.Reset()
			// Appends only grow a log, and with an older job still live
			// nothing unlinked it: a smaller file was rewritten.
			if after := logSize(); after < before && len(racing) == 0 {
				rewrites++
			}
		case len(live) > 1 || len(live) == 1 && rng.Intn(4) == 0:
			finish(rng.Intn(len(live)))
			logSize()
		}
	}
	reopen()
	for len(live) > 0 {
		finish(0)
		logSize()
	}
	if rewrites == 0 {
		t.Error("the walk never pushed the log over its garbage cap; the rewrite-before-batch path went untested")
	}
	t.Logf("%d jobs, %d rewrites at the garbage cap", next, rewrites)
}

// TestJournalDamagedLog cuts a valid multi-record log at every byte
// offset, and flips every byte of it in turn: recovery must return
// exactly what the frames before the damage say, and never panic.
func TestJournalDamagedLog(t *testing.T) {
	rec := func(n int) []byte {
		return submitFrame(t, journalRecord{Version: journalVersion, ID: fmt.Sprintf("job-%d", n), Service: "Quizlet"})
	}
	frames := [][]byte{rec(1), rec(2), doneFrame("job-1"), rec(3), rec(4), doneFrame("job-3"), rec(5)}
	// wantAfter[n] is the live set n whole frames describe.
	wantAfter := [][]string{{}, {"job-1"}, {"job-1", "job-2"}, {"job-2"}, {"job-2", "job-3"},
		{"job-2", "job-3", "job-4"}, {"job-2", "job-4"}, {"job-2", "job-4", "job-5"}}
	data := bytes.Join(frames, nil)
	// frameAt[off] is the index of the frame holding byte off.
	var frameAt []int
	for i, f := range frames {
		for range f {
			frameAt = append(frameAt, i)
		}
	}
	jdir := mkJournalDir(t)
	recovered := func(log []byte) []string {
		writeLog(t, jdir, log)
		j, jobs, err := openJournal(jdir, builtinsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if j.f != nil {
			j.f.Close()
		}
		return jobIDs(jobs)
	}
	for cut := 0; cut <= len(data); cut++ {
		whole := len(frames)
		if cut < len(data) {
			whole = frameAt[cut]
		}
		if got := recovered(data[:cut]); !reflect.DeepEqual(got, wantAfter[whole]) {
			t.Fatalf("log cut at byte %d of %d recovered %v, want %v", cut, len(data), got, wantAfter[whole])
		}
	}
	for off := range data {
		damaged := bytes.Clone(data)
		damaged[off] ^= 0x01
		if got := recovered(damaged); !reflect.DeepEqual(got, wantAfter[frameAt[off]]) {
			t.Fatalf("byte %d (frame %d) flipped: recovered %v, want %v", off, frameAt[off], got, wantAfter[frameAt[off]])
		}
	}
}
