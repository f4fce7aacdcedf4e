package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/faults"
	"diffaudit/internal/store"
)

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

	// recover opens a healthy server over the crashed one's directories
	// and asserts every interrupted job re-runs to a byte-identical done.
	recoverAndCheck := func(t *testing.T, dir string, ids ...string) {
		t.Helper()
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
		// All recovered jobs settled: the journal must be empty again and
		// healthz back to non-degraded.
		if h := healthSnapshot(t, ts); h["degraded"] != false {
			t.Fatalf("healthz after recovery = %v", h)
		}
		left, _ := filepath.Glob(filepath.Join(dir, "journal", "*.job"))
		if len(left) != 0 {
			t.Fatalf("journal records left after recovery: %v", left)
		}
		// Batch files never outlive one recovery: surviving entries were
		// promoted to per-job records (and have since settled away).
		batches, _ := filepath.Glob(filepath.Join(dir, "journal", "*.batch"))
		if len(batches) != 0 {
			t.Fatalf("batch files left after recovery: %v", batches)
		}
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
		// The 202s were gated on group commits: the crashed server must
		// have left durable batch files for the recovery to read.
		batches, _ := filepath.Glob(filepath.Join(dir, "journal", "*.batch"))
		if len(batches) == 0 {
			t.Fatal("no batch files survived the crash — the 202s were not backed by a group commit")
		}
		recoverAndCheck(t, dir, j1.ID, j2.ID)
	})

	t.Run("killed-mid-store-put", func(t *testing.T) {
		// The audit finished but the snapshot write never returned: the
		// journal record must survive so the restart re-runs the job.
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
		// Wait until the worker is provably inside Put (job running and
		// its journal record rewritten to running) before "killing" it.
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
// crash leftovers — interrupted record writes (.tmp-*), corrupt records,
// and staging files no record references — deletes all of them.
func TestJournalStartupGC(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(filepath.Join(jdir, "staging"), 0o755); err != nil {
		t.Fatal(err)
	}
	tmpLeft := filepath.Join(jdir, ".tmp-interrupted")
	corrupt := filepath.Join(jdir, "job-9.job")
	corruptBatch := filepath.Join(jdir, "batch-000009.batch")
	orphan := filepath.Join(jdir, "staging", "diffaudit-child-orphan")
	for _, f := range []string{tmpLeft, corrupt, corruptBatch, orphan} {
		if err := os.WriteFile(f, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := Open(Config{JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, f := range []string{tmpLeft, corrupt, corruptBatch, orphan} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s survived startup GC (err=%v)", f, err)
		}
	}
}

// TestJournalRecoveryMissingUpload: a record whose staged capture is gone
// (the crash interleaved with cleanup, or an operator pruned staging)
// recovers as a failed job with a diagnostic — visible loss, not a
// silent drop and not an endless crash-rerun loop.
func TestJournalRecoveryMissingUpload(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	j, err := openJournal(jdir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := journalRecord{
		Version:     journalVersion,
		ID:          "job-3",
		Service:     "custom-service",
		State:       JobQueued,
		SubmittedAt: time.Now().UTC(),
		Uploads:     []journalUpload{{Path: filepath.Join(jdir, "staging", "gone.har"), HAR: true, Persona: "child"}},
	}
	if err := j.write(rec); err != nil {
		t.Fatal(err)
	}

	srv, err := Open(Config{JournalDir: jdir})
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
	if job.State != JobFailed || !strings.Contains(job.Error, "crash recovery") {
		t.Fatalf("job = %+v, want failed with a crash-recovery diagnostic", job)
	}
	// The unrecoverable record must not survive to fail again next boot.
	if _, err := os.Stat(j.path("job-3")); !os.IsNotExist(err) {
		t.Fatalf("journal record for unrecoverable job survived (err=%v)", err)
	}
	// healthz: a recovered-failed job settled immediately; not degraded.
	if h := healthSnapshot(t, ts); h["degraded"] != false {
		t.Fatalf("healthz = %v", h)
	}
}

// TestJournalRecoveryDegradedHealth: while crash-recovered jobs are still
// re-running, healthz reports degraded with the recovering count; once
// they settle it returns to normal.
func TestJournalRecoveryDegradedHealth(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")

	crashed := New(Config{
		Workers:     1,
		JournalDir:  jdir,
		NewPipeline: stalledPipeline(make(chan struct{})),
	})
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
	srv, err := Open(Config{Workers: 1, JournalDir: jdir, NewPipeline: stalledPipeline(gate)})
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

	crashed := New(Config{
		Workers:     1,
		JournalDir:  jdir,
		NewPipeline: stalledPipeline(make(chan struct{})),
	})
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

	srv, err := Open(Config{Workers: 1, JournalDir: jdir})
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

// TestJournalGroupCommitBurstAndRemove pins the group-commit mechanics at
// the journal level: a burst of submits that piles up behind one stalled
// commit lands in a single batch file (one staging pass, one sync for the
// whole burst), and remove tombstones a finished job in the batch's .rm
// sidecar — deleting batch file and sidecar once the last member is gone
// — so recovery can never resurrect a settled job.
func TestJournalGroupCommitBurstAndRemove(t *testing.T) {
	j, err := openJournal(filepath.Join(t.TempDir(), "journal"), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Stall the first commit: job-1 syncs alone while jobs 2-4 queue up
	// behind it and must share the second batch.
	faults.Set("journal.batch", faults.Plan{Delay: 300 * time.Millisecond, Count: 1})
	defer faults.Reset()

	rec := func(n int) journalRecord {
		return journalRecord{Version: journalVersion, ID: fmt.Sprintf("job-%d", n), Service: "Quizlet", State: JobQueued, SubmittedAt: time.Now().UTC()}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	appendOne := func(n int) {
		defer wg.Done()
		if err := j.append(rec(n)); err != nil {
			errs <- fmt.Errorf("append job-%d: %w", n, err)
		}
	}
	wg.Add(1)
	go appendOne(1)
	time.Sleep(50 * time.Millisecond) // job-1's commit is inside the stall
	for n := 2; n <= 4; n++ {
		wg.Add(1)
		go appendOne(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	readBatch := func(path string) []journalRecord {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var b journalBatch
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		return b.Records
	}
	batches, _ := filepath.Glob(filepath.Join(j.dir, "batch-*.batch"))
	if len(batches) != 2 {
		t.Fatalf("4 appends (1 + burst of 3) produced %d batch files, want 2: %v", len(batches), batches)
	}
	sort.Strings(batches)
	if got := len(readBatch(batches[0])); got != 1 {
		t.Fatalf("first batch holds %d records, want 1", got)
	}
	if got := len(readBatch(batches[1])); got != 3 {
		t.Fatalf("burst batch holds %d records, want all 3 in one sync", got)
	}

	// remove tombstones the member in the batch's .rm sidecar — the batch
	// file itself is never rewritten on the completion path...
	j.remove("job-3")
	if got := len(readBatch(batches[1])); got != 3 {
		t.Fatalf("remove(job-3) rewrote the batch file (%d records), want it untouched with a tombstone instead", got)
	}
	rmFile := strings.TrimSuffix(batches[1], ".batch") + ".rm"
	data, err := os.ReadFile(rmFile)
	if err != nil {
		t.Fatalf("remove(job-3) left no tombstone sidecar: %v", err)
	}
	if got := strings.Fields(string(data)); len(got) != 1 || got[0] != "job-3" {
		t.Fatalf("tombstone sidecar holds %v, want [job-3]", got)
	}
	// ...and deletes batch file and sidecar with the last member.
	j.remove("job-2")
	j.remove("job-4")
	j.remove("job-1")
	if leftovers, _ := filepath.Glob(filepath.Join(j.dir, "batch-*")); len(leftovers) != 0 {
		t.Fatalf("batch files survive their last member: %v", leftovers)
	}
}

// TestJournalCrashBetweenBatchStages pins the group commit's crash
// contract at each stage boundary by recovering over the exact directory
// state a kill at that point leaves behind. Before the rename, no client
// saw a 202, so the records owe nothing and are garbage; after the
// rename the batch is the durability promise and every record re-runs to
// a byte-identical report; and a per-job record written after the batch
// always supersedes the job's (staler) batch entry.
func TestJournalCrashBetweenBatchStages(t *testing.T) {
	harData := childHAR(t)
	parts := map[string][2]string{
		"child": {"child.har", string(harData)},
		"name":  {"", "Quizlet"},
	}

	// The uninterrupted baseline report every recovered job must match.
	base := New(Config{Workers: 1})
	baseTS := httptest.NewServer(base)
	baseJob := runJob(t, baseTS, parts)
	_, want := getBody(t, baseTS, "/v1/jobs/"+baseJob.ID+"/report.json")
	baseTS.Close()
	base.Close()

	// stage writes a capture into the journal's staging dir and returns a
	// queued submit record referencing it.
	stage := func(t *testing.T, jdir, name, id string) journalRecord {
		t.Helper()
		staged := filepath.Join(jdir, "staging", name)
		if err := os.WriteFile(staged, harData, 0o644); err != nil {
			t.Fatal(err)
		}
		return journalRecord{
			Version:     journalVersion,
			ID:          id,
			Service:     "Quizlet",
			State:       JobQueued,
			SubmittedAt: time.Now().UTC(),
			Uploads:     []journalUpload{{Path: staged, HAR: true, Persona: "child"}},
		}
	}
	mkJournalDir := func(t *testing.T) string {
		t.Helper()
		jdir := filepath.Join(t.TempDir(), "journal")
		if err := os.MkdirAll(filepath.Join(jdir, "staging"), 0o755); err != nil {
			t.Fatal(err)
		}
		return jdir
	}
	writeJSON := func(t *testing.T, path string, v any) {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("killed-before-rename", func(t *testing.T) {
		// The batch died as a temp file: its submitters never got their
		// 202, so recovery must not resurrect the jobs — and must GC the
		// temp file and the staged upload it references.
		jdir := mkJournalDir(t)
		rec := stage(t, jdir, "diffaudit-child-1.har", "job-1")
		tmp := filepath.Join(jdir, ".tmp-batch-interrupted")
		writeJSON(t, tmp, journalBatch{Version: journalVersion, Records: []journalRecord{rec}})

		srv, err := Open(Config{Workers: 1, JournalDir: jdir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.mu.Lock()
		n := len(srv.jobs)
		srv.mu.Unlock()
		if n != 0 {
			t.Fatalf("unacknowledged batch resurrected %d jobs", n)
		}
		for _, f := range []string{tmp, rec.Uploads[0].Path} {
			if _, err := os.Stat(f); !os.IsNotExist(err) {
				t.Errorf("%s survived startup GC (err=%v)", f, err)
			}
		}
	})

	t.Run("killed-after-rename", func(t *testing.T) {
		// The batch file landed (a lost directory sync leaves this same
		// state when the entry is still visible): both acknowledged jobs
		// re-run to reports byte-identical to the uninterrupted baseline,
		// and the batch file itself does not outlive the recovery.
		jdir := mkJournalDir(t)
		recs := []journalRecord{
			stage(t, jdir, "diffaudit-child-1.har", "job-1"),
			stage(t, jdir, "diffaudit-child-2.har", "job-2"),
		}
		batchFile := filepath.Join(jdir, "batch-000001.batch")
		writeJSON(t, batchFile, journalBatch{Version: journalVersion, Records: recs})

		srv, err := Open(Config{Workers: 1, JournalDir: jdir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for _, id := range []string{"job-1", "job-2"} {
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
		if _, err := os.Stat(batchFile); !os.IsNotExist(err) {
			t.Errorf("batch file survived recovery (err=%v)", err)
		}
	})

	t.Run("tombstoned-entry-stays-dead", func(t *testing.T) {
		// One batch member finished (its staging was cleaned and its ID
		// appended to the .rm sidecar) before the crash; the other was
		// still in flight. Recovery must re-run only the live member —
		// resurrecting the tombstoned one would surface a completed job
		// as a phantom "staged capture missing" failure — and neither the
		// batch file nor its sidecar may outlive the recovery.
		jdir := mkJournalDir(t)
		live := stage(t, jdir, "diffaudit-child-3.har", "job-3")
		settled := live
		settled.ID = "job-8"
		settled.Uploads = []journalUpload{{Path: filepath.Join(jdir, "staging", "cleaned-up.har"), HAR: true, Persona: "child"}}
		writeJSON(t, filepath.Join(jdir, "batch-000001.batch"), journalBatch{Version: journalVersion, Records: []journalRecord{live, settled}})
		if err := os.WriteFile(filepath.Join(jdir, "batch-000001.rm"), []byte("job-8\n"), 0o644); err != nil {
			t.Fatal(err)
		}

		srv, err := Open(Config{Workers: 1, JournalDir: jdir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if done := wait(t, ts, "job-3"); done.State != JobDone {
			t.Fatalf("live batch member job-3 = %+v", done)
		}
		srv.mu.Lock()
		_, resurrected := srv.jobs["job-8"]
		srv.mu.Unlock()
		if resurrected {
			t.Fatal("tombstoned job-8 resurrected as a job")
		}
		if leftovers, _ := filepath.Glob(filepath.Join(jdir, "batch-*")); len(leftovers) != 0 {
			t.Errorf("batch file or sidecar survived recovery: %v", leftovers)
		}
	})

	t.Run("per-job-record-supersedes-batch-entry", func(t *testing.T) {
		// After the batch, the job's state moved on and wrote a per-job
		// record; the crash left both. The batch entry points at a capture
		// that no longer exists — replaying it would fail the job — so
		// recovery must prefer the newer per-job record, which points at
		// the real one.
		jdir := mkJournalDir(t)
		real := stage(t, jdir, "diffaudit-child-7.har", "job-7")
		staleEntry := real
		staleEntry.Uploads = []journalUpload{{Path: filepath.Join(jdir, "staging", "long-gone.har"), HAR: true, Persona: "child"}}
		writeJSON(t, filepath.Join(jdir, "batch-000001.batch"), journalBatch{Version: journalVersion, Records: []journalRecord{staleEntry}})
		writeJSON(t, filepath.Join(jdir, "job-7.job"), real)

		srv, err := Open(Config{Workers: 1, JournalDir: jdir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		done := wait(t, ts, "job-7")
		if done.State != JobDone {
			t.Fatalf("job-7 = %+v: the stale batch entry won over the per-job record", done)
		}
		code, got := getBody(t, ts, "/v1/jobs/job-7/report.json")
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("superseded recovery report differs from baseline (code %d)", code)
		}
	})
}
