package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/report"
	"diffaudit/internal/services"
	"diffaudit/internal/store"
	"diffaudit/internal/synth"
)

// mobileCapture renders Quizlet's adult mobile trace as pcapng bytes.
func mobileCapture(t *testing.T) []byte {
	t.Helper()
	capt, err := synth.Generate(synth.Config{Scale: 0.01}).Service("Quizlet").EmitPCAP(flows.Adult)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pcapio.WritePcapng(&buf, capt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJobsShareLabelCache: every job classifies through the server's one
// label cache, so a second job over the same captures classifies nothing —
// and what it serves and stores is what a fresh pipeline computes.
func TestJobsShareLabelCache(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData, pcapData := childHAR(t), mobileCapture(t)
	parts := map[string][2]string{
		"child": {"c.har", string(harData)},
		"adult": {"a.pcapng", string(pcapData)},
		"name":  {"", "Quizlet"},
	}
	first := runJob(t, ts, parts)
	second := runJob(t, ts, parts)
	if first.Labels == nil || first.Labels.Classified == 0 {
		t.Fatalf("first job's labels = %+v, want keys classified", first.Labels)
	}
	lookups := first.Labels.Classified + first.Labels.Reused
	if second.Labels == nil || second.Labels.Classified != 0 || second.Labels.Reused != lookups {
		t.Fatalf("second job's labels = %+v, want 0 classified and all %d lookups reused", second.Labels, lookups)
	}

	spec, _ := services.ByName("Quizlet")
	id := core.ServiceIdentity{Name: spec.Name, Owner: spec.Owner, FirstPartyESLDs: spec.FirstPartyESLDs}
	recs := append(harRecords(t, harData, flows.Child), pcapRecords(t, pcapData, flows.Adult)...)
	want := core.NewPipeline().AnalyzeRecords(id, recs)
	wantJSON, err := report.ExportJSON([]*core.ServiceResult{want})
	if err != nil {
		t.Fatal(err)
	}
	wantHash := store.Hash(store.EncodeResult(want))
	for _, job := range []Job{first, second} {
		if _, got := getBody(t, ts, "/v1/jobs/"+job.ID+"/report.json"); !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(wantJSON)) {
			t.Errorf("%s: served report.json differs from a fresh pipeline's export", job.ID)
		}
		if job.SnapshotHash != wantHash {
			t.Errorf("%s: snapshot hash %s, a fresh pipeline's result encodes to %s", job.ID, job.SnapshotHash, wantHash)
		}
	}
}

// TestQueueFullRefusedBeforeStaging: with the worker stalled and the queue
// full, an upload is refused with 503 and Retry-After before its body is
// read — no file lands in staging and the journal gains no line.
func TestQueueFullRefusedBeforeStaging(t *testing.T) {
	gate := make(chan struct{})
	jdir := filepath.Join(t.TempDir(), "journal")
	stallAudits(t, gate)
	srv := newServer(t, Config{Workers: 1, QueueDepth: 1, JournalDir: jdir})
	defer srv.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the stalled worker
	ts := httptest.NewServer(srv)
	defer ts.Close()

	parts := map[string][2]string{"child": {"c.har", string(childHAR(t))}, "name": {"", "Quizlet"}}
	var held Job
	for i := 0; i < 2; i++ {
		resp := submit(t, ts, parts)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		if job := decodeJob(t, resp); i == 0 {
			held = job
		}
		// The first job must be claimed (and stalled) before the second
		// can fill the queue.
		for deadline := time.Now().Add(10 * time.Second); srv.busy.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("worker never claimed the first job")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if len(srv.queue) != cap(srv.queue) {
		t.Fatalf("queue holds %d of %d", len(srv.queue), cap(srv.queue))
	}
	staged := func() int {
		ents, err := os.ReadDir(srv.journal.staging())
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	logPath := filepath.Join(jdir, "journal.log")
	readLog := func() []byte {
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	filesBefore, logBefore := staged(), readLog()

	resp := submit(t, ts, parts)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		!strings.Contains(string(body), "job queue full") {
		t.Fatalf("full queue: %d Retry-After %q: %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if n := staged(); n != filesBefore {
		t.Errorf("staging holds %d files after the refusal, %d before", n, filesBefore)
	}
	if !bytes.Equal(readLog(), logBefore) {
		t.Error("the refused upload changed the journal")
	}
	releaseStalled(t, ts, held.ID, release)
}

// stageTolerance bounds what a finished job's stages may leave out of
// submitted_at→finished_at: the journal's done line and two lock
// acquisitions after the snapshot write.
const stageTolerance = 25 * time.Millisecond

// TestJobStagesSumToWallTime: the stages GET /v1/jobs/{id} reports cover
// the job's wall time, submitted_at to finished_at, within stageTolerance.
func TestJobStagesSumToWallTime(t *testing.T) {
	srv := newServer(t, Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData, pcapData := string(childHAR(t)), string(mobileCapture(t))
	for _, parts := range []map[string][2]string{
		{"child": {"c.har", harData}, "name": {"", "Quizlet"}},
		{"adult": {"a.pcapng", pcapData}, "name": {"", "Quizlet"}},
		{"child": {"c.har", harData}, "adult": {"a.pcapng", pcapData}, "name": {"", "mystery-service"}},
	} {
		job := runJob(t, ts, parts)
		st := job.Stages
		if st == nil {
			t.Fatalf("%s: no stages", job.ID)
		}
		if st.StagedMS <= 0 || st.JournaledMS <= 0 || st.AuditMS <= 0 || st.PutMS <= 0 || st.QueueWaitMS < 0 {
			t.Errorf("%s: stages %+v, want every stage but the queue wait positive", job.ID, *st)
		}
		sum := time.Duration((st.StagedMS + st.JournaledMS + st.QueueWaitMS + st.AuditMS + st.PutMS) * float64(time.Millisecond))
		wall := job.FinishedAt.Sub(job.SubmittedAt)
		if gap := wall - sum; gap < -time.Millisecond || gap > stageTolerance {
			t.Errorf("%s: stages sum to %v, submitted_at→finished_at is %v", job.ID, sum, wall)
		}
	}
}
