package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/netcap/tlsx"
	"diffaudit/internal/report"
	"diffaudit/internal/services"
	"diffaudit/internal/store"
	"diffaudit/internal/synth"
)

// childHAR renders Quizlet's child web trace as HAR bytes.
func childHAR(t *testing.T) []byte {
	t.Helper()
	ds := synth.Generate(synth.Config{Scale: 0.01})
	data, err := ds.Service("Quizlet").EmitHAR(flows.Child).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// harRecords reads HAR bytes through the HAR source, outside the server:
// the records a direct pipeline run over the upload audits.
func harRecords(t *testing.T, data []byte, trace flows.TraceCategory) []core.RequestRecord {
	t.Helper()
	recs, err := core.Drain(core.NewHARSource(har.NewStreamDecoder(bytes.NewReader(data)), trace, flows.Web))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// pcapRecords reads capture bytes through pcapio.NewReader and the PCAP
// source, outside the server.
func pcapRecords(t *testing.T, data []byte, trace flows.TraceCategory) []core.RequestRecord {
	t.Helper()
	rd, err := pcapio.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := core.Drain(core.NewPCAPSource(context.Background(), rd, nil, trace))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// submit posts a multipart audit request built from field→(filename,
// content) parts and returns the response.
func submit(t *testing.T, ts *httptest.Server, parts map[string][2]string) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for field, fc := range parts {
		if fc[0] == "" { // value part
			if err := mw.WriteField(field, fc[1]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		fw, err := mw.CreateFormFile(field, fc[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(fw, fc[1]); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/audits", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// wait polls a job until it leaves the queued/running states.
func wait(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if job.State.Terminal() {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return Job{}
}

func decodeJob(t *testing.T, resp *http.Response) Job {
	t.Helper()
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

// TestAuditEndToEnd uploads a HAR capture for a known service and checks
// the served report is byte-identical to a direct pipeline run over the
// same capture.
func TestAuditEndToEnd(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData := childHAR(t)
	resp := submit(t, ts, map[string][2]string{
		"child": {"child.har", string(harData)},
		"name":  {"", "Quizlet"},
	})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	job := decodeJob(t, resp)
	if job.State != JobQueued || job.Files != 1 {
		t.Fatalf("job = %+v", job)
	}

	done := wait(t, ts, job.ID)
	if done.State != JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}

	// Served report vs direct pipeline run.
	gotResp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/report.json")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(gotResp.Body)
	gotResp.Body.Close()

	spec, _ := services.ByName("Quizlet")
	id := core.ServiceIdentity{Name: spec.Name, Owner: spec.Owner, FirstPartyESLDs: spec.FirstPartyESLDs}
	res := core.NewPipeline().AnalyzeRecords(id, harRecords(t, harData, flows.Child))
	want, err := report.ExportJSON([]*core.ServiceResult{res})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("served report.json differs from direct pipeline export")
	}

	// CSV renders with the header and at least one flow.
	csvResp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/report.csv")
	if err != nil {
		t.Fatal(err)
	}
	csvBody, _ := io.ReadAll(csvResp.Body)
	csvResp.Body.Close()
	if !strings.HasPrefix(string(csvBody), "service,trace,") || strings.Count(string(csvBody), "\n") < 2 {
		t.Errorf("csv export looks wrong: %.120s", csvBody)
	}
}

// TestGuessedIdentity audits a web and a mobile capture under an unknown
// name. The job reads each staged file once, yet what it serves and stores
// must be what the two-step reference produces: parse everything, guess the
// identity from the records, audit them under it.
func TestGuessedIdentity(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData := childHAR(t)
	capt, err := synth.Generate(synth.Config{Scale: 0.01}).Service("Quizlet").EmitPCAP(flows.Adult)
	if err != nil {
		t.Fatal(err)
	}
	var pcapData bytes.Buffer
	if err := pcapio.WritePcapng(&pcapData, capt); err != nil {
		t.Fatal(err)
	}
	done := runJob(t, ts, map[string][2]string{
		"child": {"c.har", string(harData)},
		"adult": {"a.pcapng", pcapData.String()},
		"name":  {"", "mystery-service"},
	})

	recs := append(harRecords(t, harData, flows.Child), pcapRecords(t, pcapData.Bytes(), flows.Adult)...)
	id := core.GuessIdentity("mystery-service", recs)
	if len(id.FirstPartyESLDs) != 1 {
		t.Fatalf("reference identity = %+v", id)
	}
	want := core.NewPipeline().AnalyzeRecords(id, recs)

	res, _, err := srv.cfg.Store.Get(done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Identity, id) {
		t.Fatalf("identity = %+v, two-step guess %+v", res.Identity, id)
	}
	wantJSON, err := report.ExportJSON([]*core.ServiceResult{want})
	if err != nil {
		t.Fatal(err)
	}
	if _, got := getBody(t, ts, "/v1/jobs/"+done.ID+"/report.json"); !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(wantJSON)) {
		t.Error("served report.json differs from the two-step audit's export")
	}
	if wantHash := store.Hash(store.EncodeResult(want)); done.SnapshotHash != wantHash {
		t.Errorf("stored snapshot hash %s, two-step audit encodes to %s", done.SnapshotHash, wantHash)
	}
}

// TestSubmitValidation covers the rejection paths and the size limits:
// a name value or a whole body at its cap is accepted intact, one a byte
// past it is refused with nothing left in staging.
func TestSubmitValidation(t *testing.T) {
	// req renders parts as a multipart request: content type, body.
	req := func(parts map[string][2]string) [2]string {
		var buf bytes.Buffer
		ct := newMultipart(t, &buf, parts)
		return [2]string{ct, buf.String()}
	}
	// The cap is the length of the largest body: a capture padded with
	// JSON whitespace. The boundary's length is fixed, so one more byte of
	// padding is one byte past it.
	capture := `{"log":{"version":"1.2","entries":[]}}`
	pad := strings.Repeat(" ", 64<<10)
	atCap := req(map[string][2]string{"child": {"a.har", capture + pad}})
	pastCap := req(map[string][2]string{"child": {"a.har", capture + pad + " "}})
	if len(pastCap[1]) != len(atCap[1])+1 {
		t.Fatalf("bodies of %d and %d bytes, want one byte apart", len(atCap[1]), len(pastCap[1]))
	}
	name := strings.Repeat("n", 4096)

	cases := []struct {
		name    string
		req     [2]string // content type, body
		want    int
		code    string // error code of a refusal
		service string // service name of an acceptance
	}{
		{"no files", req(map[string][2]string{"name": {"", "x"}}), http.StatusBadRequest, codeInvalidRequest, ""},
		{"bad field", req(map[string][2]string{"grownup": {"a.har", "{}"}}), http.StatusBadRequest, codeInvalidRequest, ""},
		{"bad extension", req(map[string][2]string{"child": {"a.txt", "{}"}}), http.StatusBadRequest, codeInvalidRequest, ""},
		{"name at 4096 bytes", req(map[string][2]string{"child": {"a.har", capture}, "name": {"", name}}), http.StatusAccepted, "", name},
		{"name at 4097 bytes", req(map[string][2]string{"child": {"a.har", capture}, "name": {"", name + "n"}}), http.StatusBadRequest, codeInvalidRequest, ""},
		{"body at MaxUploadBytes", atCap, http.StatusAccepted, "", "custom-service"},
		{"body past MaxUploadBytes", pastCap, http.StatusRequestEntityTooLarge, codePayloadTooLarge, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newServer(t, Config{MaxUploadBytes: int64(len(atCap[1]))})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			resp, err := http.Post(ts.URL+"/v1/audits", tc.req[0], strings.NewReader(tc.req[1]))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.want, got)
			}
			if tc.want == http.StatusAccepted {
				var job Job
				if err := json.Unmarshal(got, &job); err != nil || job.Service != tc.service {
					t.Fatalf("accepted as service %.40q (%v), want %.40q", job.Service, err, tc.service)
				}
				return
			}
			if e := apiErr(t, got); e.Code != tc.code {
				t.Errorf("code = %q, want %q", e.Code, tc.code)
			}
			if left, err := os.ReadDir(srv.journal.staging()); err != nil || len(left) != 0 {
				t.Errorf("refused upload left %d files in staging (%v)", len(left), err)
			}
		})
	}

	srv := newServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Unknown job and unready report.
	for path, want := range map[string]int{
		"/v1/jobs/nope":             http.StatusNotFound,
		"/v1/jobs/nope/report.json": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestFailedJob uploads a corrupt capture and expects a failed state whose
// report returns 409.
func TestFailedJob(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := submit(t, ts, map[string][2]string{"child": {"bad.har", "not json at all"}})
	job := decodeJob(t, resp)
	done := wait(t, ts, job.ID)
	if done.State != JobFailed || done.Error == "" {
		t.Fatalf("job = %+v", done)
	}
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/report.json")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Errorf("report of failed job: %d, want 409", rresp.StatusCode)
	}
}

// TestOversizedHAREntryFailsJob: an upload whose HAR entry keeps more than
// har.MaxEntryBytes of request fields fails its job with
// har.ErrEntryTooLarge's message.
func TestOversizedHAREntryFailsJob(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	doc := `{"log":{"version":"1.2","entries":[{"request":{"method":"POST","url":"https://a.example/",` +
		`"postData":{"text":"` + strings.Repeat("a", har.MaxEntryBytes) + `"}}}]}}`
	job := decodeJob(t, submit(t, ts, map[string][2]string{"child": {"big.har", doc}}))
	if done := wait(t, ts, job.ID); done.State != JobFailed || !strings.Contains(done.Error, har.ErrEntryTooLarge.Error()) {
		t.Fatalf("job = %+v, want failed with %q", done, har.ErrEntryTooLarge)
	}
}

// TestQueueBackpressure fills the bounded queue behind a gated pipeline
// and expects 503 for the overflow submission.
func TestQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	stallAudits(t, gate)
	srv := newServer(t, Config{Workers: 1, QueueDepth: 1})
	defer srv.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the stalled worker
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData := string(childHAR(t))
	ids := make([]string, 0, 2)
	// First job occupies the worker (blocked on the gate); second sits in
	// the queue. The worker may not have claimed the first job yet, so
	// allow one extra submission before asserting overflow.
	overflowed := false
	for i := 0; i < 4; i++ {
		resp := submit(t, ts, map[string][2]string{"child": {"c.har", harData}, "name": {"", "Quizlet"}})
		switch resp.StatusCode {
		case http.StatusAccepted:
			ids = append(ids, decodeJob(t, resp).ID)
		case http.StatusServiceUnavailable:
			resp.Body.Close()
			overflowed = true
		default:
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		if overflowed {
			break
		}
	}
	if !overflowed {
		t.Error("queue never overflowed at depth 1")
	}
	releaseStalled(t, ts, ids[0], release)
	for _, id := range ids {
		if done := wait(t, ts, id); done.State != JobDone {
			t.Errorf("job %s: %s (%s)", id, done.State, done.Error)
		}
	}
}

// TestConcurrentSubmissions hammers the server from many goroutines — the
// CI -race step runs this to prove the job queue is data-race free.
func TestConcurrentSubmissions(t *testing.T) {
	srv := newServer(t, Config{Workers: 4, QueueDepth: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData := string(childHAR(t))
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp := submit(t, ts, map[string][2]string{
				"child": {"c.har", harData},
				"name":  {"", fmt.Sprintf("svc-%d", g)},
			})
			if resp.StatusCode != http.StatusAccepted {
				resp.Body.Close()
				errs <- fmt.Errorf("goroutine %d: submit %d", g, resp.StatusCode)
				return
			}
			job := decodeJob(t, resp)
			// Interleave list reads with the polling.
			lresp, err := http.Get(ts.URL + "/v1/jobs")
			if err == nil {
				io.Copy(io.Discard, lresp.Body)
				lresp.Body.Close()
			}
			done := wait(t, ts, job.ID)
			if done.State != JobDone {
				errs <- fmt.Errorf("goroutine %d: %s (%s)", g, done.State, done.Error)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Jobs int `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Jobs != n {
		t.Errorf("healthz jobs = %d, want %d", health.Jobs, n)
	}
}

// TestJobEviction checks finished jobs are evicted past the retention cap
// while the newest stay in memory — the long-lived server's memory bound.
func TestJobEviction(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, QueueDepth: 8, maxJobs: 3})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData := string(childHAR(t))
	var ids []string
	for i := 0; i < 5; i++ {
		resp := submit(t, ts, map[string][2]string{"child": {"c.har", harData}, "name": {"", "Quizlet"}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		job := decodeJob(t, resp)
		ids = append(ids, job.ID)
		wait(t, ts, job.ID) // serialize so earlier jobs are evictable
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) > 3 {
		t.Errorf("retained %d jobs, cap is 3", len(list.Jobs))
	}
	// The newest job always survives.
	if code, body := getBody(t, ts, "/v1/jobs/"+ids[len(ids)-1]); code != http.StatusOK {
		t.Errorf("newest job evicted: %d %s", code, body)
	}
	// The oldest is gone.
	r, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job still present: %d", r.StatusCode)
	}
}

// TestJobEvictionOldestFirstAnd404Reports pins the retention policy: when
// the cap is exceeded, finished jobs are evicted strictly oldest-first, and
// /v1/jobs/{id} for an evicted ID answers 404. The report endpoints keep
// serving evicted IDs from the store; see TestEvictedJobServedFromStore.
func TestJobEvictionOldestFirstAnd404Reports(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, QueueDepth: 8, maxJobs: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData := string(childHAR(t))
	var ids []string
	for i := 0; i < 4; i++ {
		resp := submit(t, ts, map[string][2]string{"child": {"c.har", harData}, "name": {"", "Quizlet"}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		job := decodeJob(t, resp)
		ids = append(ids, job.ID)
		if done := wait(t, ts, job.ID); done.State != JobDone {
			t.Fatalf("job %d: %+v", i, done)
		}
	}

	status := func(path string) int {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		return r.StatusCode
	}

	// The two oldest are gone; the two newest serve.
	for _, id := range ids[:2] {
		if code := status("/v1/jobs/" + id); code != http.StatusNotFound {
			t.Errorf("evicted /jobs/%s: %d, want 404", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code := status("/v1/jobs/" + id); code != http.StatusOK {
			t.Errorf("retained /jobs/%s: %d, want 200", id, code)
		}
		if code := status("/v1/jobs/" + id + "/report.json"); code != http.StatusOK {
			t.Errorf("retained report %s: %d, want 200", id, code)
		}
	}

	// The listing reflects the same order: exactly the newest two, oldest
	// first among the survivors.
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list.Jobs) != 2 || list.Jobs[0].ID != ids[2] || list.Jobs[1].ID != ids[3] {
		t.Errorf("retained jobs = %+v, want [%s %s]", list.Jobs, ids[2], ids[3])
	}
}

// getBody fetches a path, returning status and body.
func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

// runJob submits the given parts and waits for the job to finish.
func runJob(t *testing.T, ts *httptest.Server, parts map[string][2]string) Job {
	t.Helper()
	resp := submit(t, ts, parts)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	job := decodeJob(t, resp)
	done := wait(t, ts, job.ID)
	if done.State != JobDone {
		t.Fatalf("job %s failed: %s", job.ID, done.Error)
	}
	return done
}

// TestEvictedJobServedFromStore pins the stored-200 semantics: with a
// Store configured, eviction drops only the in-memory Job — /jobs/{id}
// answers 404 for an evicted ID, but both report endpoints keep serving
// the persisted snapshot byte-identically.
func TestEvictedJobServedFromStore(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, QueueDepth: 8, maxJobs: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData := string(childHAR(t))
	var ids []string
	var preEvictionJSON, preEvictionCSV []byte
	for i := 0; i < 4; i++ {
		job := runJob(t, ts, map[string][2]string{"child": {"c.har", harData}, "name": {"", "Quizlet"}})
		ids = append(ids, job.ID)
		if job.SnapshotHash == "" || job.SnapshotSeq == 0 {
			t.Fatalf("finished job carries no snapshot ref: %+v", job)
		}
		if i == 0 {
			_, preEvictionJSON = getBody(t, ts, "/v1/jobs/"+job.ID+"/report.json")
			_, preEvictionCSV = getBody(t, ts, "/v1/jobs/"+job.ID+"/report.csv")
		}
	}

	// The oldest job is evicted from memory...
	if code, _ := getBody(t, ts, "/v1/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Errorf("evicted /jobs/%s: %d, want 404", ids[0], code)
	}
	// ...but its reports still serve, byte-identically, from the store.
	code, gotJSON := getBody(t, ts, "/v1/jobs/"+ids[0]+"/report.json")
	if code != http.StatusOK || !bytes.Equal(gotJSON, preEvictionJSON) {
		t.Errorf("evicted report.json: %d, identical=%v", code, bytes.Equal(gotJSON, preEvictionJSON))
	}
	code, gotCSV := getBody(t, ts, "/v1/jobs/"+ids[0]+"/report.csv")
	if code != http.StatusOK || !bytes.Equal(gotCSV, preEvictionCSV) {
		t.Errorf("evicted report.csv: %d, identical=%v", code, bytes.Equal(gotCSV, preEvictionCSV))
	}
	// The job endpoints must match stored snapshots by job ID only: a
	// bare sequence number or hash prefix is not a job and stays 404.
	snaps, err := srv.cfg.Store.List()
	if err != nil || len(snaps) == 0 {
		t.Fatalf("store listing: %v", err)
	}
	for _, ref := range []string{"1", snaps[0].Hash[:8]} {
		if code, _ := getBody(t, ts, "/v1/jobs/"+ref+"/report.json"); code != http.StatusNotFound {
			t.Errorf("/v1/jobs/%s/report.json resolved a non-job store reference: %d", ref, code)
		}
	}
}

// failingStore wraps a Store whose Put always errors — the disk-full case.
type failingStore struct {
	store.Store
}

func (f failingStore) Put(jobID string, r *core.ServiceResult) (store.Meta, error) {
	return store.Meta{}, errors.New("disk full")
}

// TestSnapshotFailureBlocksEviction: when the store cannot persist a
// result, the job records SnapshotError and is retained past MaxJobs —
// the in-memory copy is the only one, and eviction must not destroy it.
func TestSnapshotFailureBlocksEviction(t *testing.T) {
	srv := newServer(t, Config{Workers: 1, QueueDepth: 8, maxJobs: 2, Store: failingStore{testStore(t)}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	harData := string(childHAR(t))
	var ids []string
	for i := 0; i < 4; i++ {
		job := runJob(t, ts, map[string][2]string{"child": {"c.har", harData}, "name": {"", "Quizlet"}})
		if job.SnapshotError == "" || job.SnapshotHash != "" {
			t.Fatalf("job %+v: want SnapshotError and no hash", job)
		}
		ids = append(ids, job.ID)
	}
	// Every job survives the cap: none were persisted, so none may be
	// evicted, and every report still serves from memory.
	for _, id := range ids {
		if code, _ := getBody(t, ts, "/v1/jobs/"+id+"/report.json"); code != http.StatusOK {
			t.Errorf("unpersisted job %s evicted: report %d, want 200", id, code)
		}
	}
}

// unlistableStore wraps a Store whose List errors — a snapshot directory
// that cannot be read.
type unlistableStore struct {
	store.Store
}

func (unlistableStore) List() ([]store.Meta, error) {
	return nil, errors.New("snapshot directory unreadable")
}

// TestOpenRefusesUnlistableStore: job IDs are fenced past every stored
// snapshot's at start-up; a store that cannot say what it holds would let
// a new job-N alias a stored report, so Open fails instead of guessing.
func TestOpenRefusesUnlistableStore(t *testing.T) {
	srv, err := Open(testConfig(t, Config{Store: unlistableStore{testStore(t)}}))
	if err == nil {
		srv.Close()
		t.Fatal("Open served a store whose List fails")
	}
	if !strings.Contains(err.Error(), "snapshot directory unreadable") {
		t.Errorf("Open error %q does not carry the store's", err)
	}
}

// TestOpenRequiresStoreAndJournal: every server persists its results and
// journals its jobs, so Open refuses a configuration missing either home,
// with an error that names the package once.
func TestOpenRequiresStoreAndJournal(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil store", Config{JournalDir: t.TempDir()}, "server: Config.Store is required"},
		{"empty journal dir", Config{Store: testStore(t)}, "server: Config.JournalDir is required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := Open(tc.cfg)
			if err == nil {
				srv.Close()
				t.Fatal("Open accepted the configuration")
			}
			if err.Error() != tc.want {
				t.Errorf("Open error %q, want %q", err, tc.want)
			}
		})
	}
}

// brokenLoadStore resolves one snapshot for job-9 but fails to load it —
// the bit-rotted snapshot file case.
type brokenLoadStore struct {
	store.Store
}

var brokenMeta = store.Meta{Seq: 1, Hash: "deadbeef", JobID: "job-9", Service: "X"}

func (b brokenLoadStore) JobSnapshot(jobID string) (store.Meta, bool) {
	return brokenMeta, jobID == brokenMeta.JobID
}

func (b brokenLoadStore) Resolve(ref string) (store.Meta, error) {
	if ref != "1" {
		return store.Meta{}, store.ErrUnresolved
	}
	return brokenMeta, nil
}

func (b brokenLoadStore) Load(store.Meta) (*core.ServiceResult, error) {
	return nil, errors.New("snapshot checksum mismatch")
}

// TestUnreadableStoredSnapshotIs500: a job whose snapshot exists but
// cannot be read is a storage failure, not a missing job — the report
// endpoint must answer 500, never a masking 404.
func TestUnreadableStoredSnapshotIs500(t *testing.T) {
	srv := newServer(t, Config{Store: brokenLoadStore{testStore(t)}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := getBody(t, ts, "/v1/jobs/job-9/report.json")
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "checksum") {
		t.Errorf("unreadable snapshot: %d %s, want 500 with the store error", code, body)
	}
	// A job that never existed anywhere still answers 404.
	if code, _ := getBody(t, ts, "/v1/jobs/job-77/report.json"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	// The diff endpoint draws the same line: a serving failure is 500,
	// not a masking 404 (unresolvable refs stay 404, see
	// TestSnapshotsAndDiffEndpoints).
	if code, body := getBody(t, ts, "/v1/diff?from=1&to=1"); code != http.StatusInternalServerError {
		t.Errorf("diff over unreadable snapshot: %d %s, want 500", code, body)
	}
}

// deltaHAR builds a minimal HAR capture from request URLs, so tests can
// inject precise flow deltas.
func deltaHAR(t *testing.T, urls ...string) string {
	t.Helper()
	h := har.New()
	for _, u := range urls {
		h.Log.Entries = append(h.Log.Entries, har.Entry{
			Request: har.Request{Method: "GET", URL: u, HTTPVersion: "HTTP/1.1"},
		})
	}
	data, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSnapshotsAndDiffEndpoints runs the end-to-end longitudinal
// acceptance path: two audits with an injected flow delta persisted
// through an FSStore, a full server restart between them, and GET /diff
// reporting exactly the delta — identical to a no-restart diff computed
// directly over the pipeline results.
func TestSnapshotsAndDiffEndpoints(t *testing.T) {
	dir := t.TempDir()
	baseURL := "https://api.quizlet.com/v1/profile?user_id=u123"
	injectedURL := "https://stats.g.doubleclick.net/collect?advertising_id=adid9"

	st1, err := store.OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := newServer(t, Config{Store: st1})
	ts1 := httptest.NewServer(srv1)
	job1 := runJob(t, ts1, map[string][2]string{
		"child": {"before.har", deltaHAR(t, baseURL)},
		"name":  {"", "Quizlet"},
	})
	ts1.Close()
	srv1.Close()

	// Restart: fresh store over the same directory, fresh server.
	st2, err := store.OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newServer(t, Config{Store: st2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	job2 := runJob(t, ts2, map[string][2]string{
		"child": {"after.har", deltaHAR(t, baseURL, injectedURL)},
		"name":  {"", "Quizlet"},
	})
	if job2.ID == job1.ID {
		t.Fatalf("restarted server reused job ID %s", job2.ID)
	}

	// Both snapshots are listed.
	code, body := getBody(t, ts2, "/v1/snapshots")
	if code != http.StatusOK {
		t.Fatalf("/v1/snapshots: %d: %s", code, body)
	}
	var listing struct {
		Snapshots []store.Meta `json:"snapshots"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Snapshots) != 2 || listing.Snapshots[0].JobID != job1.ID || listing.Snapshots[1].JobID != job2.ID {
		t.Fatalf("snapshots = %+v", listing.Snapshots)
	}

	// The diff reports the injected flow, via job-ID refs...
	code, gotDiff := getBody(t, ts2, "/v1/diff?from="+job1.ID+"&to="+job2.ID)
	if code != http.StatusOK {
		t.Fatalf("/v1/diff: %d: %s", code, gotDiff)
	}
	var doc report.DiffDoc
	if err := json.Unmarshal(gotDiff, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Changed || doc.Added == 0 {
		t.Fatalf("diff reports no change: %s", gotDiff)
	}
	foundInjected := false
	for _, p := range doc.Personas {
		for _, f := range p.Added {
			if f.FQDN == "stats.g.doubleclick.net" {
				foundInjected = true
			}
		}
		if len(p.Removed) != 0 {
			t.Errorf("unexpected removed flows for %s: %+v", p.Persona, p.Removed)
		}
	}
	if !foundInjected {
		t.Errorf("injected flow missing from diff: %s", gotDiff)
	}

	// ...and the served diff is byte-identical to one computed directly
	// over the pipeline, i.e. the restart changed nothing.
	want := directDiffJSON(t, baseURL, injectedURL)
	if !bytes.Equal(gotDiff, want) {
		t.Errorf("served diff differs from direct pipeline diff:\n got: %s\nwant: %s", gotDiff, want)
	}

	// Sequence-number refs and the markdown rendering agree.
	code, md := getBody(t, ts2, "/v1/diff?from=1&to=2&format=md")
	if code != http.StatusOK || !strings.Contains(string(md), "stats.g.doubleclick.net") {
		t.Errorf("markdown diff: %d: %s", code, md)
	}

	// Unknown refs 404; missing params and unknown formats 400.
	if code, _ := getBody(t, ts2, "/v1/diff?from=99&to=1"); code != http.StatusNotFound {
		t.Errorf("unknown ref: %d, want 404", code)
	}
	if code, _ := getBody(t, ts2, "/v1/diff?from=1"); code != http.StatusBadRequest {
		t.Errorf("missing param: %d, want 400", code)
	}
	if code, _ := getBody(t, ts2, "/v1/diff?from=1&to=2&format=csv"); code != http.StatusBadRequest {
		t.Errorf("unknown format: %d, want 400", code)
	}
}

// directDiffJSON computes the expected longitudinal diff straight through
// the pipeline, bypassing upload, store, and restart.
func directDiffJSON(t *testing.T, baseURL, injectedURL string) []byte {
	t.Helper()
	spec, _ := services.ByName("Quizlet")
	id := core.ServiceIdentity{Name: spec.Name, Owner: spec.Owner, FirstPartyESLDs: spec.FirstPartyESLDs}
	audit := func(urls ...string) *core.ServiceResult {
		return core.NewPipeline().AnalyzeRecords(id, harRecords(t, []byte(deltaHAR(t, urls...)), flows.Child))
	}
	want, err := report.ExportDiffJSON(core.Longitudinal(audit(baseURL), audit(baseURL, injectedURL)))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRestartDurability pins the report byte-stability guarantee: an
// FSStore-backed server restarted over the same data directory serves the
// same report.json, byte for byte, for a job audited before the restart.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := newServer(t, Config{Store: st1})
	ts1 := httptest.NewServer(srv1)
	job := runJob(t, ts1, map[string][2]string{"child": {"c.har", string(childHAR(t))}, "name": {"", "Quizlet"}})
	code, want := getBody(t, ts1, "/v1/jobs/"+job.ID+"/report.json")
	if code != http.StatusOK {
		t.Fatalf("pre-restart report: %d", code)
	}
	ts1.Close()
	srv1.Close()

	st2, err := store.OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newServer(t, Config{Store: st2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	code, got := getBody(t, ts2, "/v1/jobs/"+job.ID+"/report.json")
	if code != http.StatusOK {
		t.Fatalf("post-restart report: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("report.json differs across restart")
	}
	// CSV too.
	if code, csv := getBody(t, ts2, "/v1/jobs/"+job.ID+"/report.csv"); code != http.StatusOK || len(csv) == 0 {
		t.Errorf("post-restart report.csv: %d", code)
	}
}

// TestPersonasEndpointAndCustomUpload checks GET /v1/personas lists the
// built-ins and the configured customs (IDs are list positions) plus the
// rule packs, and that uploads grouped under a configured custom persona's
// name audit end to end into that persona's trace.
func TestPersonasEndpointAndCustomUpload(t *testing.T) {
	kid, err := flows.NewPersona(flows.PersonaInfo{
		Name: "Server Kid", Aliases: []string{"server-kid"},
		AgeKnown: true, AgeMin: 6, AgeMax: 9, LoggedIn: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv := newServer(t, Config{Personas: []flows.Persona{kid}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/personas")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Personas []struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Builtin bool   `json:"builtin"`
		} `json:"personas"`
		RulePacks []string `json:"rule_packs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantNames := []string{"Child", "Adolescent", "Adult", "Logged Out", "Server Kid"}
	if len(listing.Personas) != len(wantNames) {
		t.Fatalf("personas listing = %+v, want %v", listing.Personas, wantNames)
	}
	for i, p := range listing.Personas {
		if p.ID != i || p.Name != wantNames[i] || p.Builtin != (i < 4) {
			t.Errorf("personas[%d] = %+v, want id %d name %q builtin %v", i, p, i, wantNames[i], i < 4)
		}
	}
	packs := strings.Join(listing.RulePacks, ",")
	for _, want := range []string{"coppa", "ccpa", "gdpr"} {
		if !strings.Contains(packs, want) {
			t.Errorf("rule_packs = %v, missing %q", listing.RulePacks, want)
		}
	}

	// Upload a capture under the custom persona's alias.
	resp = submit(t, ts, map[string][2]string{
		"server-kid": {"kid.har", string(childHAR(t))},
		"name":       {"", "Quizlet"},
	})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit under custom persona: %d: %s", resp.StatusCode, body)
	}
	job := decodeJob(t, resp)
	if done := wait(t, ts, job.ID); done.State != JobDone {
		t.Fatalf("job = %+v", done)
	}
	rep, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/report.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rep.Body)
	rep.Body.Close()
	if !strings.Contains(string(body), `"trace": "Server Kid"`) {
		t.Error("served report does not group flows under the custom persona")
	}
}

// ghostResult audits Quizlet's child traffic under a custom "Ghost Kid"
// persona aged 5 to maxAge.
func ghostResult(t *testing.T, maxAge int) *core.ServiceResult {
	t.Helper()
	ghost, err := flows.NewPersona(flows.PersonaInfo{Name: "Ghost Kid", AgeKnown: true, AgeMin: 5, AgeMax: maxAge, LoggedIn: true})
	if err != nil {
		t.Fatal(err)
	}
	st := synth.Generate(synth.Config{Scale: 0.002}).Service("Quizlet")
	res := core.NewPipeline().AnalyzeRecords(st.Identity(), st.Records())
	res.ByTrace[ghost] = res.ByTrace[flows.Child]
	delete(res.ByTrace, flows.Child)
	return res
}

// TestReadingASnapshotChangesNothingOutsideIt: a server configured without
// "Ghost Kid" serves the snapshot and report.json of a stored result that
// has it, and the reads change neither /v1/personas nor what uploads accept.
func TestReadingASnapshotChangesNothingOutsideIt(t *testing.T) {
	st := testStore(t)
	if _, err := st.Put("job-7", ghostResult(t, 9)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, Config{Store: st})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, before := getBody(t, ts, "/v1/personas")
	for _, path := range []string{"/v1/snapshots/1", "/v1/jobs/job-7/report.json"} {
		code, body := getBody(t, ts, path)
		if code != http.StatusOK || !strings.Contains(string(body), `"trace": "Ghost Kid"`) {
			t.Errorf("GET %s = %d, want the Ghost Kid trace served", path, code)
		}
	}
	if _, after := getBody(t, ts, "/v1/personas"); !bytes.Equal(after, before) {
		t.Errorf("/v1/personas changed after reading a snapshot:\n%s\nthen\n%s", before, after)
	}
	resp := submit(t, ts, map[string][2]string{"ghost kid": {"kid.har", string(childHAR(t))}})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"invalid_request"`) {
		t.Errorf("upload field \"ghost kid\" after the read = %d: %s, want invalid_request", resp.StatusCode, body)
	}
}

// TestConfiguredPersonaPairsWithStoredNamesake: a stored "Ghost Kid" aged
// 5-9 decodes on a server configured with a "Ghost Kid" aged 5-10 — each
// result keeps its own record — and the diff pairs the two by name.
func TestConfiguredPersonaPairsWithStoredNamesake(t *testing.T) {
	st := testStore(t)
	if _, err := st.Put("job-7", ghostResult(t, 9)); err != nil {
		t.Fatal(err)
	}
	configured, err := flows.NewPersona(flows.PersonaInfo{Name: "Ghost Kid", AgeKnown: true, AgeMin: 5, AgeMax: 10, LoggedIn: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, Config{Store: st, Personas: []flows.Persona{configured}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	runJob(t, ts, map[string][2]string{"ghost kid": {"kid.har", string(childHAR(t))}, "name": {"", "Quizlet"}})

	for ref, maxAge := range map[string]int{"1": 9, "2": 10} {
		res, _, err := st.Get(ref)
		if err != nil {
			t.Fatal(err)
		}
		ghosts := 0
		for p := range res.ByTrace {
			if p.String() == "Ghost Kid" {
				ghosts++
				if p.Info().AgeMax != maxAge {
					t.Errorf("snapshot %s: Ghost Kid aged to %d, want %d", ref, p.Info().AgeMax, maxAge)
				}
			}
		}
		if ghosts != 1 {
			t.Errorf("snapshot %s has %d Ghost Kid personas", ref, ghosts)
		}
	}
	code, body := getBody(t, ts, "/v1/diff?from=1&to=2&personas=ghost%20kid")
	if code != http.StatusOK {
		t.Fatalf("filtered diff = %d: %s", code, body)
	}
	var doc struct {
		Personas []struct {
			Persona string `json:"persona"`
		} `json:"personas"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Personas) != 1 || doc.Personas[0].Persona != "Ghost Kid" {
		t.Errorf("diff personas = %+v (%v), want one Ghost Kid delta", doc.Personas, err)
	}
}

// TestStageFileFlushesEveryByte: staging writes through a fixed buffer, so
// the tail of a capture sits in memory until the flush — the length handed
// to the journal must be what is on disk, for sizes under, at and over the
// buffer.
func TestStageFileFlushesEveryByte(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	for _, size := range []int{0, 1, stageBufBytes - 1, stageBufBytes, 2*stageBufBytes + 4097} {
		content := bytes.Repeat([]byte("0123456789abcdef"), size/16+1)[:size]
		var body bytes.Buffer
		mw := multipart.NewWriter(&body)
		fw, err := mw.CreateFormFile("child", "c.har")
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(content)
		mw.Close()
		part, err := multipart.NewReader(&body, mw.Boundary()).NextPart()
		if err != nil {
			t.Fatal(err)
		}
		path, n, err := srv.stageFile(part, "child")
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(size) || !bytes.Equal(got, content) {
			t.Fatalf("size %d: stageFile reported %d bytes, %d on disk (equal=%v)", size, n, len(got), bytes.Equal(got, content))
		}
	}
}

// TestMalformedKeylogFailsMobileJobs: the job's keylog is parsed when its
// first mobile capture is opened, so a malformed one fails the job with
// the parser's own error text — and a job with no mobile capture never
// looks at it.
func TestMalformedKeylogFailsMobileJobs(t *testing.T) {
	srv := newServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const badKeys = "CLIENT_RANDOM zz zz\n"
	_, wantErr := tlsx.ParseKeyLog([]byte(badKeys))
	if wantErr == nil {
		t.Fatal("test keylog parses")
	}
	capt, err := synth.Generate(synth.Config{Scale: 0.01}).Service("Quizlet").EmitPCAP(flows.Child)
	if err != nil {
		t.Fatal(err)
	}
	var pcapData bytes.Buffer
	if err := pcapio.WritePcapng(&pcapData, capt); err != nil {
		t.Fatal(err)
	}
	resp := submit(t, ts, map[string][2]string{
		"child":  {"c.pcapng", pcapData.String()},
		"adult":  {"a.pcapng", pcapData.String()},
		"keylog": {"keys.log", badKeys},
	})
	if failed := wait(t, ts, decodeJob(t, resp).ID); failed.State != JobFailed || failed.Error != wantErr.Error() {
		t.Errorf("mobile job = %s %q, want failed with %q", failed.State, failed.Error, wantErr)
	}
	runJob(t, ts, map[string][2]string{
		"child":  {"c.har", string(childHAR(t))},
		"keylog": {"keys.log", badKeys},
	})
}
