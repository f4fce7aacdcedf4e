package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// pollEvery is how often an upload client asks whether its job is done.
const pollEvery = 2 * time.Millisecond

// opTimeout bounds any single operation; one that exceeds it has failed.
const opTimeout = 60 * time.Second

// sample is one completed (or failed) client operation. Times are offsets
// from the driver's epoch.
type sample struct {
	class      opClass
	start, end time.Duration
	ok         bool
	err        string
	bytes      int64 // body bytes received (reads) or sent (uploads)

	read readOp // reads

	// Uploads.
	job      int     // index in the lane's job sequence
	svc      int     // service uploaded
	name     string  // service name the job ran under
	jobID    string  // server's job ID
	hash     string  // snapshot hash the server reported
	submitMs float64 // POST → 202
	queueMs  float64 // 202 received → started_at (job JSON)
	runMs    float64 // started_at → finished_at
	lagMs    float64 // finished_at → the poll that saw it
}

// checked is a response body kept for the output oracle.
type checked struct {
	s    sample
	body []byte
}

// driver issues operations against one server.
type driver struct {
	base  string
	hc    *http.Client
	c     *corpus
	epoch time.Time
}

func newDriver(base string, c *corpus, conns int, epoch time.Time) *driver {
	return &driver{
		base: base,
		c:    c,
		hc: &http.Client{
			Timeout: opTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				// The read mix decides per request whether gzip is
				// negotiated; the transport must neither add the header nor
				// inflate the body.
				DisableCompression: true,
			},
		},
		epoch: epoch,
	}
}

func (d *driver) close() { d.hc.CloseIdleConnections() }

func (d *driver) since() time.Duration { return time.Since(d.epoch) }

// readRequest maps a scheduled read to its request.
func (d *driver) readRequest(op readOp) (*http.Request, error) {
	s := d.c.snaps[op.t.svc][op.t.ver]
	var path string
	switch op.class {
	case clsSnapshot:
		path = "/v1/snapshots/" + s.Meta.Hash
	case clsReportGz, clsReportID:
		path = "/v1/jobs/" + s.Meta.JobID + "/report.json"
	case clsCSV:
		path = "/v1/jobs/" + s.Meta.JobID + "/report.csv"
	case clsDiff, clsDiffChild:
		to := d.c.snaps[op.t.svc][op.t.ver+1]
		path = "/v1/diff?from=" + s.Meta.Hash + "&to=" + to.Meta.Hash
		if op.class == clsDiffChild {
			path += "&personas=child"
		}
	case clsRevalidate:
		path = "/v1/snapshots/" + strconv.FormatUint(s.Meta.Seq, 10)
	default:
		return nil, fmt.Errorf("class %s is not a read", op.class)
	}
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	switch op.class {
	case clsReportGz:
		req.Header.Set("Accept-Encoding", "gzip")
	case clsRevalidate:
		req.Header.Set("If-None-Match", `"`+s.Meta.Hash+`"`)
	}
	return req, nil
}

// doRead performs one read. It always checks the status and that the body
// is as long as Content-Length promised; given a buffer it also reads the
// body into it and returns it for the oracle. (Measured rounds pass none:
// comparing ~170 MB/s of bodies would measure the generator.)
func (d *driver) doRead(op readOp, into *bytes.Buffer) (sample, []byte) {
	s := sample{class: op.class, read: op, start: d.since()}
	fail := func(format string, a ...any) (sample, []byte) {
		s.end, s.err = d.since(), fmt.Sprintf(format, a...)
		return s, nil
	}
	req, err := d.readRequest(op)
	if err != nil {
		return fail("%v", err)
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return fail("%v", err)
	}
	var body []byte
	if into != nil {
		into.Reset()
		s.bytes, err = into.ReadFrom(resp.Body)
		body = into.Bytes()
	} else {
		s.bytes, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	s.end = d.since()
	if err != nil {
		return fail("reading body: %v", err)
	}
	want := http.StatusOK
	if op.class == clsRevalidate {
		want = http.StatusNotModified
	}
	switch {
	case resp.StatusCode != want:
		return fail("%s: status %d, want %d", req.URL.Path, resp.StatusCode, want)
	case resp.ContentLength >= 0 && resp.ContentLength != s.bytes:
		return fail("%s: %d body bytes, Content-Length %d", req.URL.Path, s.bytes, resp.ContentLength)
	case want == http.StatusOK && s.bytes == 0:
		return fail("%s: empty 200", req.URL.Path)
	case op.class == clsRevalidate && (s.bytes != 0 || resp.Header.Get("ETag") != req.Header.Get("If-None-Match")):
		return fail("%s: 304 with %d body bytes and ETag %s", req.URL.Path, s.bytes, resp.Header.Get("ETag"))
	case op.class == clsReportGz && resp.Header.Get("Content-Encoding") != "gzip":
		return fail("%s: gzip negotiated but Content-Encoding is %q", req.URL.Path, resp.Header.Get("Content-Encoding"))
	}
	s.ok = true
	return s, body
}

// jobView is the slice of the job JSON the harness reads.
type jobView struct {
	ID            string    `json:"id"`
	State         string    `json:"state"`
	Error         string    `json:"error"`
	SubmittedAt   time.Time `json:"submitted_at"`
	StartedAt     time.Time `json:"started_at"`
	FinishedAt    time.Time `json:"finished_at"`
	SnapshotHash  string    `json:"snapshot_hash"`
	SnapshotError string    `json:"snapshot_error"`
}

// submit POSTs job k of a phase's job sequence and returns once the server has acknowledged
// it (202: journaled, queued).
func (d *driver) submit(phase string, k int) (sample, error) {
	kind, slot := uploadJob(k)
	svc := d.c.upSlots[kind][slot]
	set := d.c.uploads[kind][svc]
	s := sample{class: clsWeb, job: k, svc: svc, name: d.c.jobName(phase, svc, kind, k)}
	if kind == kindMobile {
		s.class = clsMobile
	}
	head := multipartHead(d.c.boundary, s.name)
	s.bytes = int64(len(head) + len(set.tail))
	s.start = d.since()
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/audits",
		io.MultiReader(strings.NewReader(head), bytes.NewReader(set.tail)))
	if err != nil {
		return s, err
	}
	req.ContentLength = s.bytes
	req.Header.Set("Content-Type", "multipart/form-data; boundary="+d.c.boundary)
	resp, err := d.hc.Do(req)
	if err != nil {
		return s, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.submitMs = ms(d.since() - s.start)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return s, fmt.Errorf("POST /v1/audits: status %d: %.120s", resp.StatusCode, body)
	}
	var jv jobView
	if err := json.Unmarshal(body, &jv); err != nil || jv.ID == "" {
		return s, fmt.Errorf("POST /v1/audits: unreadable 202 body %.120q", body)
	}
	s.jobID = jv.ID
	return s, nil
}

// await polls a submitted job until the server reports it done with its
// snapshot stored, and fills in the server-side timings.
func (d *driver) await(s *sample) error {
	deadline := time.Now().Add(opTimeout)
	for time.Now().Before(deadline) {
		resp, err := d.hc.Get(d.base + "/v1/jobs/" + s.jobID)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		seen := time.Now()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /v1/jobs/%s: status %d", s.jobID, resp.StatusCode)
		}
		var jv jobView
		if err := json.Unmarshal(body, &jv); err != nil {
			return err
		}
		switch jv.State {
		case "done":
			s.end = seen.Sub(d.epoch)
			if jv.SnapshotError != "" || jv.SnapshotHash == "" {
				return fmt.Errorf("job %s done but snapshot not stored: %s", s.jobID, jv.SnapshotError)
			}
			s.hash = jv.SnapshotHash
			// submitted_at is stamped before the upload is staged and
			// journaled, so started_at − submitted_at would count the POST
			// twice. The queue wait is from the 202 to a worker taking the job
			// (about zero, at times slightly negative, while a worker idles).
			acked := d.epoch.Add(s.start + time.Duration(s.submitMs*float64(time.Millisecond)))
			s.queueMs = max(0, ms(jv.StartedAt.Sub(acked)))
			s.runMs = ms(jv.FinishedAt.Sub(jv.StartedAt))
			s.lagMs = ms(seen.Sub(jv.FinishedAt))
			return nil
		case "failed", "timeout":
			return fmt.Errorf("job %s %s: %s", s.jobID, jv.State, jv.Error)
		}
		time.Sleep(pollEvery)
	}
	return fmt.Errorf("job %s not done after %v", s.jobID, opTimeout)
}

// runJob is one upload operation: submit, then poll to done.
func (d *driver) runJob(phase string, k int) sample {
	s, err := d.submit(phase, k)
	if err == nil {
		err = d.await(&s)
	}
	if err != nil {
		s.end, s.err = d.since(), err.Error()
		return s
	}
	s.ok = true
	return s
}

// fetchReport reads a finished job's identity-coded report.json.
func (d *driver) fetchReport(jobID string) ([]byte, error) {
	resp, err := d.hc.Get(d.base + "/v1/jobs/" + jobID + "/report.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET report.json of %s: status %d", jobID, resp.StatusCode)
	}
	return body, nil
}
