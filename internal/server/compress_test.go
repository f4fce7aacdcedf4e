package server

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/ontology"
	"diffaudit/internal/report"
	"diffaudit/internal/synth"
)

// TestAcceptsGzip pins the Accept-Encoding negotiation, including the
// explicit-refusal qvalues a proxy can send.
func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"gzip, deflate, br", true},
		{"deflate, gzip;q=0.5", true},
		{"br;q=1.0, *;q=0.1", true},
		{"identity", false},
		{"gzip;q=0", false},
		{"gzip;q=0.000", false},
		{"deflate", false},
		// RFC 9110: codings and the q parameter name are case-insensitive,
		// and * speaks only for codings the header does not list.
		{"GZIP", true},
		{"gzip;Q=0", false},
		{"gzip;q=0, *", false},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-1/report.json", nil)
		if c.header != "" {
			r.Header.Set("Accept-Encoding", c.header)
		}
		if got := acceptsGzip(r); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestRenderBufClasses pins the render pool's size classes: a buffer holds
// what was asked for, comes from the smallest class that does, and one
// beyond the top class bypasses the pool.
func TestRenderBufClasses(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 1 << minBufShift},
		{1, 1 << minBufShift},
		{256, 256},
		{257, 512},
		{4096, 4096},
		{maxBufCap, maxBufCap},
	}
	for _, c := range cases {
		buf := getBuf(c.n)
		if len(buf) != 0 || cap(buf) != c.wantCap {
			t.Errorf("getBuf(%d): len=%d cap=%d, want 0 and %d", c.n, len(buf), cap(buf), c.wantCap)
		}
		putBuf(buf)
	}
	big := getBuf(maxBufCap + 1)
	if cap(big) < maxBufCap+1 {
		t.Errorf("oversized getBuf cap = %d", cap(big))
	}
	putBuf(big) // dropped, not pooled
}

// TestInflateChecksBody: inflate gives back exactly the compressed
// document, and refuses a body whose recorded length is off either way or
// whose trailer CRC does not match.
func TestInflateChecksBody(t *testing.T) {
	data := bytes.Repeat([]byte(`{"flow": "example.net"},`), 400)
	z := referenceGzip(t, data)
	got, err := inflate(z, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("inflate: %d bytes, err %v; want the %d-byte document", len(got), err, len(data))
	}
	badCRC := bytes.Clone(z)
	badCRC[len(badCRC)-8] ^= 1
	for name, c := range map[string]struct {
		z []byte
		n int
	}{
		"short length": {z, len(data) - 1},
		"long length":  {z, len(data) + 1},
		"bad CRC":      {badCRC, len(data)},
		"truncated":    {z[:len(z)-4], len(data)},
	} {
		if out, err := inflate(c.z, c.n); err == nil {
			t.Errorf("%s: inflate gave %d bytes and no error", name, len(out))
		}
	}
}

// TestGzipCompressionPreservesETagSemantics is the compression
// acceptance test: for each heavy export endpoint, the gzip-negotiated
// response carries the same ETag and decompresses to the same bytes as
// the identity response, a matching If-None-Match still answers 304
// (body-free, encoding-free) under compression, and clients that did not
// negotiate keep getting identity bodies.
func TestGzipCompressionPreservesETagSemantics(t *testing.T) {
	_, ts, job := storeServer(t, Config{Workers: 1})
	// A second, minimal snapshot: diffing the full capture against it
	// yields a removal for nearly every flow — a diff body heavy enough
	// to be worth compressing, like a real regression between audits.
	job2 := runJob(t, ts, map[string][2]string{
		"child": {"after.har", deltaHAR(t, "https://api.quizlet.com/v1/profile?user_id=u123")},
		"name":  {"", "Quizlet"},
	})

	get := func(t *testing.T, path string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	readAll := func(t *testing.T, resp *http.Response) []byte {
		t.Helper()
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	paths := map[string]string{
		"report.json": "/v1/jobs/" + job.ID + "/report.json",
		"report.csv":  "/v1/jobs/" + job.ID + "/report.csv",
		"diff":        "/v1/diff?from=" + job.SnapshotHash + "&to=" + job2.SnapshotHash,
		"snapshot":    "/v1/snapshots/" + job.SnapshotHash,
	}
	for name, path := range paths {
		t.Run(name, func(t *testing.T) {
			// Identity baseline. (Setting Accept-Encoding explicitly
			// disables the transport's transparent decompression, so the
			// bodies and headers below are exactly what was on the wire.)
			plain := get(t, path, map[string]string{"Accept-Encoding": "identity"})
			plainBody := readAll(t, plain)
			etag := plain.Header.Get("ETag")
			if plain.StatusCode != http.StatusOK || etag == "" {
				t.Fatalf("identity GET = %d, ETag %q", plain.StatusCode, etag)
			}
			if enc := plain.Header.Get("Content-Encoding"); enc != "" {
				t.Fatalf("identity response has Content-Encoding %q", enc)
			}
			// An identity body is complete before the first byte is sent,
			// so it is length-delimited: a client can tell a truncated
			// report from a whole one.
			if plain.ContentLength != int64(len(plainBody)) || len(plain.TransferEncoding) != 0 {
				t.Errorf("identity response: Content-Length %d, Transfer-Encoding %v; want %d and none", plain.ContentLength, plain.TransferEncoding, len(plainBody))
			}

			// The negotiated response: compressed on the wire, same ETag,
			// same bytes after decompression, smaller before it.
			zresp := get(t, path, map[string]string{"Accept-Encoding": "gzip"})
			zbody := readAll(t, zresp)
			if zresp.StatusCode != http.StatusOK {
				t.Fatalf("gzip GET = %d", zresp.StatusCode)
			}
			if enc := zresp.Header.Get("Content-Encoding"); enc != "gzip" {
				t.Fatalf("Content-Encoding = %q, want gzip", enc)
			}
			if vary := zresp.Header.Get("Vary"); vary != "Accept-Encoding" {
				t.Errorf("Vary = %q, want Accept-Encoding", vary)
			}
			if got := zresp.Header.Get("ETag"); got != etag {
				t.Errorf("compressed ETag = %q, identity ETag = %q; the validator must name the content, not the encoding", got, etag)
			}
			// Every gzip body is compressed in full before it is sent, so
			// it is length-delimited too.
			if zresp.ContentLength != int64(len(zbody)) || len(zresp.TransferEncoding) != 0 {
				t.Errorf("gzip response: Content-Length %d, Transfer-Encoding %v; want %d and none", zresp.ContentLength, zresp.TransferEncoding, len(zbody))
			}
			// A second gzip read — a hit on the attached body for the JSON
			// export, a fresh compression elsewhere — sends the same bytes.
			again := get(t, path, map[string]string{"Accept-Encoding": "gzip"})
			if againBody := readAll(t, again); !bytes.Equal(againBody, zbody) || again.ContentLength != int64(len(zbody)) {
				t.Errorf("second gzip read: %d bytes, Content-Length %d; want the first read's %d bytes", len(againBody), again.ContentLength, len(zbody))
			}
			if len(zbody) >= len(plainBody) {
				t.Errorf("compressed body (%d bytes) is not smaller than identity (%d bytes)", len(zbody), len(plainBody))
			}
			zr, err := gzip.NewReader(bytes.NewReader(zbody))
			if err != nil {
				t.Fatal(err)
			}
			unzipped, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(unzipped, plainBody) {
				t.Fatal("gzip body does not decompress to the identity body")
			}
			if !bytes.Equal(zbody, referenceGzip(t, plainBody)) {
				t.Error("gzip body is not the default-level gzip of the identity body")
			}

			// Conditional GET under compression: the validator from either
			// representation revalidates, the 304 has no body and no
			// Content-Encoding, and nothing was compressed to produce it.
			cond := get(t, path, map[string]string{"Accept-Encoding": "gzip", "If-None-Match": etag})
			condBody := readAll(t, cond)
			if cond.StatusCode != http.StatusNotModified {
				t.Fatalf("conditional GET = %d, want 304", cond.StatusCode)
			}
			if len(condBody) != 0 {
				t.Errorf("304 carried %d body bytes", len(condBody))
			}
			if enc := cond.Header.Get("Content-Encoding"); enc != "" {
				t.Errorf("304 has Content-Encoding %q", enc)
			}
			if got := cond.Header.Get("ETag"); got != etag {
				t.Errorf("304 ETag = %q, want %q", got, etag)
			}
			// RFC 9110 §15.4.5: the 304 carries the Vary the 200 would.
			if vary := cond.Header.Values("Vary"); len(vary) != 1 || vary[0] != "Accept-Encoding" {
				t.Errorf("304 Vary = %q, want exactly Accept-Encoding as on the 200", vary)
			}
		})
	}
}

// TestExportScratchNotSharedAcrossResponses: report.json and
// /v1/snapshots/{ref} render into pooled scratch that goes back to the pool
// after the write. Concurrent readers of results of different sizes — so
// buffers of several size classes are in flight and recycled at once,
// identity and gzip interleaved — must each get exactly their result's
// export, and a result whose export exceeds the pool's 4 MiB top class
// (rendered into a one-off buffer the pool then refuses) serves the same
// way. A second server, cold again, then sends every reader at one hash at
// once, identity and gzip mixed, so the miss, the attach of the gzip body
// and the hits that write or inflate it race each other; every gzip body
// must be byte for byte the default-level gzip of the export. Run under
// -race, this is also the check that no buffer is written after it was
// returned and no attached body is written after it was shared.
func TestExportScratchNotSharedAcrossResponses(t *testing.T) {
	var results []*core.ServiceResult
	pipe := core.NewPipeline()
	for _, st := range synth.Generate(synth.Config{Scale: 0.002}).Services {
		results = append(results, pipe.AnalyzeRecords(st.Identity(), st.Records()))
	}
	// 11 000 flows at ~430 bytes a row: a 4.7 MB export.
	huge := &core.ServiceResult{
		Identity: core.ServiceIdentity{Name: "Huge", Owner: "Huge Org"},
		ByTrace:  map[flows.Persona]*flows.Set{flows.Child: flows.NewTable().NewSet(11000)},
		Domains:  map[string]bool{}, ESLDs: map[string]bool{}, RawKeys: map[string]bool{},
	}
	cats := ontology.Categories()
	for i := 0; i < 11000; i++ {
		fqdn := fmt.Sprintf("host-%05d.tracker.example.net", i)
		huge.ByTrace[flows.Child].Add(flows.Flow{
			Category: &cats[i%len(cats)],
			Dest:     flows.Destination{FQDN: fqdn, ESLD: "example.net", Owner: "Example Networks", Class: flows.ThirdPartyATS},
		}, flows.Web)
	}
	results = append(results, huge)

	st := testStore(t)
	type stored struct {
		jobID, hash string
		want, gz    []byte
	}
	var snaps []stored
	for i, res := range results {
		jobID := fmt.Sprintf("job-%d", 100+i)
		meta, err := st.Put(jobID, res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := report.ExportJSON([]*core.ServiceResult{res})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, stored{jobID, meta.Hash, want, referenceGzip(t, want)})
	}
	if n := len(snaps[len(snaps)-1].want); n <= 4<<20 {
		t.Fatalf("the huge export is %d bytes; it must exceed the pool's 4 MiB top class", n)
	}
	newServer := func() *httptest.Server {
		srv := newServer(t, Config{Store: st})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts
	}
	// read fetches one export and checks it: an identity body must be the
	// export, a gzip body the reference compression of it.
	read := func(ts *httptest.Server, snap stored, path, enc string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Accept-Encoding", enc)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := snap.want
		if enc == "gzip" {
			want = snap.gz
		}
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s (%s): status %d, err %v, %d bytes served, want %d — not the same body",
				path, enc, resp.StatusCode, err, len(got), len(want))
		}
	}
	route := func(snap stored, i int) string {
		if i%2 == 1 {
			return "/v1/jobs/" + snap.jobID + "/report.json"
		}
		return "/v1/snapshots/" + snap.hash
	}
	encoding := func(i int) string {
		if i%2 == 1 {
			return "gzip"
		}
		return "identity"
	}

	const readers = 6
	ts := newServer()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range snaps {
				snap := snaps[(g+i)%len(snaps)]
				read(ts, snap, route(snap, g+i), encoding(g/2+i))
			}
		}(g)
	}
	wg.Wait()

	ts = newServer()
	for _, snap := range snaps {
		start := make(chan struct{})
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 3; i++ {
					read(ts, snap, route(snap, g/2+i), encoding(g+i))
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}

// referenceGzip is the gzip body every heavy route sends for data: one
// default-level gzip.Writer over the whole body.
func referenceGzip(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
