package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"diffaudit"
	"diffaudit/internal/netcap/pcapio"
)

func TestTraceFlagSet(t *testing.T) {
	var f traceFlag
	cases := map[string]diffaudit.TraceCategory{
		"child=a.har":      diffaudit.Child,
		"teen=b.har":       diffaudit.Adolescent,
		"adolescent=c.har": diffaudit.Adolescent,
		"adult=d.har":      diffaudit.Adult,
		"loggedout=e.har":  diffaudit.LoggedOut,
		"logged-out=f.har": diffaudit.LoggedOut,
		"out=g.har":        diffaudit.LoggedOut,
	}
	for in, want := range cases {
		if err := f.Set(in); err != nil {
			t.Fatalf("Set(%q): %v", in, err)
		}
		got := f.entries[len(f.entries)-1]
		if got.trace != want {
			t.Errorf("Set(%q) trace = %v, want %v", in, got.trace, want)
		}
	}
	if f.String() == "" {
		t.Error("String()")
	}
}

func TestTraceFlagSetErrors(t *testing.T) {
	var f traceFlag
	for _, in := range []string{"nopath", "grownup=x.har", "=x.har"} {
		if err := f.Set(in); err == nil {
			t.Errorf("Set(%q) accepted", in)
		}
	}
}

// TestPersonaFlagRegisters: each -persona is indexed as it is parsed, so
// later -har/-pcap flags parse its name, while the process-wide built-in
// names stay the only ones ParsePersona knows.
func TestPersonaFlagRegisters(t *testing.T) {
	var f personaFlag
	if err := f.Set("flagged-teen:13-15"); err != nil {
		t.Fatal(err)
	}
	p, ok := f.parse("flagged-teen")
	if !ok {
		t.Fatal("persona not indexed by flag")
	}
	if !p.AgeBelow(16) || p.AgeBelow(15) || !p.LoggedIn() {
		t.Error("flag-defined persona attributes")
	}
	if _, ok := diffaudit.ParsePersona("flagged-teen"); ok {
		t.Error("a -persona flag changed the built-in names")
	}
	if err := f.Set("flagged-visitor:loggedout"); err != nil {
		t.Fatal(err)
	}
	if v, ok := f.parse("flagged-visitor"); !ok || v.LoggedIn() || v.AgeKnown() {
		t.Error("logged-out persona spec")
	}
	for _, bad := range []string{"noage", "x:13", "x:a-b", ":13-15", "child:0-12", "flagged-teen:13-14"} {
		if err := f.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	if f.String() != "[flagged-teen flagged-visitor]" {
		t.Errorf("String() = %q", f.String())
	}
	tf := traceFlag{personas: &f}
	if err := tf.Set("flagged-teen=t.har"); err != nil || tf.entries[0].trace != p {
		t.Errorf("-har flagged-teen=… = %+v, %v", tf.entries, err)
	}
}

func TestPackFlagAndScenario(t *testing.T) {
	var f packFlag
	for _, spec := range []string{"coppa", "gdpr=15"} {
		if err := f.Set(spec); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := diffaudit.NewScenario(f.specs...)
	if err != nil || len(sc.Packs) != 2 {
		t.Fatalf("scenario = %+v, %v", sc, err)
	}
	if f.String() != "coppa,gdpr=15" {
		t.Errorf("String() = %q", f.String())
	}
}

// diffResults builds two audits of one service with a controlled flow
// delta: the second sees one extra request carrying an advertising ID to a
// tracker.
func diffResults(t *testing.T) (*diffaudit.ServiceResult, *diffaudit.ServiceResult) {
	t.Helper()
	auditor := diffaudit.New()
	id := diffaudit.ServiceIdentity{Name: "delta-svc", Owner: "Delta Inc", FirstPartyESLDs: []string{"delta.example"}}
	base := []diffaudit.RequestRecord{{
		Trace: diffaudit.Child, Platform: diffaudit.Web, Method: "GET",
		URL: "https://api.delta.example/v1?user_id=u1", FQDN: "api.delta.example",
	}}
	extra := append(append([]diffaudit.RequestRecord(nil), base...), diffaudit.RequestRecord{
		Trace: diffaudit.Child, Platform: diffaudit.Web, Method: "GET",
		URL: "https://stats.g.doubleclick.net/collect?advertising_id=a1", FQDN: "stats.g.doubleclick.net",
	})
	return auditor.AuditRecords(id, base), auditor.AuditRecords(id, extra)
}

// TestRunDiff drives the diff subcommand over snapshot files and over a
// filesystem store: both must report the injected flow delta.
func TestRunDiff(t *testing.T) {
	from, to := diffResults(t)
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.snap")
	newPath := filepath.Join(dir, "new.snap")
	if err := diffaudit.SaveSnapshot(oldPath, from); err != nil {
		t.Fatal(err)
	}
	if err := diffaudit.SaveSnapshot(newPath, to); err != nil {
		t.Fatal(err)
	}

	var md strings.Builder
	if err := runDiff([]string{oldPath, newPath}, &md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stats.g.doubleclick.net", "+ "} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown diff missing %q:\n%s", want, md.String())
		}
	}

	var js strings.Builder
	if err := runDiff([]string{"-format", "json", oldPath, newPath}, &js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"changed": true`) || !strings.Contains(js.String(), "stats.g.doubleclick.net") {
		t.Errorf("json diff missing delta:\n%s", js.String())
	}

	// Store-backed references: store both snapshots and diff by sequence.
	storeDir := t.TempDir()
	st, err := diffaudit.OpenSnapshotStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("", from); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("", to); err != nil {
		t.Fatal(err)
	}
	var stored strings.Builder
	if err := runDiff([]string{"-data-dir", storeDir, "1", "2"}, &stored); err != nil {
		t.Fatal(err)
	}
	if stored.String() != md.String() {
		t.Errorf("store-backed diff differs from file-backed diff:\n%s\nvs\n%s", stored.String(), md.String())
	}

	// A stray local file whose name collides with a store reference must
	// not shadow the store: "1" resolves to sequence 1, not to ./1.
	shadowDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(shadowDir, "1"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Not t.Chdir: the CI matrix still runs Go 1.22/1.23.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(shadowDir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var shadowed strings.Builder
	if err := runDiff([]string{"-data-dir", storeDir, "1", "2"}, &shadowed); err != nil {
		t.Fatalf("store ref shadowed by stray file: %v", err)
	}
	if shadowed.String() != md.String() {
		t.Error("stray file changed the store-ref diff output")
	}

	// Error paths: missing file without a store, bad arg count.
	if err := runDiff([]string{"nope.snap", newPath}, &strings.Builder{}); err == nil {
		t.Error("missing snapshot file accepted")
	}
	if err := runDiff([]string{oldPath}, &strings.Builder{}); err == nil {
		t.Error("single argument accepted")
	}
}

// TestShutdownOnSignal checks the serve-mode drain path: a termination
// signal closes the listener via http.Server.Shutdown and the drain
// channel closes once in-flight requests are done.
func TestShutdownOnSignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	stop := make(chan os.Signal, 1)
	drained := shutdownOnSignal(httpSrv, stop)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// The server answers before the signal.
	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stop <- syscall.SIGTERM
	select {
	case err := <-serveErr:
		if err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after signal")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain channel never closed")
	}
	// After shutdown the listener refuses connections.
	if _, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestOpenDataDir: serve always has a store and a journal. Without
// -data-dir they live in a private directory that exists while the server
// runs and is gone after cleanup; a named directory outlives cleanup.
func TestOpenDataDir(t *testing.T) {
	for _, named := range []bool{false, true} {
		t.Run(fmt.Sprintf("named=%v", named), func(t *testing.T) {
			dir := ""
			if named {
				dir = t.TempDir()
			}
			st, journalDir, cleanup, err := openDataDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			root := filepath.Dir(journalDir)
			if named && root != dir {
				t.Fatalf("journal in %s, want it under -data-dir %s", journalDir, dir)
			}
			srv, err := diffaudit.OpenServer(diffaudit.ServerConfig{Store: st, JournalDir: journalDir})
			if err != nil {
				cleanup()
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			resp, err := http.Get(ts.URL + "/v1/snapshots")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET /v1/snapshots = %d, want 200", resp.StatusCode)
			}
			if fi, err := os.Stat(journalDir); err != nil || !fi.IsDir() {
				t.Errorf("journal directory while serving: %v", err)
			}
			ts.Close()
			srv.Close()
			cleanup()
			_, err = os.Stat(root)
			if named && err != nil {
				t.Errorf("cleanup removed the named data directory: %v", err)
			}
			if !named && !os.IsNotExist(err) {
				t.Errorf("private data directory %s survives cleanup (stat: %v)", root, err)
			}
		})
	}
}

// TestSlowHeaderClientIsDisconnected: the serve listener gives a client a
// bounded time to finish its request headers, so a connection that sends
// half a request line and stalls is closed by the server instead of being
// held forever.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	httpSrv := newHTTPServer("", http.NotFoundHandler())
	if httpSrv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 || httpSrv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("serve listener deadlines: header %v, idle %v", httpSrv.ReadHeaderTimeout, httpSrv.IdleTimeout)
	}
	if httpSrv.ReadTimeout != 0 {
		t.Errorf("ReadTimeout = %v: it would cut long uploads short", httpSrv.ReadTimeout)
	}
	httpSrv.ReadHeaderTimeout = 100 * time.Millisecond // the same mechanism, without the ten-second wait

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/hea")); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; what matters is that the
	// stream ends (EOF or reset) rather than the read running into its
	// own deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			t.Fatal("server kept a half-sent request line open past its header deadline")
		}
	}
}

// writeCaptures writes a service's child web HAR and adult mobile pcapng
// under dir.
func writeCaptures(t *testing.T, service, dir string) (harPath, pcapPath string) {
	t.Helper()
	st := diffaudit.GenerateDataset(0.01).Service(service)
	harPath = filepath.Join(dir, "child.har")
	if err := st.EmitHAR(diffaudit.Child).WriteFile(harPath); err != nil {
		t.Fatal(err)
	}
	capt, err := st.EmitPCAP(diffaudit.Adult)
	if err != nil {
		t.Fatal(err)
	}
	pcapPath = filepath.Join(dir, "adult.pcapng")
	f, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcapio.WritePcapng(f, capt); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return harPath, pcapPath
}

// TestAuditFilesOnePass drives file mode over a web and a mobile capture.
// Each file is read once, and what is printed must be what the two-step
// reference (load, GuessIdentity, AuditRecords) reports for the same files.
func TestAuditFilesOnePass(t *testing.T) {
	dir := t.TempDir()
	harPath, pcapPath := writeCaptures(t, "Duolingo", dir)

	auditor := diffaudit.New()
	recs, err := auditor.LoadHARFile(harPath, diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	mobile, stats, err := auditor.LoadPCAPFile(pcapPath, "", diffaudit.Adult)
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, mobile...)
	id := diffaudit.GuessIdentity("MyApp", recs)
	res := auditor.AuditRecords(id, recs)
	want := fmt.Sprintf("%s: %d packets, %d TCP flows, %d/%d TLS streams decrypted\n", pcapPath, stats.Packets, stats.TCPFlows, stats.DecryptedStreams, stats.TLSStreams) +
		fmt.Sprintf("=== MyApp (first party: %s) ===\n", strings.Join(id.FirstPartyESLDs, ", ")) +
		fmt.Sprintf("domains=%d eSLDs=%d unique-data-types=%d dropped-keys=%d\n", len(res.Domains), len(res.ESLDs), len(res.RawKeys), res.DroppedKeys)

	var hars, pcaps traceFlag
	if err := hars.Set("child=" + harPath); err != nil {
		t.Fatal(err)
	}
	if err := pcaps.Set("adult=" + pcapPath); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := auditFiles(&out, auditor, "MyApp", "", hars, pcaps, false, nil, "", ""); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("file mode printed\n%s\nwant\n%s", out.String(), want)
	}

	// An empty capture set is told apart from an unresolvable identity.
	emptyPath := filepath.Join(dir, "empty.har")
	if err := os.WriteFile(emptyPath, []byte(`{"log":{"version":"1.2","entries":[]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var empty traceFlag
	if err := empty.Set("child=" + emptyPath); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = auditFiles(&out, auditor, "MyApp", "", empty, traceFlag{}, false, nil, "", "")
	if err == nil || err.Error() != "no requests parsed from the given captures" || out.Len() != 0 {
		t.Errorf("empty capture: err = %v, printed %q", err, out.String())
	}

	// A malformed keylog fails the run once, named after the capture.
	badKeys := filepath.Join(dir, "bad.keylog")
	if err := os.WriteFile(badKeys, []byte("CLIENT_RANDOM zz zz\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := auditFiles(io.Discard, auditor, "MyApp", badKeys, hars, pcaps, false, nil, "", ""); err == nil || !strings.HasPrefix(err.Error(), pcapPath+": ") {
		t.Errorf("malformed keylog: err = %v, want one prefixed with the capture path", err)
	}
}

// TestFileModeMatchesServe is the server = file mode relation: captures
// audited by file mode under a profiled -name, and uploaded to serve under
// the same name, are one audit under the service's profile — the same
// snapshot encoding and the same report.json bytes.
func TestFileModeMatchesServe(t *testing.T) {
	dir := t.TempDir()
	harPath, pcapPath := writeCaptures(t, "Quizlet", dir)

	var hars, pcaps traceFlag
	if err := hars.Set("child=" + harPath); err != nil {
		t.Fatal(err)
	}
	if err := pcaps.Set("adult=" + pcapPath); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "file-mode.snap")
	if err := auditFiles(io.Discard, diffaudit.New(), "Quizlet", "", hars, pcaps, false, nil, snapPath, ""); err != nil {
		t.Fatal(err)
	}
	fileRes, err := diffaudit.LoadSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	profile := diffaudit.GenerateDataset(0.01).Service("Quizlet").Identity()
	if id := fileRes.Identity; id.Name != profile.Name || id.Owner != profile.Owner || strings.Join(id.FirstPartyESLDs, ",") != strings.Join(profile.FirstPartyESLDs, ",") {
		t.Fatalf("file mode audited under %+v, want the profile %+v", id, profile)
	}
	fileJSON, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{fileRes})
	if err != nil {
		t.Fatal(err)
	}

	st, err := diffaudit.OpenSnapshotStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := diffaudit.OpenServer(diffaudit.ServerConfig{Store: st, JournalDir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, part := range [][2]string{{"child", harPath}, {"adult", pcapPath}} {
		data, err := os.ReadFile(part[1])
		if err != nil {
			t.Fatal(err)
		}
		w, err := mw.CreateFormFile(part[0], filepath.Base(part[1]))
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
	}
	mw.WriteField("name", "Quizlet")
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/audits", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID, State, Error string
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/audits = %d (%v)", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(30 * time.Second); job.State != "done"; time.Sleep(10 * time.Millisecond) {
		if job.State == "failed" || job.State == "timeout" || time.Now().After(deadline) {
			t.Fatalf("job %s is %s: %s", job.ID, job.State, job.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/report.json")
	if err != nil {
		t.Fatal(err)
	}
	serveJSON, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("report.json = %d (%v)", resp.StatusCode, err)
	}
	if !bytes.Equal(serveJSON, fileJSON) {
		t.Errorf("serve's report.json (%d bytes) differs from file mode's (%d bytes)", len(serveJSON), len(fileJSON))
	}
	serveRes, _, err := st.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(diffaudit.EncodeSnapshot(serveRes), diffaudit.EncodeSnapshot(fileRes)) {
		t.Error("serve's stored snapshot encodes differently from file mode's")
	}
}
