// Command diffaudit runs the full DiffAudit pipeline. In dataset mode
// (default) it synthesizes the six-service dataset and audits every
// service; in file mode it audits capture files you point it at; in serve
// mode it runs the long-lived audit server; in diff mode it compares two
// stored audits of one service over time.
//
// Usage:
//
//	diffaudit [-scale 0.01] [-service Quizlet] [-findings] [-policy]
//	          [-persona eu-teen:13-15] [-rulepack gdpr=15]
//	diffaudit -har child=child.har -har loggedout=out.har -name MyApp
//	          [-snapshot audit.snap] [-data-dir ./snapshots]
//	diffaudit serve [-addr :8080] [-workers 2] [-queue 16] [-pprof 127.0.0.1:6060]
//	          [-persona eu-teen:13-15] [-data-dir ./snapshots] [-job-timeout 10m]
//	          [-cache-mb 64]
//	diffaudit diff [-data-dir ./snapshots] [-format md|json] <old> <new>
//
// -persona defines additional personas beyond the paper's four built-in
// trace categories; later capture flags and (in serve mode) upload form
// fields then accept their names. -rulepack selects the regulation rule
// packs findings are evaluated under (default: the paper's COPPA+CCPA
// scenario); "gdpr=15" instantiates the GDPR pack with age-of-consent 15.
//
// File mode streams captures from disk: HAR entries decode one at a time
// and PCAP frames iterate without materializing the file, so capture size
// does not bound memory. A -name with a service profile (e.g. Quizlet) is
// audited under that profile, exactly as serve audits an upload of that
// name; any other name's first party is its most-contacted eSLD.
// -snapshot writes the audit result as a self-contained snapshot file;
// -data-dir appends it to a filesystem snapshot store instead.
//
// Serve mode shuts down gracefully on SIGINT or SIGTERM: the listener
// closes, in-flight requests get a deadline, and queued audit jobs drain
// before the process exits. Finished audits persist as snapshots in the
// data directory: reports survive eviction, and GET /v1/snapshots plus GET
// /v1/diff serve the longitudinal API. The directory also holds the
// crash-safe job journal (<data-dir>/journal/journal.log): accepted
// uploads survive even an unclean kill and re-run on the next start; the
// server refuses to start over a journal directory it cannot read (an
// older build's *.job / *.batch files) rather than drop the jobs in it.
// -data-dir names the directory, so results and interrupted jobs survive
// restarts; without it serve uses a private temporary directory and
// removes it at exit.
// -job-timeout bounds one audit's run time so a pathological capture
// cannot wedge a worker. The HTTP API is served under /v1 only; decoded
// snapshots are cached under a -cache-mb byte budget, so repeat
// report/diff reads and conditional GETs (ETag / If-None-Match) skip
// decoding entirely.
//
// Diff mode resolves <old> and <new> as snapshot file paths or, with
// -data-dir, as store references (sequence number, content hash, unique
// hash prefix, or job ID) and reports the per-persona flow delta. With
// -data-dir, store references take precedence; unmatched references fall
// back to file paths.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling handlers for `serve -pprof` (separate listener)
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"diffaudit"
)

// traceFlag collects repeated "trace=path" capture arguments, parsing each
// persona name against the -persona flags given so far (the built-ins only
// when personas is nil).
type traceFlag struct {
	personas *personaFlag
	entries  []traceFile
}

type traceFile struct {
	trace diffaudit.TraceCategory
	path  string
}

func (f *traceFlag) String() string { return fmt.Sprintf("%d files", len(f.entries)) }

func (f *traceFlag) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want trace=path, got %q", v)
	}
	tc, ok := f.personas.parse(name)
	if !ok {
		return fmt.Errorf("unknown persona %q (built-ins: child|adolescent|adult|loggedout; define more with -persona)", name)
	}
	f.entries = append(f.entries, traceFile{tc, path})
	return nil
}

// personaFlag collects the -persona definitions and indexes them as each is
// parsed, so later -har/-pcap flags can reference them by name.
type personaFlag struct {
	customs []diffaudit.Persona
	index   *diffaudit.PersonaIndex
}

func (f *personaFlag) String() string { return fmt.Sprint(f.customs) }

func (f *personaFlag) Set(v string) error {
	p, err := diffaudit.NewPersonaSpec(v)
	if err != nil {
		return err
	}
	index, err := diffaudit.NewPersonaIndex(append(f.customs, p)...)
	if err != nil {
		return err
	}
	f.customs, f.index = index.Personas()[len(diffaudit.BuiltinPersonas()):], index
	return nil
}

// parse resolves a persona name against the personas defined so far.
func (f *personaFlag) parse(name string) (diffaudit.Persona, bool) {
	if f == nil || f.index == nil {
		return diffaudit.ParsePersona(name)
	}
	return f.index.Parse(name)
}

// packFlag collects repeated -rulepack specs.
type packFlag struct {
	specs []string
}

func (f *packFlag) String() string { return strings.Join(f.specs, ",") }

func (f *packFlag) Set(v string) error {
	f.specs = append(f.specs, v)
	return nil
}

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serve(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		if err := runDiff(os.Args[2:], os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	var personas personaFlag
	hars, pcaps := traceFlag{personas: &personas}, traceFlag{personas: &personas}
	var packs packFlag
	scale := flag.Float64("scale", 0.01, "synthetic dataset scale (dataset mode)")
	service := flag.String("service", "", "audit a single service (dataset mode)")
	name := flag.String("name", "custom-service", "service name (file mode); a profiled service (e.g. Quizlet) is audited under its profile, as serve does, any other name under the most-contacted eSLD")
	keylog := flag.String("keylog", "", "SSLKEYLOGFILE for pcap decryption (file mode)")
	findings := flag.Bool("findings", true, "print regulation findings")
	policyCheck := flag.Bool("policy", true, "print privacy-policy contradictions")
	snapshotOut := flag.String("snapshot", "", "write the audit result to this snapshot file (file mode)")
	dataDir := flag.String("data-dir", "", "append the audit result to this snapshot store (file mode)")
	flag.Var(&personas, "persona", "define a persona, e.g. eu-teen:13-15 or visitor:loggedout (repeatable; place before -har/-pcap flags that use it)")
	flag.Var(&packs, "rulepack", "regulation rule pack to audit under: coppa, ccpa, gdpr, gdpr=15 (repeatable; default coppa+ccpa)")
	flag.Var(&hars, "har", "persona=path of a website HAR capture (repeatable)")
	flag.Var(&pcaps, "pcap", "persona=path of a mobile pcap/pcapng capture (repeatable)")
	flag.Parse()

	scenario, err := diffaudit.NewScenario(packs.specs...)
	if err != nil {
		log.Fatal(err)
	}

	auditor := diffaudit.New()
	if len(hars.entries) > 0 || len(pcaps.entries) > 0 {
		if err := auditFiles(os.Stdout, auditor, *name, *keylog, hars, pcaps, *findings, scenario, *snapshotOut, *dataDir); err != nil {
			log.Fatal(err)
		}
		return
	}

	results := diffaudit.AuditAll(*scale)
	for _, r := range results {
		if *service != "" && !strings.EqualFold(r.Identity.Name, *service) {
			continue
		}
		fmt.Printf("=== %s ===\n", r.Identity.Name)
		fmt.Printf("domains=%d eSLDs=%d packets=%d tcp-flows=%d unique-data-types=%d\n",
			len(r.Domains), len(r.ESLDs), r.Packets, r.TCPFlows, len(r.RawKeys))
		if *findings {
			for _, f := range diffaudit.FindingsScenario(r, scenario) {
				fmt.Println(" ", f)
			}
		}
		if *policyCheck {
			v := diffaudit.PolicyViolations(r)
			if len(v) == 0 {
				fmt.Println("  policy: consistent with observed flows")
			} else {
				fmt.Printf("  policy: %d contradictions (first: %s)\n", len(v), v[0])
			}
		}
		fmt.Println()
	}
}

// shutdownGrace bounds how long in-flight HTTP requests may take once a
// stop signal arrives; queued audit jobs drain separately (and fully)
// through Server.Close.
const shutdownGrace = 30 * time.Second

// shutdownOnSignal shuts the HTTP listener down with a deadline when a
// signal arrives (or the channel closes). The returned channel closes once
// Shutdown has returned, i.e. when in-flight requests have finished or the
// grace period expired.
func shutdownOnSignal(httpSrv *http.Server, stop <-chan os.Signal) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := <-stop; !ok {
			return
		}
		log.Printf("diffaudit serve: shutdown signal; draining (grace %s)", shutdownGrace)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("diffaudit serve: shutdown: %v", err)
		}
	}()
	return done
}

// serve runs the audit server until SIGINT/SIGTERM, then drains: the
// listener stops accepting, in-flight uploads finish under a deadline, and
// every queued job runs to completion before the process exits — no
// accepted audit is ever dropped.
func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var personas personaFlag
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 2, "concurrent audit jobs")
	queue := fs.Int("queue", 16, "bounded job queue depth")
	maxUpload := fs.Int64("max-upload", 1<<30, "max upload size in bytes")
	dataDir := fs.String("data-dir", "", "data directory for the snapshot store and the crash-safe job journal, kept across restarts (default: a private temporary directory removed at exit)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job audit deadline, e.g. 10m; a job exceeding it lands in the \"timeout\" state (0 = unlimited)")
	cacheMB := fs.Int64("cache-mb", 64, "decoded-snapshot cache budget in MiB shared by the report/snapshot/diff read path (0 disables)")
	pprofAddr := fs.String("pprof", "", "localhost address for net/http/pprof (e.g. 127.0.0.1:6060); empty disables profiling")
	fs.Var(&personas, "persona", "define a persona accepted as an upload field, e.g. eu-teen:13-15 (repeatable)")
	fs.Parse(args)

	snapStore, journalDir, cleanup, err := openDataDir(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	// log.Fatal skips deferred calls, so every exit from here on removes a
	// private data directory itself.
	fatal := func(err error) {
		cleanup()
		log.Fatal(err)
	}
	log.Printf("diffaudit serve: snapshots under %s (job journal in %s)", filepath.Dir(journalDir), journalDir)

	if *pprofAddr != "" {
		// The profiler listens on its own (typically loopback-only)
		// address, never on the audit port: profiles expose internals and
		// must not be reachable wherever /v1/audits is exposed. The blank
		// net/http/pprof import registers its handlers on the default
		// mux, which only this listener serves. /debug/pprof/mutex and
		// /block stay empty unless sampling is on, and sampling costs a
		// little on every contended lock, so it is on only with -pprof:
		// one contention event in 5, one blocking event per µs blocked.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(1000)
		go func() {
			log.Printf("diffaudit serve: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	cacheBytes := *cacheMB << 20
	if cacheBytes == 0 {
		cacheBytes = -1 // Config treats 0 as "use the default"; -1 disables
	}
	srv, err := diffaudit.OpenServer(diffaudit.ServerConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxUploadBytes: *maxUpload,
		Store:          snapStore,
		JournalDir:     journalDir,
		JobTimeout:     *jobTimeout,
		CacheBytes:     cacheBytes,
		Personas:       personas.customs,
	})
	if err != nil {
		fatal(err)
	}
	httpSrv := newHTTPServer(*addr, srv)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	drained := shutdownOnSignal(httpSrv, stop)

	display := *addr
	if strings.HasPrefix(display, ":") {
		display = "localhost" + display
	}
	log.Printf("diffaudit serve: listening on %s (%d workers, queue depth %d)", *addr, *workers, *queue)
	log.Printf("submit captures:  curl -F child=@child.har -F name=MyApp http://%s/v1/audits", display)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		srv.Close()
		fatal(err)
	}
	<-drained
	srv.Close() // run every queued job to completion before exiting
	cleanup()
	log.Printf("diffaudit serve: all jobs drained; exiting")
}

// openDataDir opens serve's snapshot store in dir and names its journal
// directory, <dir>/journal, beside it: a job and its eventual snapshot
// share one durable volume, and a restart over the same dir re-runs
// whatever a crash interrupted. An empty dir means a private temporary
// directory, which cleanup removes once the server has drained; for a
// named dir cleanup does nothing.
func openDataDir(dir string) (st diffaudit.SnapshotStore, journalDir string, cleanup func(), err error) {
	cleanup = func() {}
	if dir == "" {
		if dir, err = os.MkdirTemp("", "diffaudit-serve-*"); err != nil {
			return nil, "", nil, err
		}
		private := dir
		cleanup = func() {
			if err := os.RemoveAll(private); err != nil {
				log.Printf("diffaudit serve: removing private data directory: %v", err)
			}
		}
	}
	if st, err = diffaudit.OpenSnapshotStore(dir); err != nil {
		cleanup()
		return nil, "", nil, err
	}
	return st, filepath.Join(dir, "journal"), cleanup, nil
}

// Connection deadlines of the serve listener. A client that dribbles its
// request headers, or parks an idle keep-alive connection, would otherwise
// hold a connection forever without ever reaching the admission controller.
// There is deliberately no ReadTimeout: it would also bound the body, and
// a legitimate 1 GiB upload over a slow link takes as long as it takes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the serve-mode HTTP server.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// runDiff implements the diff subcommand: load two snapshots (file paths,
// or store references when -data-dir is given) and render their
// longitudinal diff.
func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "snapshot store to resolve non-file references against (seq, hash, hash prefix, or job ID)")
	format := fs.String("format", "md", "output format: md or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: diffaudit diff [-data-dir dir] [-format md|json] <old> <new>")
	}

	var st diffaudit.SnapshotStore
	if *dataDir != "" {
		var err error
		if st, err = diffaudit.OpenSnapshotStore(*dataDir); err != nil {
			return err
		}
	}
	load := func(ref string) (*diffaudit.ServiceResult, error) {
		// With a store, references resolve there first — a stray local
		// file named "1" or "job-1" must not shadow a store reference.
		// File paths still work: an unmatched ref falls back to disk.
		if st != nil {
			res, _, err := st.Get(ref)
			if err == nil {
				return res, nil
			}
			if fi, statErr := os.Stat(ref); statErr == nil && fi.Mode().IsRegular() {
				return diffaudit.LoadSnapshot(ref)
			}
			return nil, err
		}
		if fi, err := os.Stat(ref); err == nil && fi.Mode().IsRegular() {
			return diffaudit.LoadSnapshot(ref)
		}
		return nil, fmt.Errorf("%s: no such snapshot file (pass -data-dir to resolve store references)", ref)
	}
	from, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	to, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	d := diffaudit.DiffSnapshots(from, to)
	switch *format {
	case "json":
		data, err := diffaudit.ExportDiffJSON(d)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", data)
	case "md":
		fmt.Fprint(out, diffaudit.RenderDiffReport(d))
	default:
		return fmt.Errorf("unknown -format %q (want md or json)", *format)
	}
	return nil
}

// auditFiles streams the given captures through the pipeline once, each
// file opened and parsed once, so whole captures are never resident no
// matter their size. A profiled name is audited under its profile, as
// serve does; any other name's first party falls out of the same pass.
func auditFiles(out io.Writer, auditor *diffaudit.Auditor, name, keylog string, hars, pcaps traceFlag, findings bool, scenario *diffaudit.Scenario, snapshotOut, dataDir string) error {
	var caps []diffaudit.Capture
	for _, e := range hars.entries {
		caps = append(caps, diffaudit.Capture{Path: e.path, HAR: true, Trace: e.trace, Label: e.path})
	}
	for _, e := range pcaps.entries {
		caps = append(caps, diffaudit.Capture{Path: e.path, Trace: e.trace, Label: e.path})
	}
	res, stats, err := auditor.AuditCaptures(name, keylog, caps)
	if err != nil {
		return err
	}
	if res.Packets == 0 {
		return errors.New("no requests parsed from the given captures")
	}
	for i, c := range caps {
		if !c.HAR {
			fmt.Fprintf(out, "%s: %d packets, %d TCP flows, %d/%d TLS streams decrypted\n",
				c.Path, stats[i].Packets, stats[i].TCPFlows, stats[i].DecryptedStreams, stats[i].TLSStreams)
		}
	}
	id := res.Identity
	fmt.Fprintf(out, "=== %s (first party: %s) ===\n", id.Name, strings.Join(id.FirstPartyESLDs, ", "))
	fmt.Fprintf(out, "domains=%d eSLDs=%d unique-data-types=%d dropped-keys=%d\n",
		len(res.Domains), len(res.ESLDs), len(res.RawKeys), res.DroppedKeys)
	if findings {
		for _, f := range diffaudit.FindingsScenario(res, scenario) {
			fmt.Fprintln(out, " ", f)
		}
	}
	if snapshotOut != "" {
		if err := diffaudit.SaveSnapshot(snapshotOut, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "snapshot written to %s\n", snapshotOut)
	}
	if dataDir != "" {
		st, err := diffaudit.OpenSnapshotStore(dataDir)
		if err != nil {
			return err
		}
		meta, err := st.Put("", res)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "snapshot stored: seq=%d hash=%s\n", meta.Seq, meta.Hash[:12])
	}
	return nil
}
