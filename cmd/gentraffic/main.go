// Command gentraffic fabricates the DiffAudit synthetic dataset as on-disk
// capture files: one HAR per (service, persona) for the web platform and
// one pcapng (with embedded TLS key log) per (service, persona) for the
// mobile platform, mirroring the paper's collection layout.
//
// Usage:
//
//	gentraffic -out ./captures -scale 0.01 [-service Quizlet]
//	           [-persona eu-teen:13-15=adolescent]
//	           [-users 50 -workers 8]
//
// -persona defines an additional persona and generates traffic for it
// alongside the four built-in traces; the part after "=" names the
// built-in persona whose calibrated behavior profile drives generation.
//
// -users scales the dataset to a synthetic population: each user gets a
// user-<k>/ directory under every service with their own captures. User 0
// is the canonical capture (byte-identical to -users 1, which keeps the
// legacy flat layout); other users replay the same traffic at an
// FNV-seeded start time, so their capture bytes differ while the audited
// flows stay identical. Emission fans out across -workers goroutines, and
// the output is file-for-file deterministic regardless of worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"diffaudit"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/synth"
)

// personaPlanFlag collects repeated "-persona spec=template" arguments,
// refusing a persona whose name or aliases the built-ins or an earlier
// -persona already use.
type personaPlanFlag struct {
	plans []diffaudit.PersonaPlan
}

func (f *personaPlanFlag) String() string { return fmt.Sprintf("%d personas", len(f.plans)) }

func (f *personaPlanFlag) Set(v string) error {
	spec, tmpl, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want persona-spec=template (e.g. eu-teen:13-15=adolescent), got %q", v)
	}
	p, err := diffaudit.NewPersonaSpec(spec)
	if err != nil {
		return err
	}
	customs := []diffaudit.Persona{p}
	for _, plan := range f.plans {
		customs = append(customs, plan.Persona)
	}
	index, err := diffaudit.NewPersonaIndex(customs...)
	if err != nil {
		return err
	}
	// The index takes an identical record once; a spec given twice would
	// put two handles of one name in the traffic, which no audit accepts.
	if len(index.Personas()) != len(diffaudit.BuiltinPersonas())+len(customs) {
		return fmt.Errorf("persona %q is already generated", p)
	}
	like, okLike := diffaudit.ParsePersona(tmpl)
	if !okLike {
		return fmt.Errorf("unknown template persona %q (want child|adolescent|adult|loggedout)", tmpl)
	}
	f.plans = append(f.plans, diffaudit.PersonaPlan{Persona: p, Like: like})
	return nil
}

// emitJob is one (service, user, persona) capture pair to render.
type emitJob struct {
	st    *diffaudit.ServiceTraffic
	tc    diffaudit.Persona
	dir   string
	start time.Time
}

// run renders the job's HAR and PCAP files and returns a summary line.
func (j *emitJob) run(classic bool) (string, error) {
	slug := strings.ReplaceAll(strings.ToLower(j.tc.String()), " ", "-")
	harPath := filepath.Join(j.dir, slug+"-web.har")
	h := j.st.EmitHARAt(j.tc, j.start)
	if err := h.WriteFile(harPath); err != nil {
		return "", fmt.Errorf("%s: %v", harPath, err)
	}
	capt, err := j.st.EmitPCAPAt(j.tc, j.start)
	if err != nil {
		return "", fmt.Errorf("%s/%s pcap: %v", j.st.Spec.Name, j.tc, err)
	}
	var pcapPath string
	if classic {
		// PCAPdroid workflow: classic pcap plus SSLKEYLOGFILE.
		pcapPath = filepath.Join(j.dir, slug+"-mobile.pcap")
		var keylog []byte
		for _, s := range capt.Secrets {
			keylog = append(keylog, s...)
		}
		capt.Secrets = nil
		if err := os.WriteFile(filepath.Join(j.dir, slug+"-mobile.keylog"), keylog, 0o644); err != nil {
			return "", err
		}
		if err := writeCapture(pcapPath, capt, pcapio.WritePcap); err != nil {
			return "", err
		}
	} else {
		pcapPath = filepath.Join(j.dir, slug+"-mobile.pcapng")
		if err := writeCapture(pcapPath, capt, pcapio.WritePcapng); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("wrote %s (%d entries) and %s (%d packets)",
		harPath, len(h.Log.Entries), pcapPath, len(capt.Packets)), nil
}

func writeCapture(path string, capt *pcapio.Capture, write func(io.Writer, *pcapio.Capture) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, capt); err != nil {
		f.Close()
		return fmt.Errorf("%s: %v", path, err)
	}
	return f.Close()
}

func main() {
	var extras personaPlanFlag
	out := flag.String("out", "captures", "output directory")
	scale := flag.Float64("scale", 0.01, "packet-count scale in (0,1]; 1 reproduces the paper's 440K packets")
	service := flag.String("service", "", "generate a single service (default: all six)")
	classic := flag.Bool("classic-pcap", false, "write classic .pcap files with a side-channel .keylog instead of pcapng with embedded secrets")
	users := flag.Int("users", 1, "synthetic population size: per-user capture directories (1 = the legacy flat layout)")
	workers := flag.Int("workers", runtime.NumCPU(), "emission worker pool size")
	flag.Var(&extras, "persona", "define and generate an extra persona: spec=template, e.g. eu-teen:13-15=adolescent (repeatable)")
	flag.Parse()
	log.SetFlags(0)

	plans := make([]diffaudit.PersonaPlan, 0, 4+len(extras.plans))
	for _, t := range diffaudit.BuiltinPersonas() {
		plans = append(plans, diffaudit.PersonaPlan{Persona: t, Like: t})
	}
	plans = append(plans, extras.plans...)
	ds := diffaudit.GenerateDatasetWith(diffaudit.DatasetConfig{Scale: *scale, Personas: plans})
	if *users < 1 {
		*users = 1
	}

	// Plan every (service, user, persona) job up front — directories are
	// created here, serially, so workers only ever write files.
	var jobs []emitJob
	for _, st := range ds.Services {
		if *service != "" && !strings.EqualFold(st.Spec.Name, *service) {
			continue
		}
		svcDir := filepath.Join(*out, strings.ToLower(st.Spec.Name))
		for u := 0; u < *users; u++ {
			dir := svcDir
			if *users > 1 {
				dir = filepath.Join(svcDir, fmt.Sprintf("user-%03d", u))
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
			for _, plan := range plans {
				jobs = append(jobs, emitJob{st: st, tc: plan.Persona, dir: dir, start: synth.UserStart(u)})
			}
		}
	}
	if len(jobs) == 0 {
		log.Fatalf("no services match -service %q", *service)
	}

	// Fan the jobs across the worker pool. Summary lines land in job
	// order so output stays deterministic no matter the worker count.
	lines := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	n := *workers
	if n < 1 {
		n = 1
	}
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				lines[i], errs[i] = jobs[i].run(*classic)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i := range jobs {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		fmt.Println(lines[i])
	}
}
