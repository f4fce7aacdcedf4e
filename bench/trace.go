package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The traced run. End-to-end numbers are measured with no spans at all; this
// is the separate run that says where a request's time goes. The server has
// no instrumentation of its own yet, so every span is taken from outside: a
// client span around each request, the job JSON's own timestamps, and a
// replay that re-does the request's work in this process through the
// library's facade, one span per call into a layer.

const (
	traceReads = 240 // serial reads in a traced round
	traceJobs  = 4 * uploadCycle
	// On mixed the serial client interleaves the two: ten reads, one job.
	traceMixedReads = 140
	traceMixedJobs  = uploadCycle
)

// span is one line of trace-<workload>.jsonl.
type span struct {
	TraceID uint64 `json:"trace_id"` // one per request
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent"` // 0 for the request's root span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // from the run's epoch
	EndNs   int64  `json:"end_ns"`
	Class   string `json:"class"`
	Bytes   int64  `json:"bytes"`
	// Src says how the span was taken: "client" (timed around the request),
	// "observed" (from the job JSON's timestamps) or "replay" (the layer's
	// facade call re-executed in the harness; laid end to end from its
	// parent's start, since the server does not say when it ran).
	Src string `json:"src"`
}

// traceOp is one operation of the serial rounds.
type traceOp struct {
	read *readOp // nil: upload job number job
	job  int
}

// tracePlan is the fixed operation list both serial rounds execute.
func (e *env) tracePlan() []traceOp {
	var plan []traceOp
	reads, jobs := 0, 0
	switch {
	case e.cfg.wl.uploads && e.cfg.wl.reads:
		reads, jobs = traceMixedReads, traceMixedJobs
	case e.cfg.wl.uploads:
		jobs = traceJobs
	default:
		reads = traceReads
	}
	sched := newReadSchedule(e.cfg.seed, 0, 1, e.c.readSlots, e.cfg.wl.cold)
	job := 0
	for i := 0; i < reads; i++ {
		op := sched.next()
		plan = append(plan, traceOp{read: &op})
		if op.class == clsReportGz {
			// The same report, identity-coded: the gap between the two is
			// what compression costs.
			id := op
			id.class = clsReportID
			plan = append(plan, traceOp{read: &id})
		}
		if jobs > 0 && i%10 == 9 && job < jobs {
			plan = append(plan, traceOp{job: job})
			job++
		}
	}
	for ; job < jobs; job++ {
		plan = append(plan, traceOp{job: job})
	}
	return plan
}

// serialRound executes the plan with one client. The traced round passes
// each: it is called after every operation, off that operation's clock, with
// the read's body in a buffer the next read reuses.
func (e *env) serialRound(plan []traceOp, phase string, each func(i int, k checked) error) ([]sample, error) {
	out := make([]sample, 0, len(plan))
	var buf *bytes.Buffer
	if each != nil {
		buf = new(bytes.Buffer)
	}
	for i, op := range plan {
		var k checked
		if op.read != nil {
			k.s, k.body = e.drv.doRead(*op.read, buf)
		} else {
			k.s = e.drv.runJob(phase, op.job)
		}
		e.count(k.s)
		out = append(out, k.s)
		if each != nil && k.s.ok {
			if err := each(i, k); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// tracer hands out span IDs and collects spans in memory; they are written
// out once, after the last measurement.
type tracer struct {
	spans  []span
	next   uint64
	counts map[string][]float64 // per-request counts taken at the layer boundaries
}

func (t *tracer) add(trace, parent uint64, name, class, src string, start, end time.Duration, bytes int64) uint64 {
	t.next++
	t.spans = append(t.spans, span{
		TraceID: trace, SpanID: t.next, Parent: parent, Name: name, Class: class, Src: src,
		StartNs: start.Nanoseconds(), EndNs: end.Nanoseconds(), Bytes: bytes,
	})
	return t.next
}

// addLayers lays replayed spans end to end from start, under parent.
func (t *tracer) addLayers(trace, parent uint64, class string, start time.Duration, layers []layerSpan) {
	for _, l := range layers {
		id := t.add(trace, parent, l.name, class, "replay", start, start+l.dur, l.bytes)
		t.addLayers(trace, id, class, start, l.children)
		start += l.dur
	}
}

// traced runs the serial rounds and the replay, derives the per-layer
// metrics and budget lines, and writes the trace file.
func (e *env) traced() error {
	plan := e.tracePlan()
	// A plain round first, for the overhead figure; the traced one is the one
	// the spans describe. Each traced request is replayed, and its body
	// checked, before the next is sent.
	plain, _ := e.serialRound(plan, "u-", nil)
	tr := &tracer{}
	traced, err := e.serialRound(plan, "t-", func(i int, k checked) error { return e.replay(tr, uint64(i+1), plan[i], k) })
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	e.layerMetrics(tr)
	e.budgets(tr)
	e.overhead(plain, traced)
	return tr.write(filepath.Join(e.cfg.outDir, "trace-"+e.cfg.wl.name+".jsonl"))
}

// replay records one traced request's spans: the client's, what the job
// JSON says of the server's, and the layers re-executed in this process.
func (e *env) replay(tr *tracer, trace uint64, op traceOp, k checked) error {
	s, res := k.s, e.res
	class := s.class.String()
	root := tr.add(trace, 0, "client."+class, class, "client", s.start, s.end, s.bytes)
	if op.read != nil {
		out, err := e.c.replayRead(*op.read, e.cfg.wl.cold)
		if err != nil {
			return err
		}
		tr.addLayers(trace, root, class, s.start, out.spans)
		if s.class != clsRevalidate {
			if err := e.c.sameBody(k, out.body); err != nil {
				res.failed++
				res.problem("oracle: %v", err)
			}
		}
		return nil
	}
	kind, _ := uploadJob(s.job)
	out, err := auditUpload(e.c.uploads[kind][s.svc], s.name, e.scratch)
	if err != nil {
		return err
	}
	if out.hash != s.hash {
		res.failed++
		res.problem("oracle: %s stored as %.12s, the library encodes it as %.12s", s.name, s.hash, out.hash)
	}
	at := s.start
	step := func(name string, durMs float64) (uint64, time.Duration) {
		d := time.Duration(durMs * float64(time.Millisecond))
		id := tr.add(trace, root, name, class, "observed", at, at+d, 0)
		begin := at
		at += d
		return id, begin
	}
	step("server.submit", s.submitMs)
	step("server.queue_wait", s.queueMs)
	runID, runStart := step("server.run", s.runMs)
	tr.addLayers(trace, runID, class, runStart, out.spans)
	step("server.poll_lag", s.lagMs)
	tr.noteAudit(kind, out)
	return nil
}

// noteAudit collects the counts a replayed upload reports; layerMetrics
// takes their medians.
func (t *tracer) noteAudit(kind int, out auditOutcome) {
	if kind == kindWeb {
		t.note("har.records", float64(out.records))
	} else {
		t.note("netcap.records", float64(out.records))
		t.note("netcap.packets", float64(out.packets))
		t.note("netcap.undecrypted", float64(out.undecr))
	}
	t.note("store.snapshot_kb", float64(out.snapshot)/1024)
}

func (t *tracer) note(name string, v float64) {
	if t.counts == nil {
		t.counts = map[string][]float64{}
	}
	t.counts[name] = append(t.counts[name], v)
}

func p50(xs []float64) float64 {
	sort.Float64s(xs)
	return nearestRank(xs, 50)
}

// layerMetrics reports each layer's p50 time per facade call.
func (e *env) layerMetrics(tr *tracer) {
	durs := map[string][]float64{}
	rates := map[string][]float64{} // bytes (or records) per second of the call
	sizes := map[string][]float64{}
	for _, s := range tr.spans {
		if s.Src != "replay" {
			continue
		}
		d := float64(s.EndNs-s.StartNs) / 1e6
		durs[s.Name] = append(durs[s.Name], d)
		if d > 0 {
			rates[s.Name] = append(rates[s.Name], float64(s.Bytes)/(d/1000))
		}
		sizes[s.Name] = append(sizes[s.Name], float64(s.Bytes))
	}
	for name, xs := range durs {
		e.res.metrics[name+"_ms"] = p50(xs)
		e.res.n[name+"_ms"] = len(xs)
	}
	for name, xs := range tr.counts {
		e.res.metrics[name] = p50(xs)
	}
	for _, name := range []string{"har", "netcap"} {
		if xs := rates[name+".ingest"]; len(xs) > 0 {
			e.res.metrics[name+".mb_per_s"] = p50(xs) / 1e6
		}
	}
	if xs := rates["core.analyze"]; len(xs) > 0 {
		e.res.metrics["core.records_per_s"] = p50(xs)
	}
	if xs := sizes["report.json"]; len(xs) > 0 {
		e.res.metrics["report.json_kb"] = p50(xs) / 1024
	}
}

// budgets prints, per operation class, client p50 = Σ layer p50 + residual,
// and derives the residual metrics. A layer called twice in a request (the
// server decodes an upload once to guess the identity and once to audit) is
// summed per request before the p50.
func (e *env) budgets(tr *tracer) {
	type request struct {
		class  string
		client float64
		top    layerSums // direct children of the root span
		run    layerSums // direct children of server.run
	}
	byTrace := map[uint64]*request{}
	parentName := map[uint64]string{}
	for _, s := range tr.spans {
		parentName[s.SpanID] = s.Name
	}
	var reqs []*request
	for _, s := range tr.spans {
		d := float64(s.EndNs-s.StartNs) / 1e6
		if s.Parent == 0 {
			r := &request{class: s.Class, client: d}
			byTrace[s.TraceID] = r
			reqs = append(reqs, r)
			continue
		}
		switch pn := parentName[s.Parent]; {
		case strings.HasPrefix(pn, "client."):
			byTrace[s.TraceID].top.add(s.Name, d)
		case pn == "server.run":
			byTrace[s.TraceID].run.add(s.Name, d)
		}
	}
	clientP50 := map[opClass]float64{}
	for cls := opClass(0); cls < numClasses; cls++ {
		var of []*request
		for _, r := range reqs {
			if r.class == cls.String() {
				of = append(of, r)
			}
		}
		if len(of) == 0 {
			continue
		}
		collect := func(value func(*request) float64) float64 {
			xs := make([]float64, len(of))
			for i, r := range of {
				xs[i] = value(r)
			}
			return p50(xs)
		}
		// terms renders "layer p50 + layer p50 + " for one level and returns
		// the sum of the p50s.
		terms := func(sums func(*request) *layerSums, nested func(name string, v float64) string) (string, float64) {
			text, sum := "", 0.0
			first := sums(of[0])
			for _, name := range first.order {
				v := collect(func(r *request) float64 { return sums(r).ms[name] })
				sum += v
				label := name
				if first.calls[name] > 1 {
					label += fmt.Sprintf("×%d", first.calls[name])
				}
				text += fmt.Sprintf("%s %.3f%s + ", label, v, nested(name, v))
			}
			return text, sum
		}
		client := collect(func(r *request) float64 { return r.client })
		clientP50[cls] = client
		text, sum := terms(func(r *request) *layerSums { return &r.top }, func(name string, v float64) string {
			if name != "server.run" {
				return ""
			}
			inner, innerSum := terms(func(r *request) *layerSums { return &r.run }, func(string, float64) string { return "" })
			return fmt.Sprintf(" [%sresidual %.3f]", inner, v-innerSum)
		})
		e.res.budget = append(e.res.budget, fmt.Sprintf("budget %-10s client p50 %8.3f ms = %sresidual %.3f  (n=%d)", cls, client, text, client-sum, len(of)))
		if cls == clsSnapshot {
			e.res.metrics["server.read_residual_ms"] = client - sum
		}
	}
	if gz, ok := clientP50[clsReportGz]; ok {
		e.res.metrics["server.gzip_ms"] = gz - clientP50[clsReportID]
	}
	// What a job's run time holds beyond the replayed layers, per job, over
	// both kinds: scheduling, file staging reads, journal state writes.
	var resid []float64
	for _, r := range reqs {
		if run, ok := r.top.ms["server.run"]; ok {
			inner := 0.0
			for _, v := range r.run.ms {
				inner += v
			}
			resid = append(resid, run-inner)
		}
	}
	if len(resid) > 0 {
		e.res.metrics["server.run_residual_ms"] = p50(resid)
	}
}

// layerSums adds up one request's spans by layer name, remembering first-seen
// order and how often each layer was called.
type layerSums struct {
	ms    map[string]float64
	calls map[string]int
	order []string
}

func (l *layerSums) add(name string, ms float64) {
	if l.ms == nil {
		l.ms, l.calls = map[string]float64{}, map[string]int{}
	}
	if l.calls[name] == 0 {
		l.order = append(l.order, name)
	}
	l.ms[name] += ms
	l.calls[name]++
}

// overhead compares the traced round's client p50 per class with the
// untraced serial round of the same operations.
func (e *env) overhead(plain, traced []sample) {
	byClass := func(ss []sample) map[opClass][]float64 {
		m := map[opClass][]float64{}
		for _, s := range ss {
			if s.ok {
				m[s.class] = append(m[s.class], clientMs(s))
			}
		}
		return m
	}
	a, b := byClass(plain), byClass(traced)
	var pcts []float64
	for cls := opClass(0); cls < numClasses; cls++ {
		if len(a[cls]) == 0 || len(b[cls]) == 0 {
			continue
		}
		pa, pb := p50(a[cls]), p50(b[cls])
		pct := (pb - pa) / pa * 100
		pcts = append(pcts, pct)
		e.res.budget = append(e.res.budget, fmt.Sprintf("tracing overhead %-10s untraced p50 %8.3f ms, traced %8.3f ms (%+.1f%%, n=%d)", cls, pa, pb, pct, len(b[cls])))
	}
	if len(pcts) > 0 {
		e.res.metrics["trace.overhead_pct"] = median(pcts)
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
