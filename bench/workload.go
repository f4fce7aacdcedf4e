package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"diffaudit"
)

const (
	// measuredRounds is how many back-to-back rounds a run measures. Every
	// metric is computed per round and the run reports the median round; if
	// the time allowed shrinks, the rounds get shorter, not fewer.
	measuredRounds = 8
	// setupReps is how often a run sets the server up (start, ready, warm-up
	// pass); setup_s is the median.
	setupReps = 3
	// probeJobs is the size of the durability probe.
	probeJobs = 8
	// selfCheckPasses is how many full passes each of -selfcheck's two sets
	// makes.
	selfCheckPasses = 5
)

// runConfig is one invocation.
type runConfig struct {
	wl       *workloadDef
	seed     int64
	seconds  float64
	trace    bool
	root     string // the checkout
	buildDir string // .bench_build in it
	outDir   string // where trace files go
}

// runResult is what one invocation reports.
type runResult struct {
	metrics    map[string]float64
	n          map[string]int       // samples behind a timing, printed beside it
	rounds     map[string][]float64 // the per-round values a median of rounds was taken from
	attempted  int
	failed     int
	problems   []string // oracle and validity failures; any makes the run incorrect
	straddling []string // percentiles that sit on a cliff (see straddles)
	budget     []string // traced run: the per-class budget lines
	calibMs    float64
}

func (r *runResult) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// env is the state of a run between set-up and tear-down.
type env struct {
	cfg     runConfig
	res     *runResult
	c       *corpus
	runDir  string
	dataDir string
	bin     string
	srv     *serverProc
	drv     *driver
	epoch   time.Time
	readers int
	scratch diffaudit.SnapshotStore // the oracle's own store
	// What the preload left in the data directory, before any server ran.
	preBytes int64
	preFiles int
	nextJob  int // the upload lane's position in its job sequence
}

// laneLog is what one client goroutine recorded.
type laneLog struct {
	uploads bool
	samples []sample
}

func run(cfg runConfig) (*runResult, error) {
	res := &runResult{metrics: map[string]float64{}, n: map[string]int{}, rounds: map[string][]float64{}}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	e := &env{cfg: cfg, res: res, runDir: runDir, dataDir: preloadDir(runDir), epoch: time.Now()}
	defer func() {
		if e.srv != nil {
			e.srv.kill()
		}
	}()

	var buildS float64
	if e.bin, buildS, err = buildServer(cfg.root, cfg.buildDir); err != nil {
		return nil, err
	}
	res.metrics["bench.build_s"] = buildS
	calib := []float64{calibrate()}

	start := time.Now()
	if e.c, err = newCorpus(cfg.seed, runDir, cfg.wl); err != nil {
		return nil, err
	}
	if cfg.wl.uploads {
		if e.scratch, err = diffaudit.OpenSnapshotStore(filepath.Join(runDir, "oracle-store")); err != nil {
			return nil, err
		}
	}
	res.metrics["bench.corpus_s"] = time.Since(start).Seconds()
	if cfg.wl.reads {
		if e.preBytes, e.preFiles, err = snapFiles(e.dataDir); err != nil {
			return nil, err
		}
	}

	e.readers = 0
	if cfg.wl.reads {
		e.readers = runtime.NumCPU()
		if cfg.wl.uploads {
			e.readers = max(1, runtime.NumCPU()-1)
		}
	}

	if err := e.setUp(); err != nil {
		return nil, err
	}

	rounds := measuredRounds
	seconds := cfg.seconds
	if cfg.trace {
		// The traced run spends half its time under the workload's real load
		// (per-class latencies, healthz and /proc deltas) and the rest on the
		// serial rounds and their replay.
		rounds, seconds = measuredRounds/2, cfg.seconds/2
	}
	m, err := e.measure(rounds, seconds)
	if err != nil {
		return nil, err
	}
	e.report(m)
	if cfg.trace {
		if err := e.traced(); err != nil {
			return nil, err
		}
	}
	if cfg.wl.uploads {
		if err := e.afterUploads(); err != nil {
			return nil, err
		}
	}
	e.drv.close()
	e.srv.stop()
	e.srv = nil

	calib = append(calib, calibrate())
	res.calibMs = (calib[0] + calib[1]) / 2
	res.metrics["machine.calib_ms"] = res.calibMs
	return res, nil
}

// startOn starts a server on dataDir and a driver for it.
func (e *env) startOn(dataDir string) error {
	srv, err := startServer(e.bin, dataDir, filepath.Join(e.runDir, "server.log"), e.cfg.wl.cacheMB)
	if err != nil {
		return err
	}
	e.srv = srv
	e.drv = newDriver(srv.base, e.c, max(1, runtime.NumCPU()), e.epoch)
	return nil
}

// setUp brings the server to the state measurement starts from, setupReps
// times over, and reports the median duration as setup_s: process exec to
// first healthy answer (journal recovery, store rescan) plus a fixed warm-up
// pass (every stored snapshot read once, one full cycle of uploads). The
// last server keeps running. Bodies kept during the pass are checked
// against the oracle afterwards, off the clock.
func (e *env) setUp() error {
	var took []float64
	for rep := 0; rep < setupReps; rep++ {
		dataDir := e.dataDir
		if !e.cfg.wl.reads {
			// An upload-only server always starts on an empty directory.
			dataDir = fmt.Sprintf("%s-%d", e.dataDir, rep)
		}
		if err := e.startOn(dataDir); err != nil {
			return err
		}
		start := time.Now()
		kept, jobs := e.warmUp(rep)
		took = append(took, e.srv.readyMs/1000+time.Since(start).Seconds())
		if rep < setupReps-1 {
			e.drv.close()
			e.srv.stop()
			e.srv = nil
			continue
		}
		e.dataDir = dataDir
		e.res.metrics["server.ready_ms"] = e.srv.readyMs
		for _, k := range kept {
			e.res.attempted++
			if err := e.c.checkRead(k); err != nil {
				e.res.failed++
				e.res.problem("oracle: %v", err)
			}
		}
		e.checkJobs(jobs)
	}
	e.res.metrics["setup_s"] = median(took)
	return nil
}

// warmUp is the fixed warm-up pass of one set-up.
func (e *env) warmUp(rep int) (kept []checked, jobs []checked) {
	if e.cfg.wl.reads {
		// Every stored snapshot once, in seeded order, classes following the
		// read mix; every seventh body is kept for the oracle (7 and the
		// 10-long mix are coprime, so every class gets checked).
		order := rand.New(rand.NewSource(e.cfg.seed*1_000_003 + 11)).Perm(numServices * numVersions)
		// First, serially and in an order no seed changes, three versions
		// of every service. The server interns the symbols of what it
		// decodes into process-wide tables, in order of first sight, and
		// what a later decode, diff or render costs depends on that order
		// by up to 30% (measured: the same 600 snapshots, first read in two
		// different random orders, serve a cold full diff at a p50 of 2.2
		// or of 3.0 ms for the whole life of the process). A seeded first
		// touch would make every seed a different server. Three versions,
		// because each lacks a seeded 3% of the records and so of the
		// symbols; hardly any symbol is missing from all three.
		for ver := 0; ver < 3; ver++ {
			for svc := 0; svc < numServices; svc++ {
				s, _ := e.drv.doRead(readOp{class: clsSnapshot, t: target{svc, ver}}, nil)
				e.count(s)
			}
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		clients := runtime.NumCPU() // the pass is not bound to the lanes measured later
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for i := cl; i < len(order); i += clients {
					op := readOp{class: readPattern[i%len(readPattern)], t: target{order[i] / numVersions, order[i] % numVersions}}
					if (op.class == clsDiff || op.class == clsDiffChild) && op.t.ver >= numVersions-1 {
						op.t.ver = numVersions - 2
					}
					var into *bytes.Buffer
					if i%7 == 0 {
						into = new(bytes.Buffer)
					}
					s, body := e.drv.doRead(op, into)
					done := []sample{s}
					if op.class == clsRevalidate || op.class == clsDiffChild {
						// Neither leaves its snapshot in the cache (a 304
						// decodes nothing, a partial decode is not kept), and
						// the pass is to leave every snapshot touched.
						warm, _ := e.drv.doRead(readOp{class: clsSnapshot, t: op.t}, nil)
						done = append(done, warm)
					}
					mu.Lock()
					for _, d := range done {
						e.count(d)
					}
					if into != nil && s.ok {
						kept = append(kept, checked{s, body})
					}
					mu.Unlock()
				}
			}(cl)
		}
		wg.Wait()
	}
	if e.cfg.wl.uploads {
		seen := map[[2]int]bool{}
		for k := 0; k < uploadCycle; k++ {
			s := e.drv.runJob(fmt.Sprintf("w%d-", rep), k)
			e.count(s)
			kind, _ := uploadJob(k)
			if s.ok && !seen[[2]int{s.svc, kind}] {
				seen[[2]int{s.svc, kind}] = true
				body, err := e.drv.fetchReport(s.jobID)
				if err != nil {
					e.res.failed++
					e.res.problem("oracle: %v", err)
					continue
				}
				jobs = append(jobs, checked{s, body})
			}
		}
	}
	return kept, jobs
}

// checkJobs verifies uploaded jobs against an in-process audit of the same
// captures under the same name: same report bytes, same content hash.
func (e *env) checkJobs(jobs []checked) {
	for _, j := range jobs {
		kind, _ := uploadJob(j.s.job)
		want, err := auditUpload(e.c.uploads[kind][j.s.svc], j.s.name, e.scratch)
		e.res.attempted++
		switch {
		case err != nil:
			e.res.failed++
			e.res.problem("%v", err)
		case string(want.report) != string(j.body):
			e.res.failed++
			e.res.problem("oracle: report.json of %s (%s): served %d bytes differ from the library's %d", j.s.jobID, j.s.name, len(j.body), len(want.report))
		case want.hash != j.s.hash:
			e.res.failed++
			e.res.problem("oracle: %s stored as %.12s, the library encodes it as %.12s", j.s.name, j.s.hash, want.hash)
		}
	}
}

// count books one operation into attempted/failed.
func (e *env) count(s sample) {
	e.res.attempted++
	if !s.ok {
		e.res.failed++
		if len(e.res.problems) < 8 {
			e.res.problem("%s failed: %s", s.class, s.err)
		}
	}
}

// measurement is the raw record of the measured rounds.
type measurement struct {
	rounds int
	bounds []time.Duration // rounds+1 offsets from the epoch
	lanes  []*laneLog
	procs  []procSample // server, at every bound
	self   [2]float64   // harness CPU ms at first and last bound
	host   [2]hostCPU   // the whole machine's, likewise
	h0, h1 health
}

// measure runs the workload's lanes for rounds × (seconds/rounds) and
// samples the server process at every round boundary. Closed loop: each
// client sends its next request when the previous one has completed.
func (e *env) measure(rounds int, seconds float64) (*measurement, error) {
	m := &measurement{rounds: rounds}
	var err error
	if m.h0, err = getHealth(e.drv.hc, e.srv.base); err != nil {
		return nil, err
	}
	roundDur := time.Duration(seconds / float64(rounds) * float64(time.Second))
	t0 := e.drv.since()
	for i := 0; i <= rounds; i++ {
		m.bounds = append(m.bounds, t0+time.Duration(i)*roundDur)
	}
	end := m.bounds[rounds]

	var wg sync.WaitGroup
	if e.cfg.wl.uploads {
		log := &laneLog{uploads: true}
		m.lanes = append(m.lanes, log)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Past the end the lane finishes its current cycle of jobs, so
			// what is on disk afterwards is whole cycles and bytes per
			// snapshot does not depend on where the clock cut the last one.
			for e.drv.since() < end || e.nextJob%uploadCycle != 0 {
				log.samples = append(log.samples, e.drv.runJob("m-", e.nextJob))
				e.nextJob++
			}
		}()
	}
	for r := 0; r < e.readers; r++ {
		log := &laneLog{}
		m.lanes = append(m.lanes, log)
		sched := newReadSchedule(e.cfg.seed, r, e.readers, e.c.readSlots, e.cfg.wl.cold)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e.drv.since() < end {
				s, _ := e.drv.doRead(sched.next(), nil)
				log.samples = append(log.samples, s)
			}
		}()
	}

	for i := 0; i <= rounds; i++ {
		time.Sleep(m.bounds[i] - e.drv.since())
		p, err := readProc(e.srv.pid())
		if err != nil {
			return nil, err
		}
		m.procs = append(m.procs, p)
		if i == 0 || i == rounds {
			m.self[min(i, 1)] = selfCPUMs()
			m.host[min(i, 1)] = readHostCPU()
		}
	}
	if m.h1, err = getHealth(e.drv.hc, e.srv.base); err != nil {
		return nil, err
	}
	wg.Wait()
	for _, l := range m.lanes {
		for _, s := range l.samples {
			e.count(s)
		}
	}
	return m, nil
}

func selfCPUMs() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// roundOf returns the measured round an offset falls in, or -1.
func (m *measurement) roundOf(t time.Duration) int {
	if t < m.bounds[0] || t >= m.bounds[m.rounds] {
		return -1
	}
	return int((t - m.bounds[0]) * time.Duration(m.rounds) / (m.bounds[m.rounds] - m.bounds[0]))
}

// rate is the throughput of the chosen lanes per round, summed over their
// clients. A client's rate in a round runs from its last completion before
// the round to its last completion in it — completion to completion, so a
// round is not credited or debited the operation its boundary cuts in two.
func (m *measurement) rate(uploads bool) []float64 {
	out := make([]float64, m.rounds)
	for _, l := range m.lanes {
		if l.uploads != uploads || len(l.samples) == 0 {
			continue
		}
		n := make([]int, m.rounds)
		last := make([]time.Duration, m.rounds)
		for _, s := range l.samples {
			if r := m.roundOf(s.end); r >= 0 {
				if s.ok {
					n[r]++
				}
				last[r] = max(last[r], s.end)
			}
		}
		prev := l.samples[0].start
		for _, s := range l.samples {
			if s.end < m.bounds[0] {
				prev = max(prev, s.end)
			}
		}
		for r := 0; r < m.rounds; r++ {
			if last[r] > prev {
				out[r] += float64(n[r]) / (last[r] - prev).Seconds()
				prev = last[r]
			}
		}
	}
	return out
}

// latencies returns the successful latencies (ms) of one class, per round
// and pooled, each ascending.
func (m *measurement) latencies(cls opClass, of func(sample) float64) (perRound [][]float64, pooled []float64) {
	perRound = make([][]float64, m.rounds)
	for _, l := range m.lanes {
		for _, s := range l.samples {
			if s.class != cls || !s.ok {
				continue
			}
			if r := m.roundOf(s.end); r >= 0 {
				v := of(s)
				perRound[r] = append(perRound[r], v)
				pooled = append(pooled, v)
			}
		}
	}
	for _, xs := range perRound {
		sort.Float64s(xs)
	}
	sort.Float64s(pooled)
	return perRound, pooled
}

func clientMs(s sample) float64 { return ms(s.end - s.start) }

// percentile summarises one class's latency over the run: the median of the
// per-round nearest-rank percentiles where rounds carry it (ten samples
// beyond the rank), else the pooled percentile, else NaN. It records the
// sample count and runs the cliff check.
func (e *env) percentile(m *measurement, name string, cls opClass, p float64, pool bool) float64 {
	perRound, pooled := m.latencies(cls, clientMs)
	e.res.n[name] = len(pooled)
	if !supported(len(pooled), p) {
		return math.NaN()
	}
	if straddles(pooled, p) {
		e.res.straddling = append(e.res.straddling, name)
	}
	if !pool {
		vals := make([]float64, m.rounds)
		for r, xs := range perRound {
			vals[r] = math.NaN()
			if supported(len(xs), p) {
				vals[r] = nearestRank(xs, p)
			}
		}
		if v := medianOfRounds(vals); !math.IsNaN(v) {
			e.res.rounds[name] = vals
			return v
		}
	}
	return nearestRank(pooled, p)
}

// report turns the measured rounds into metrics: the end-to-end set and the
// under-load part of the per-layer set. (Both are computed on every run;
// which of them the result line carries is the caller's business.)
func (e *env) report(m *measurement) {
	res, wl := e.res, e.cfg.wl
	set := func(name string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			res.metrics[name] = v
		}
	}
	// An "op" is what ops_per_s counts: a read wherever the workload reads,
	// else an audit. Every per-op figure divides by the same count.
	okOps := make([]float64, m.rounds)
	attempted, failed := 0, 0
	for _, l := range m.lanes {
		for _, s := range l.samples {
			if r := m.roundOf(s.end); r >= 0 {
				attempted++
				if !s.ok {
					failed++
				} else if l.uploads != wl.reads {
					okOps[r]++
				}
			}
		}
	}
	perOp := func(name string, of func(procSample) float64) float64 {
		vals := make([]float64, m.rounds)
		for r := range vals {
			vals[r] = (of(m.procs[r+1]) - of(m.procs[r])) / okOps[r]
		}
		res.rounds[name] = vals
		return median(vals)
	}
	auditRate, readRate := m.rate(true), m.rate(false)
	audits, reads := median(auditRate), median(readRate)

	// The generic end-to-end names; workloadDef says what they mean here.
	if wl.reads {
		set("ops_per_s", reads)
		res.rounds["ops_per_s"] = readRate
	} else {
		set("ops_per_s", audits)
		res.rounds["ops_per_s"] = auditRate
	}
	set("primary_p50_ms", e.percentile(m, "primary_p50_ms", wl.primary, 50, false))
	set("secondary_p50_ms", e.percentile(m, "secondary_p50_ms", wl.secondary, 50, false))
	set("cpu_ms_per_op", perOp("cpu_ms_per_op", func(p procSample) float64 { return p.UserMs + p.SysMs }))
	set("peak_rss_mb", m.procs[m.rounds].HWMKB/1024)
	if !wl.uploads {
		// Upload lanes weigh the store after their last cycle of jobs has
		// drained (afterUploads).
		e.weighStore()
	}

	set("audits_per_s", audits)
	set("reads_per_s", reads)
	if attempted > 0 {
		set("failed_share", float64(failed)/float64(attempted))
	}
	for _, q := range []struct {
		name string
		cls  opClass
		p    float64
		pool bool
	}{
		{"web_done_p50_ms", clsWeb, 50, false},
		{"mobile_done_p50_ms", clsMobile, 50, false},
		{"snapshot_p50_ms", clsSnapshot, 50, false},
		{"snapshot_p95_ms", clsSnapshot, 95, true},
		{"report_gz_p50_ms", clsReportGz, 50, false},
		{"diff_p50_ms", clsDiff, 50, false},
		{"diff_child_p50_ms", clsDiffChild, 50, false},
		{"server.snapshot_p99_ms", clsSnapshot, 99, true},
		{"server.revalidate_ms", clsRevalidate, 50, false},
		{"server.csv_ms", clsCSV, 50, false},
	} {
		set(q.name, e.percentile(m, q.name, q.cls, q.p, q.pool))
	}
	// Timings of the job as such pool web and mobile jobs: they describe the
	// queue, the journal and the tail, not a decoder.
	jobs := func(name string, p float64, of func(sample) float64) {
		_, web := m.latencies(clsWeb, of)
		_, mob := m.latencies(clsMobile, of)
		all := append(web, mob...)
		sort.Float64s(all)
		res.n[name] = len(all)
		if supported(len(all), p) {
			set(name, nearestRank(all, p))
		}
	}
	jobs("server.done_p95_ms", 95, clientMs)
	jobs("server.submit_ms", 50, func(s sample) float64 { return s.submitMs })
	jobs("server.queue_wait_ms", 50, func(s sample) float64 { return s.queueMs })
	jobs("server.run_ms", 50, func(s sample) float64 { return s.runMs })
	jobs("server.poll_lag_ms", 50, func(s sample) float64 { return s.lagMs })

	if gets := (m.h1.Cache.Hits - m.h0.Cache.Hits) + (m.h1.Cache.Misses - m.h0.Cache.Misses); gets > 0 {
		set("server.cache_hit_ratio", (m.h1.Cache.Hits-m.h0.Cache.Hits)/gets)
	}
	set("server.cache_evictions", m.h1.Cache.Evictions-m.h0.Cache.Evictions)
	set("server.cache_coalesced", m.h1.Cache.Coalesced-m.h0.Cache.Coalesced)
	set("server.shed", m.h1.Admission.Shed+m.h1.Admission.RateLimited)
	set("server.breaker_trips", m.h1.Breaker.Trips)
	set("proc.user_ms_per_op", perOp("proc.user_ms_per_op", func(p procSample) float64 { return p.UserMs }))
	set("proc.sys_ms_per_op", perOp("proc.sys_ms_per_op", func(p procSample) float64 { return p.SysMs }))
	set("proc.ctxsw_per_op", perOp("proc.ctxsw_per_op", func(p procSample) float64 { return p.CtxSw }))
	set("proc.write_kb_per_op", perOp("proc.write_kb_per_op", func(p procSample) float64 { return p.WriteKB }))
	set("proc.syscw_per_op", perOp("proc.syscw_per_op", func(p procSample) float64 { return p.SysCW }))
	first, last := m.procs[0], m.procs[m.rounds]
	server, self := (last.UserMs+last.SysMs)-(first.UserMs+first.SysMs), m.self[1]-m.self[0]
	if server+self > 0 {
		set("bench.generator_cpu_share", self/(server+self))
	}
	// What the machine spent on neither the server nor the harness, and what
	// the hypervisor withheld, as shares of the CPU time there was: a run
	// disturbed from outside shows here, none of its metrics is corrected.
	if capacity := m.host[1].totalMs - m.host[0].totalMs; capacity > 0 {
		set("machine.foreign_cpu_share", max(0, (m.host[1].busyMs-m.host[0].busyMs)-server-self)/capacity)
		set("machine.steal_share", (m.host[1].stealMs-m.host[0].stealMs)/capacity)
	}

	// The workloads' own validity: the warm one must hit, the cold one must
	// not, and nothing may have been shed or tripped.
	if wl.reads {
		ratio := res.metrics["server.cache_hit_ratio"]
		if wl.cold && ratio > 0.02 {
			res.problem("read-cold is not cold: cache hit ratio %.3f > 0.02", ratio)
		}
		if !wl.cold && ratio < 0.99 {
			res.problem("%s is not warm: cache hit ratio %.3f < 0.99", wl.name, ratio)
		}
	}
	if res.metrics["server.shed"] > 0 || res.metrics["server.breaker_trips"] > 0 {
		res.problem("server shed %v requests and tripped its breaker %v times", res.metrics["server.shed"], res.metrics["server.breaker_trips"])
	}
}

// weighStore sets stored_kb_per_snapshot: bytes of snapshot files under the
// data directory over their number. Where the run uploads, only what the
// server itself stored counts — whole cycles of jobs, so the figure does not
// move with how many jobs the run got through; where it only reads, the
// preloaded store is weighed.
func (e *env) weighStore() {
	bytes, files, err := snapFiles(e.dataDir)
	if e.cfg.wl.uploads {
		bytes, files = bytes-e.preBytes, files-e.preFiles
	}
	if err != nil || files <= 0 {
		e.res.problem("weighing %s: %d snapshot files, %v", e.dataDir, files, err)
		return
	}
	e.res.metrics["stored_kb_per_snapshot"] = float64(bytes) / 1024 / float64(files)
}

// afterUploads runs once the upload lane has stopped: the journal must have
// drained, the store is weighed, and the durability probe crashes the server
// with acknowledged jobs in flight.
func (e *env) afterUploads() error {
	// A client can see "done" a moment before the worker has tombstoned the
	// job's journal entry; give that moment, not more.
	var err error
	for wait := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if err = checkJournalDrained(e.dataDir); err == nil || time.Now().After(wait) {
			break
		}
	}
	if err != nil {
		e.res.problem("%v", err)
	}
	e.weighStore()
	return e.durabilityProbe()
}

// durabilityProbe submits probeJobs jobs without waiting for them, SIGKILLs
// the server the moment the last 202 arrives, restarts it on the same data
// directory and requires every acknowledged job to finish with the snapshot
// hash an uninterrupted audit produces. A job the server acknowledged and
// then lost is a failed operation.
func (e *env) durabilityProbe() error {
	var acked []sample
	for k := 0; k < probeJobs; k++ {
		s, err := e.drv.submit("p-", k)
		e.res.attempted++
		if err != nil {
			e.res.failed++
			e.res.problem("durability probe: submit: %v", err)
			continue
		}
		acked = append(acked, s)
	}
	e.srv.kill()
	e.drv.close()
	if err := e.startOn(e.dataDir); err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	e.res.metrics["server.restart_ready_ms"] = e.srv.readyMs

	recovered := 0
	for i := range acked {
		s := &acked[i]
		kind, _ := uploadJob(s.job)
		want, err := auditUpload(e.c.uploads[kind][s.svc], s.name, e.scratch)
		if err != nil {
			return err
		}
		if err := e.drv.await(s); err == nil {
			// The restarted server knows the job: it came back from the journal.
			recovered++
		} else if s.hash, err = e.storedHash(s.jobID); err != nil {
			// Not in memory is fine if the job had finished before the kill:
			// then its snapshot is in the store under its job ID.
			e.res.failed++
			e.res.problem("durability probe: acknowledged job %s (%s) lost: %v", s.jobID, s.name, err)
			continue
		}
		if s.hash != want.hash {
			e.res.failed++
			e.res.problem("durability probe: job %s stored as %.12s after the crash, uninterrupted it is %.12s", s.jobID, s.hash, want.hash)
		}
	}
	e.res.metrics["server.recovered_jobs"] = float64(recovered)
	return nil
}

// storedHash finds the hash of the snapshot stored for a job ID in the
// server's snapshot listing.
func (e *env) storedHash(jobID string) (string, error) {
	resp, err := e.drv.hc.Get(e.drv.base + "/v1/snapshots")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var list struct {
		Snapshots []diffaudit.SnapshotMeta `json:"snapshots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return "", err
	}
	for _, m := range list.Snapshots {
		if m.JobID == jobID {
			return m.Hash, nil
		}
	}
	return "", fmt.Errorf("no stored snapshot for %s among %d", jobID, len(list.Snapshots))
}

// calibrate times a fixed SHA-256 kernel on every CPU at once. It is printed
// with each run so that a slow phase of the machine is visible as such; it
// never rescales a metric.
func calibrate() float64 {
	const blocks = 6000 // × 64 KiB per thread: about 0.4 s on the reference box
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < runtime.NumCPU(); t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			buf[0] = byte(t)
			for i := 0; i < blocks; i++ {
				sum := sha256.Sum256(buf)
				copy(buf, sum[:])
			}
		}(t)
	}
	wg.Wait()
	return ms(time.Since(start))
}
