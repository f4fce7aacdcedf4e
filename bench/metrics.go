package main

import "encoding/json"

// metricDef declares one metric: BENCHMARK.json lists exactly these, and a
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef declares one workload and what its generic metric names mean
// on it: which lane's operations ops_per_s counts, and which operation
// classes primary_p50_ms and secondary_p50_ms time.
type workloadDef struct {
	name      string
	why       string
	uploads   bool // one client runs the upload loop
	reads     bool // the remaining clients (all of them, without uploads) run the read mix
	cold      bool // reads sweep a working set nine times the cache
	cacheMB   int  // -cache-mb (0: the server's default, 64)
	primary   opClass
	secondary opClass
}

var workloads = []workloadDef{
	{
		name: "upload", uploads: true, primary: clsWeb, secondary: clsMobile,
		why: "1 serial client alternating web-HAR and mobile-pcapng jobs, unique names: only har, netcap, core analysis, staging, journal and store put work. ops=audits, primary=web job, secondary=mobile job",
	},
	{
		name: "read-warm", reads: true, primary: clsSnapshot, secondary: clsDiff,
		why: "nproc readers, Zipf over 600 stored snapshots (18 MB) that fit the 64 MiB cache: every read hits, so JSON render and gzip are the work. ops=reads, primary=snapshot GET, secondary=full diff",
	},
	{
		name: "read-cold", reads: true, cold: true, cacheMB: 2, primary: clsSnapshot, secondary: clsDiff,
		why: "same 600 snapshots and mix, swept cyclically with -cache-mb 2 (a ninth of them): every read resolves, maps, decodes and renders; the bypass for cache-side gains. Metrics mean what they do on read-warm",
	},
	{
		name: "mixed", uploads: true, reads: true, primary: clsSnapshot, secondary: clsWeb,
		why: "1 upload lane beside nproc-1 warm readers on one store, journal dir and CPU: a read gain paid for by writes shows here. ops=reads, primary=snapshot GET, secondary=web job beside the readers",
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runSeconds is how long one run measures under the gate.
const runSeconds = 20

// endToEnd are the gated metrics. Every workload reports every one of them,
// so their names are generic; workloadDef says what each means per workload.
// A bound is the share of the parent's median a metric may worsen by. They
// are three times the widest spread (interquartile range over median of ten
// runs on ten seeds) seen on the 2-vCPU reference VM, whose own speed drifts
// by ±10% between runs; SPREAD.md has the measurements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "primary_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "secondary_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "stored_kb_per_snapshot", Unit: "KB", Better: "lower", Bound: 0.01},
}

// perLayer are the ungated metrics of the traced run. A metric a workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	// Under the workload's real load (client spans, job JSON, healthz, /proc).
	{Name: "audits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "reads_per_s", Unit: "1/s", Better: "higher"},
	{Name: "web_done_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "mobile_done_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "report_gz_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "diff_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "diff_child_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "server.ready_ms", Unit: "ms", Better: "lower"},
	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.poll_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "server.done_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "server.snapshot_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.revalidate_ms", Unit: "ms", Better: "lower"},
	{Name: "server.csv_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "server.cache_coalesced", Unit: "count", Better: "higher"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "server.breaker_trips", Unit: "count", Better: "lower"},
	{Name: "server.restart_ready_ms", Unit: "ms", Better: "lower"},
	{Name: "server.recovered_jobs", Unit: "count", Better: "higher"},
	{Name: "proc.user_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.sys_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.ctxsw_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.write_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "proc.syscw_per_op", Unit: "count", Better: "lower"},
	// From the serial traced round and its in-process replay, one facade
	// call per span (p50 per call).
	{Name: "har.ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "har.records", Unit: "count", Better: "higher"},
	{Name: "har.mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "netcap.ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "netcap.packets", Unit: "count", Better: "higher"},
	{Name: "netcap.records", Unit: "count", Better: "higher"},
	{Name: "netcap.mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "netcap.undecrypted", Unit: "count", Better: "lower"},
	{Name: "core.identity_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "core.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "store.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_kb", Unit: "KB", Better: "lower"},
	{Name: "store.list_ms", Unit: "ms", Better: "lower"},
	{Name: "store.get_ms", Unit: "ms", Better: "lower"},
	{Name: "store.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "report.json_ms", Unit: "ms", Better: "lower"},
	{Name: "report.json_kb", Unit: "KB", Better: "lower"},
	{Name: "report.csv_ms", Unit: "ms", Better: "lower"},
	{Name: "report.diffjson_ms", Unit: "ms", Better: "lower"},
	{Name: "linkability.index_ms", Unit: "ms", Better: "lower"},
	{Name: "server.run_residual_ms", Unit: "ms", Better: "lower"},
	{Name: "server.read_residual_ms", Unit: "ms", Better: "lower"},
	{Name: "server.gzip_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	// The harness and the machine.
	{Name: "bench.build_s", Unit: "s", Better: "lower"},
	{Name: "bench.corpus_s", Unit: "s", Better: "lower"},
	{Name: "bench.generator_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "machine.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.foreign_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "machine.steal_share", Unit: "ratio", Better: "lower"},
}

// benchmarkJSON renders BENCHMARK.json from the declarations above; a test
// keeps the committed file equal to it.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is static data
	}
	return append(out, '\n')
}
