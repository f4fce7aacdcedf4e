// Benchmark harness: one benchmark per table and figure of the DiffAudit
// paper (each regenerates the artifact end-to-end from synthetic traffic),
// plus ablation benchmarks for the design choices called out in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem
package diffaudit_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"diffaudit"
	"diffaudit/internal/ats"
	"diffaudit/internal/classifier"
	"diffaudit/internal/classifier/baselines"
	"diffaudit/internal/core"
	"diffaudit/internal/extract"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/linkability"
	"diffaudit/internal/netcap/layers"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/netcap/reassembly"
	"diffaudit/internal/ontology"
	"diffaudit/internal/report"
	"diffaudit/internal/store"
	"diffaudit/internal/synth"
)

// benchScale keeps per-iteration work bounded; the artifact shape (flows,
// destinations, linkability) is scale-invariant.
const benchScale = 0.01

// audited memoizes one full-pipeline run for the table/figure benchmarks so
// each benchmark measures its own analysis, not repeated generation.
func audited(b *testing.B) []*core.ServiceResult {
	b.Helper()
	ds := synth.Generate(synth.Config{Scale: benchScale})
	pipe := core.NewPipeline()
	var out []*core.ServiceResult
	for _, st := range ds.Services {
		out = append(out, pipe.AnalyzeRecords(st.Identity(), st.Records()))
	}
	return out
}

// BenchmarkTable1DatasetSummary regenerates the Table 1 dataset summary:
// synthesize traffic, run the pipeline, aggregate unique counts.
func BenchmarkTable1DatasetSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := audited(b)
		tot := core.Totals(results)
		if tot.Domains == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkTable2Ontology regenerates Table 2: the observed-category
// markers derived from the full dataset.
func BenchmarkTable2Ontology(b *testing.B) {
	results := audited(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := diffaudit.RenderTable2(results)
		if len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkTable3Classifier regenerates the classifier validation: the
// five-temperature sweep plus both majority-vote ensembles over the n=397
// labeled sample.
func BenchmarkTable3Classifier(b *testing.B) {
	sample := classifier.GenerateCorpus(classifier.DefaultCorpusOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := classifier.Table3(sample)
		if len(rows) != 7 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable4FlowGrid regenerates the Table 4 flow grid for all six
// services from raw records.
func BenchmarkTable4FlowGrid(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: benchScale})
	pipe := core.NewPipeline()
	recs := make([][]core.RequestRecord, len(ds.Services))
	for i, st := range ds.Services {
		recs[i] = st.Records()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, st := range ds.Services {
			res := pipe.AnalyzeRecords(st.Identity(), recs[j])
			if core.Grid(res) == nil {
				b.Fatal("nil grid")
			}
		}
	}
}

// BenchmarkTable5OntologyRender regenerates the full ontology listing.
func BenchmarkTable5OntologyRender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(diffaudit.RenderTable5()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFigure3Linkability regenerates the linkable-third-party counts
// per service and trace category.
func BenchmarkFigure3Linkability(b *testing.B) {
	results := audited(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			for _, t := range flows.BuiltinPersonas() {
				linkability.CountLinkable(r.ByTrace[t])
			}
		}
	}
}

// BenchmarkFigure4LinkableSets regenerates the largest linkable set sizes.
func BenchmarkFigure4LinkableSets(b *testing.B) {
	results := audited(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			for _, t := range flows.BuiltinPersonas() {
				linkability.LargestSet(r.ByTrace[t])
			}
		}
	}
}

// BenchmarkFigure5TopATS regenerates the top ATS organization ranking.
func BenchmarkFigure5TopATS(b *testing.B) {
	results := audited(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			for _, t := range flows.BuiltinPersonas() {
				linkability.TopATSOrgs(r.ByTrace[t], 10)
			}
		}
	}
}

// BenchmarkFigure1PipelineEndToEnd measures the full Figure 1 pipeline for
// one service from capture bytes, read as uploads are: HAR decode + PCAP
// reassembly/decryption + extraction + classification + flow construction.
func BenchmarkFigure1PipelineEndToEnd(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: 0.002})
	st := ds.Service("TikTok")
	var harBufs [][]byte
	var pcapBufs [][]byte
	for _, tc := range flows.BuiltinPersonas() {
		data, err := st.EmitHAR(tc).Marshal()
		if err != nil {
			b.Fatal(err)
		}
		harBufs = append(harBufs, data)
		capt, err := st.EmitPCAP(tc)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pcapio.WritePcapng(&buf, capt); err != nil {
			b.Fatal(err)
		}
		pcapBufs = append(pcapBufs, buf.Bytes())
	}
	pipe := core.NewPipeline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var srcs []core.RecordSource
		for ti, tc := range flows.BuiltinPersonas() {
			srcs = append(srcs, core.NewHARSource(har.NewStreamDecoder(bytes.NewReader(harBufs[ti])), tc))
			rd, err := pcapio.NewReader(bytes.NewReader(pcapBufs[ti]))
			if err != nil {
				b.Fatal(err)
			}
			srcs = append(srcs, core.NewPCAPSource(context.Background(), rd, nil, tc))
		}
		res, err := pipe.AnalyzeStream(st.Identity(), core.MultiSource(srcs...))
		if err != nil {
			b.Fatal(err)
		}
		if res.ByTrace[flows.Child].Len() == 0 {
			b.Fatal("no flows")
		}
	}
}

// BenchmarkFigure2Classification measures the classification subsystem of
// Figure 2: the majority-vote ensemble over a realistic key mix.
func BenchmarkFigure2Classification(b *testing.B) {
	ens := classifier.NewEnsemble(classifier.MajorityAvg)
	keys := []string{
		"user_id", "advertising_id", "gps_lat", "IsOptOutEmailShown",
		"pers_ad_show_third_part_measurement", "os", "rtt", "watch_time",
		"qzx81a", "device.hw.model",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens.Classify(keys[i%len(keys)])
	}
}

// BenchmarkBaselineClassifiers measures the four baseline classifiers the
// paper compares against (Appendix C.2), reporting each one's validation
// accuracy as a custom metric.
func BenchmarkBaselineClassifiers(b *testing.B) {
	sample := classifier.GenerateCorpus(classifier.DefaultCorpusOptions())
	cases := []struct {
		name string
		l    classifier.Labeler
	}{
		{"tfidf", baselines.NewTFIDF()},
		{"bertish", baselines.NewBERTish()},
		{"zeroshot", baselines.NewZeroShot()},
		{"fewshot", baselines.NewFewShot()},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.l.Classify(sample[i%len(sample)].Key)
			}
			b.ReportMetric(classifier.Validate(c.name, c.l, sample).Accuracy, "accuracy")
		})
	}
}

// ---- Hot-path micro-benchmarks (interned flow core) -----------------------

// BenchmarkFlowSetAdd measures flow accumulation — the pipeline's inner
// loop. Symbols are interned once up front, as they are by the label cache
// and destination memo, so steady-state Add is a single packed-key map
// operation.
func BenchmarkFlowSetAdd(b *testing.B) {
	catNames := []string{"Aliases", "Age", "Language", "Contact Information", "Location Time"}
	var fl []diffaudit.Flow
	for _, n := range catNames {
		c, ok := ontology.Lookup(n)
		if !ok {
			b.Fatalf("unknown category %q", n)
		}
		for i, cls := range flows.DestClasses() {
			fl = append(fl, diffaudit.Flow{
				Category: c,
				Dest:     diffaudit.Destination{FQDN: fmt.Sprintf("host-%d.example", i), Class: cls},
			})
		}
	}
	set := flows.NewTable().NewSet(len(fl))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Add(fl[i%len(fl)], flows.Platform(i%2))
	}
	if set.Len() == 0 {
		b.Fatal("empty set")
	}
}

// BenchmarkLinkabilityIndex measures the single-pass index build that
// serves all Figure 3-5 statistics, over a realistic audited trace.
func BenchmarkLinkabilityIndex(b *testing.B) {
	results := audited(b)
	set := results[0].ByTrace[flows.Adult]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := linkability.NewIndex(set)
		if ix.CountLinkable() == 0 {
			b.Fatal("no linkable parties")
		}
	}
}

// BenchmarkResolveDestination measures raw destination classification
// (eSLD extraction, entity lookup, block-list walk) — the cold path the
// pipeline's memo amortizes away.
func BenchmarkResolveDestination(b *testing.B) {
	engine := ats.Default()
	eslds := []string{"quizlet.com"}
	hosts := []string{
		"api.quizlet.com", "stats.g.doubleclick.net", "pixel.mathtag.com",
		"cdn.example.org", "deep.sub.domain.google-analytics.com",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := flows.ResolveDestination("Quizlet Inc", eslds, hosts[i%len(hosts)], engine)
		if d.FQDN == "" {
			b.Fatal("empty resolution")
		}
	}
}

// BenchmarkSnapshotEncode measures serializing one audited service result
// with the versioned snapshot codec — the write path of every Store.Put.
func BenchmarkSnapshotEncode(b *testing.B) {
	res := audited(b)[0]
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		enc := store.EncodeResult(res)
		size = len(enc)
		if size == 0 {
			b.Fatal("empty encoding")
		}
	}
	b.ReportMetric(float64(size), "snap-bytes")
}

// BenchmarkSnapshotDecode measures parsing a snapshot back into a service
// result (symbol re-interning included) — the read path of report serving
// for evicted jobs and of every /diff request.
func BenchmarkSnapshotDecode(b *testing.B) {
	enc := store.EncodeResult(audited(b)[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := store.DecodeResult(enc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ByTrace) == 0 {
			b.Fatal("empty decode")
		}
	}
}

// BenchmarkFSStorePut measures one durable snapshot write end to end:
// encode, hash, temp-file write, fsync, rename.
func BenchmarkFSStorePut(b *testing.B) {
	res := audited(b)[0]
	st, err := store.OpenFSStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Put("bench-job", res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportCSV measures rendering the per-flow CSV export. The
// "export" case allocates the full document per call (the shape of the
// pre-pool serving path); "append-pooled" is the server's report.csv hot
// path — rows stream straight off each flow set's sorted keys into a
// reused buffer, so steady-state serving recycles one allocation instead
// of rebuilding the export per request.
func BenchmarkReportCSV(b *testing.B) {
	res := audited(b)[0]
	b.Run("export", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := report.ExportFlowsCSV([]*core.ServiceResult{res})
			if err != nil {
				b.Fatal(err)
			}
			if len(out) == 0 {
				b.Fatal("empty render")
			}
		}
	})
	b.Run("append-pooled", func(b *testing.B) {
		var buf []byte
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := report.AppendFlowsCSV(buf[:0], []*core.ServiceResult{res})
			if err != nil {
				b.Fatal(err)
			}
			if len(out) == 0 {
				b.Fatal("empty render")
			}
			buf = out
		}
	})
}

// ---- Ablation benchmarks (DESIGN.md) -------------------------------------

// BenchmarkAblationEnsemble compares single-temperature models against the
// two majority-vote rules on accuracy-critical classification.
func BenchmarkAblationEnsemble(b *testing.B) {
	sample := classifier.GenerateCorpus(classifier.DefaultCorpusOptions())
	labelers := map[string]classifier.Labeler{
		"single-t0":    classifier.NewModel(0),
		"majority-max": classifier.NewEnsemble(classifier.MajorityMax),
		"majority-avg": classifier.NewEnsemble(classifier.MajorityAvg),
	}
	for name, l := range labelers {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Classify(sample[i%len(sample)].Key)
			}
		})
	}
}

// BenchmarkAblationConfidence sweeps the confidence threshold, reporting
// the accuracy/coverage trade-off as custom metrics.
func BenchmarkAblationConfidence(b *testing.B) {
	sample := classifier.GenerateCorpus(classifier.DefaultCorpusOptions())
	row := classifier.Validate("ens", classifier.NewEnsemble(classifier.MajorityAvg), sample)
	for _, th := range classifier.Thresholds() {
		th := th
		b.Run(fmt.Sprintf("threshold-%.1f", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = classifier.Validate("ens", classifier.NewEnsemble(classifier.MajorityAvg), sample)
			}
			r := row.ByThreshold[th]
			b.ReportMetric(r.Accuracy, "accuracy")
			b.ReportMetric(float64(r.Labeled)/float64(len(sample)), "coverage")
		})
	}
}

// BenchmarkReassembly runs full out-of-order TCP reassembly over a
// shuffled segment stream.
func BenchmarkReassembly(b *testing.B) {
	// Build a shuffled segment workload once.
	payload := bytes.Repeat([]byte("GET /x HTTP/1.1\r\nHost: example.com\r\n\r\n"), 64)
	var segs []*layers.Decoded
	rng := rand.New(rand.NewSource(42))
	for off := 0; off < len(payload); off += 512 {
		end := off + 512
		if end > len(payload) {
			end = len(payload)
		}
		raw := layers.BuildTCPv4(clientAddr, serverAddr, 40000, 443, uint32(1+off), 0, layers.FlagACK, payload[off:end])
		d, err := layers.Decode(pcapio.LinkRaw, raw)
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, d)
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := reassembly.New()
		for _, s := range segs {
			a.Add(s)
		}
		a.Streams()
	}
}

// BenchmarkAblationATSMatch times subdomain-aware block-list matching over
// blocked and first-party hosts.
func BenchmarkAblationATSMatch(b *testing.B) {
	engine := ats.Default()
	hosts := []string{
		"stats.g.doubleclick.net", "www.roblox.com", "pixel.mathtag.com",
		"deep.sub.domain.google-analytics.com", "api.quizlet.com",
	}
	b.Run("subdomain-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.Check(hosts[i%len(hosts)])
		}
	})
}

// BenchmarkAblationExtractDepth times recursive nested-JSON harvesting on
// the pipeline's key path over a nested body, over a body whose every
// string is escaped or non-ASCII, and over the request bodies of one
// synthetic mobile service at the mobile upload scale (one body per op).
func BenchmarkAblationExtractDepth(b *testing.B) {
	body := []byte(`{
	  "user": {"username": "kid1", "profile": {"age": 12, "lang": "en"}},
	  "device": {"hw": {"model": "Pixel 6", "ids": {"imei": "35-209900"}}},
	  "blob": "{\"inner_adid\":\"abc\",\"geo\":{\"lat\":1.5,\"lng\":2.5}}"
	}`)
	req := extract.RequestView{URL: "https://x.example/v1/batch", BodyMIME: "application/json", Body: body}
	var keys []string
	b.Run("recursive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if keys = extract.AppendKeys(keys[:0], req); len(keys) == 0 {
				b.Fatal("no keys")
			}
		}
	})
	// Android's org.json writes "/" as "\/"; names and titles carry
	// non-ASCII text. Every string here needs a real unquote.
	escaped := extract.RequestView{BodyMIME: "application/json", Body: []byte(`{
	  "url": "https:\/\/api.example.com\/v1\/track?id=42",
	  "ref": "https:\/\/www.example.com\/p\/kid",
	  "ua": "Mozilla\/5.0 (Linux; Android 13; Pixel 6)",
	  "name": "Zoë Müller", "city": "São Paulo",
	  "ctx": {"page": "\/home\/feed", "title": "Café — menu", "lang": "pt-BR"}
	}`)}
	b.Run("escaped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keys = extract.AppendKeys(keys[:0], escaped)
		}
	})
	b.Run("mobile-bodies", func(b *testing.B) {
		var reqs []extract.RequestView
		for _, rec := range synth.Generate(synth.Config{Scale: 0.3}).Service("Roblox").Records() {
			if rec.Platform == flows.Mobile && len(rec.Body) > 0 {
				reqs = append(reqs, extract.RequestView{BodyMIME: rec.BodyMIME, Body: rec.Body})
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keys = extract.AppendKeys(keys[:0], reqs[i%len(reqs)])
		}
	})
}

// BenchmarkTLSDecryption measures TLS 1.3 record decryption throughput, the
// hot path of mobile-trace ingestion.
func BenchmarkTLSDecryption(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: 0.002})
	st := ds.Service("Roblox")
	capt, err := st.EmitPCAP(flows.Child)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pcapio.WritePcapng(&buf, capt); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := pcapio.NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Drain(core.NewPCAPSource(context.Background(), rd, nil, flows.Child)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCAPIngest is the packet path's layer number: the `upload`
// benchmark workload's mobile captures (six services × four personas,
// synthetic scale 0.3, pcapng with embedded secrets) read through
// pcapio.NewReader and the PCAP source to their last record — packet
// parsing, reassembly, TLS decryption and HTTP parsing, no analysis.
func BenchmarkPCAPIngest(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: 0.3})
	var captures [][]byte
	total := 0
	for _, st := range ds.Services[:6] {
		for _, p := range flows.BuiltinPersonas() {
			capt, err := st.EmitPCAP(p)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := pcapio.WritePcapng(&buf, capt); err != nil {
				b.Fatal(err)
			}
			captures = append(captures, buf.Bytes())
			total += buf.Len()
		}
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := 0
		for _, data := range captures {
			rd, err := pcapio.NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			// Count the records rather than keep them, so B/op is the
			// source's allocations, not a slice of every record.
			src := core.NewPCAPSource(context.Background(), rd, nil, flows.Child)
			for {
				if _, err := src.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				records++
			}
		}
		if records == 0 {
			b.Fatal("no records")
		}
	}
}
