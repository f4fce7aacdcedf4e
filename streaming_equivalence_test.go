package diffaudit_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diffaudit"
	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/synth"
)

// auditAllStream audits the synthetic dataset through AnalyzeStream.
func auditAllStream(t *testing.T, scale float64, workers int) []*core.ServiceResult {
	t.Helper()
	ds := synth.Generate(synth.Config{Scale: scale})
	pipe := core.NewPipeline()
	pipe.Workers = workers
	var out []*core.ServiceResult
	for _, st := range ds.Services {
		res, err := pipe.AnalyzeStream(st.Identity(), core.SliceSource(st.Records()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestStreamingEquivalence is the acceptance contract of the streaming
// pipeline: AnalyzeStream must produce byte-identical rendered artifacts
// and exports to AnalyzeRecords over the synthetic corpus, for both the
// sequential and the parallel streaming path.
func TestStreamingEquivalence(t *testing.T) {
	const scale = 0.01
	batch := auditAllWorkers(scale, 1)
	wantJSON, err := diffaudit.ExportJSON(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := diffaudit.ExportFlowsCSV(batch)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		stream := auditAllStream(t, scale, workers)

		artifacts := []struct {
			name      string
			want, got string
		}{
			{"Table1", diffaudit.RenderTable1(batch), diffaudit.RenderTable1(stream)},
			{"Table4", diffaudit.RenderTable4(batch), diffaudit.RenderTable4(stream)},
			{"Figure3", diffaudit.RenderFigure3(batch), diffaudit.RenderFigure3(stream)},
		}
		for _, a := range artifacts {
			if a.want != a.got {
				t.Errorf("workers=%d: %s differs between batch and streaming runs", workers, a.name)
			}
		}

		gotJSON, err := diffaudit.ExportJSON(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("workers=%d: ExportJSON differs between batch and streaming runs", workers)
		}
		gotCSV, err := diffaudit.ExportFlowsCSV(stream)
		if err != nil {
			t.Fatal(err)
		}
		if wantCSV != gotCSV {
			t.Errorf("workers=%d: ExportFlowsCSV differs between batch and streaming runs", workers)
		}
	}
}

// TestStreamedHARFileEquivalence writes a real HAR file and checks the
// file reader yields exactly the records the stream decoder yields over
// the same bytes in memory.
func TestStreamedHARFileEquivalence(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.01})
	st := ds.Service("Duolingo")
	path := filepath.Join(t.TempDir(), "child.har")
	if err := st.EmitHAR(flows.Child).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Drain(core.NewHARSource(har.NewStreamDecoder(bytes.NewReader(data)), diffaudit.Child))
	if err != nil {
		t.Fatal(err)
	}

	got, err := diffaudit.New().LoadHARFile(path, diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("file records differ from streamed records (%d vs %d)", len(got), len(want))
	}
}

// TestStreamedPCAPFileEquivalence does the same for a decryptable pcapng
// capture, including ingestion stats.
func TestStreamedPCAPFileEquivalence(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.01})
	st := ds.Service("Duolingo")
	capt, err := st.EmitPCAP(diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pcapng(&buf, capt); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "child.pcapng")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src := core.NewPCAPSource(context.Background(), rd, nil, diffaudit.Child)
	want, err := core.Drain(src)
	if err != nil {
		t.Fatal(err)
	}

	got, gotStats, err := diffaudit.New().LoadPCAPFile(path, "", diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("file records differ from streamed records (%d vs %d)", len(got), len(want))
	}
	if !reflect.DeepEqual(gotStats, src.Stats()) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", gotStats, src.Stats())
	}
}

// writeCaptures writes a service's web HAR and mobile pcapng for each
// persona under dir and returns them as the captures of one audit.
func writeCaptures(t *testing.T, st *synth.ServiceTraffic, dir string, personas ...diffaudit.Persona) []diffaudit.Capture {
	t.Helper()
	var caps []diffaudit.Capture
	for _, p := range personas {
		harPath := filepath.Join(dir, p.String()+".har")
		if err := st.EmitHAR(p).WriteFile(harPath); err != nil {
			t.Fatal(err)
		}
		capt, err := st.EmitPCAP(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pcapng(&buf, capt); err != nil {
			t.Fatal(err)
		}
		pcapPath := filepath.Join(dir, p.String()+".pcapng")
		if err := os.WriteFile(pcapPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		caps = append(caps, diffaudit.Capture{Path: harPath, HAR: true, Trace: p}, diffaudit.Capture{Path: pcapPath, Trace: p})
	}
	return caps
}

// loadCaptures is the two-step reference's first step: every capture
// loaded into memory, with each one's ingestion stats.
func loadCaptures(t *testing.T, a *diffaudit.Auditor, caps []diffaudit.Capture) ([]diffaudit.RequestRecord, []diffaudit.PCAPStats) {
	t.Helper()
	var recs []diffaudit.RequestRecord
	stats := make([]diffaudit.PCAPStats, len(caps))
	for i, c := range caps {
		var part []diffaudit.RequestRecord
		var err error
		if c.HAR {
			part, err = a.LoadHARFile(c.Path, c.Trace)
		} else {
			part, stats[i], err = a.LoadPCAPFile(c.Path, "", c.Trace)
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, part...)
	}
	return recs, stats
}

// TestAuditStreamPublicAPI runs the documented streaming shape: one
// AuditCaptures call over a profiled service's per-persona web and mobile
// captures equals AuditRecords over the same files' records under the
// service's profile.
func TestAuditStreamPublicAPI(t *testing.T) {
	st := synth.Generate(synth.Config{Scale: 0.01}).Service("Quizlet")
	caps := writeCaptures(t, st, t.TempDir(), diffaudit.BuiltinPersonas()...)
	auditor := diffaudit.New()
	recs, _ := loadCaptures(t, auditor, caps)
	want := auditor.AuditRecords(st.Identity(), recs)

	got, _, err := auditor.AuditCaptures("Quizlet", "", caps)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := diffaudit.ExportJSON([]*core.ServiceResult{want})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := diffaudit.ExportJSON([]*core.ServiceResult{got})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Error("AuditCaptures over per-persona captures differs from AuditRecords")
	}
}

// TestOnePassFileEquivalence audits capture files the way `diffaudit
// serve` and file mode do — through AuditCaptures, every file opened and
// parsed once — and checks the outcome against the two-step reference
// (load everything, then AuditRecords under the service's profile, or
// under GuessIdentity for a name nobody has profiled): same identity,
// same report bytes, same snapshot encoding, and each capture's stats
// those its loader reports.
func TestOnePassFileEquivalence(t *testing.T) {
	st := synth.Generate(synth.Config{Scale: 0.01}).Service("Duolingo")
	caps := writeCaptures(t, st, t.TempDir(), diffaudit.Child, diffaudit.Adult)

	auditor := diffaudit.New()
	auditor.Pipeline.Workers = 1
	recs, wantStats := loadCaptures(t, auditor, caps)
	if wantStats[1].Packets == 0 {
		t.Fatal("the mobile capture holds no packets")
	}
	for _, row := range []struct {
		name string
		id   diffaudit.ServiceIdentity
	}{
		{"unprofiled", diffaudit.GuessIdentity("unprofiled", recs)},
		{"duolingo", st.Identity()},
	} {
		auditor.Pipeline.Workers = 1
		want := auditor.AuditRecords(row.id, recs)
		wantJSON, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{want})
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{1, 2, 4} {
			auditor.Pipeline.Workers = workers
			got, stats, err := auditor.AuditCaptures(row.name, "", caps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Identity, row.id) {
				t.Fatalf("%s workers=%d: identity %+v, two-step %+v", row.name, workers, got.Identity, row.id)
			}
			gotJSON, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{got})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("%s workers=%d: ExportJSON differs from the two-step audit", row.name, workers)
			}
			if !bytes.Equal(diffaudit.EncodeSnapshot(got), diffaudit.EncodeSnapshot(want)) {
				t.Errorf("%s workers=%d: snapshot encoding differs from the two-step audit", row.name, workers)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Errorf("%s workers=%d: stats %+v, loaders report %+v", row.name, workers, stats, wantStats)
			}
		}
	}
}
