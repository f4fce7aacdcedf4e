package diffaudit_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diffaudit"
	"diffaudit/internal/core"
	"diffaudit/internal/flows"
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
// streaming file source yields exactly the records the in-memory loader
// produces.
func TestStreamedHARFileEquivalence(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.01})
	st := ds.Service("Duolingo")
	path := filepath.Join(t.TempDir(), "child.har")
	if err := st.EmitHAR(flows.Child).WriteFile(path); err != nil {
		t.Fatal(err)
	}

	auditor := diffaudit.New()
	want, err := auditor.LoadHARFile(path, diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}

	src, err := diffaudit.OpenHARSource(path, diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	var got []diffaudit.RequestRecord
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed records differ from loaded records (%d vs %d)", len(got), len(want))
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
	path := filepath.Join(t.TempDir(), "child.pcapng")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcapng(f, capt); err != nil {
		t.Fatal(err)
	}
	f.Close()

	auditor := diffaudit.New()
	want, wantStats, err := auditor.LoadPCAPFile(path, "", diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}

	src, err := diffaudit.OpenPCAPSource(path, nil, diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	var got []diffaudit.RequestRecord
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed records differ from loaded records (%d vs %d)", len(got), len(want))
	}
	gotStats, ok := src.PCAPStats()
	if !ok {
		t.Fatal("pcap source reported no stats")
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", gotStats, wantStats)
	}
}

// TestAuditStreamPublicAPI runs the documented streaming quickstart shape:
// multi-source audit over per-trace sources equals the batch audit.
func TestAuditStreamPublicAPI(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.01})
	st := ds.Service("Quizlet")
	recs := st.Records()
	auditor := diffaudit.New()
	want := auditor.AuditRecords(st.Identity(), recs)

	// Split the records in half across two sources.
	mid := len(recs) / 2
	got, err := auditor.AuditStream(st.Identity(), diffaudit.MultiSource(
		core.SliceSource(recs[:mid]),
		core.SliceSource(recs[mid:]),
	))
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
		t.Error("AuditStream over split sources differs from AuditRecords")
	}
}

// TestOnePassFileEquivalence audits capture files of a service nobody has
// profiled the way `diffaudit serve` and file mode do — every file opened
// and parsed once, the identity a by-product of the pass — and checks the
// outcome against the two-step reference (load everything, GuessIdentity,
// AuditRecords): same identity, same report bytes, same snapshot encoding.
func TestOnePassFileEquivalence(t *testing.T) {
	ds := synth.Generate(synth.Config{Scale: 0.01})
	st := ds.Service("Duolingo")
	dir := t.TempDir()
	harPath := filepath.Join(dir, "child.har")
	if err := st.EmitHAR(flows.Child).WriteFile(harPath); err != nil {
		t.Fatal(err)
	}
	capt, err := st.EmitPCAP(diffaudit.Adult)
	if err != nil {
		t.Fatal(err)
	}
	pcapPath := filepath.Join(dir, "adult.pcapng")
	f, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcapng(f, capt); err != nil {
		t.Fatal(err)
	}
	f.Close()

	auditor := diffaudit.New()
	auditor.Pipeline.Workers = 1
	recs, err := auditor.LoadHARFile(harPath, diffaudit.Child)
	if err != nil {
		t.Fatal(err)
	}
	mobile, _, err := auditor.LoadPCAPFile(pcapPath, "", diffaudit.Adult)
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, mobile...)
	id := diffaudit.GuessIdentity("unprofiled", recs)
	want := auditor.AuditRecords(id, recs)
	wantJSON, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{want})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		web, err := diffaudit.OpenHARSource(harPath, diffaudit.Child)
		if err != nil {
			t.Fatal(err)
		}
		app, err := diffaudit.OpenPCAPSource(pcapPath, nil, diffaudit.Adult)
		if err != nil {
			t.Fatal(err)
		}
		auditor.Pipeline.Workers = workers
		got, err := auditor.AuditUnknownStream("unprofiled", diffaudit.MultiSource(web, app))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Identity, id) {
			t.Fatalf("workers=%d: identity %+v, two-step guess %+v", workers, got.Identity, id)
		}
		gotJSON, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{got})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("workers=%d: ExportJSON differs from the two-step audit", workers)
		}
		if !bytes.Equal(diffaudit.EncodeSnapshot(got), diffaudit.EncodeSnapshot(want)) {
			t.Errorf("workers=%d: snapshot encoding differs from the two-step audit", workers)
		}
	}
}
