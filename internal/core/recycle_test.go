package core_test

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/report"
	"diffaudit/internal/store"
	"diffaudit/internal/synth"
)

// recycleArtifacts is what an audit of the dataset yields: the paper
// artifacts of every service, and per mobile capture its records, stats
// and snapshot.
type recycleArtifacts struct {
	json, csv []byte
	snapshots [][sha256.Size]byte
	captures  []captureArtifacts
}

type captureArtifacts struct {
	recs     []core.RequestRecord
	stats    core.PCAPStats
	snapshot [sha256.Size]byte
}

// auditForRecycling audits the dataset at scale 0.01 as AuditAll does,
// then every service's mobile capture of every built-in persona as an
// upload is read.
func auditForRecycling(t *testing.T, ds *synth.Dataset) recycleArtifacts {
	t.Helper()
	pipe := core.NewPipeline()
	var a recycleArtifacts
	var results []*core.ServiceResult
	for _, st := range ds.Services {
		r := pipe.AnalyzeRecords(st.Identity(), st.Records())
		results = append(results, r)
		a.snapshots = append(a.snapshots, sha256.Sum256(store.EncodeResult(r)))
	}
	var err error
	if a.json, err = report.ExportJSON(results); err != nil {
		t.Fatal(err)
	}
	csv, err := report.ExportFlowsCSV(results)
	if err != nil {
		t.Fatal(err)
	}
	a.csv = []byte(csv)
	for _, st := range ds.Services {
		for _, p := range flows.BuiltinPersonas() {
			capt, err := st.EmitPCAP(p)
			if err != nil {
				t.Fatal(err)
			}
			recs, stats := pcapRecords(t, capt, p)
			a.captures = append(a.captures, captureArtifacts{
				recs:     recs,
				stats:    stats,
				snapshot: sha256.Sum256(store.EncodeResult(pipe.AnalyzeRecords(st.Identity(), recs))),
			})
		}
	}
	return a
}

// TestRecycledBatchesPoisoned: a batch an analysis is done with holds
// nothing any result reads. With every finished batch overwritten by
// garbage records before it is refilled, every artifact stays
// byte-identical.
func TestRecycledBatchesPoisoned(t *testing.T) {
	if testing.Short() {
		t.Skip("audits the dataset twice")
	}
	ds := synth.Generate(synth.Config{Scale: 0.01})
	want := auditForRecycling(t, ds)

	poisoned, restore := core.PoisonBatches()
	defer restore()
	got := auditForRecycling(t, ds)
	if !bytes.Equal(got.json, want.json) || !bytes.Equal(got.csv, want.csv) {
		t.Error("report.json or the flows CSV changed with recycled batches poisoned")
	}
	if !reflect.DeepEqual(got.snapshots, want.snapshots) {
		t.Error("a snapshot changed with recycled batches poisoned")
	}
	if !reflect.DeepEqual(got.captures, want.captures) {
		t.Error("a capture's records, stats or snapshot changed with recycled batches poisoned")
	}

	// One worker over more batches than it can ever make reuses some: the
	// poison is refilled over, not only written.
	quizlet := synth.Generate(synth.Config{Scale: 0.3}).Service("Quizlet")
	one := core.NewPipeline()
	one.Workers = 1
	before := poisoned.Load()
	gotQ := one.AnalyzeRecords(quizlet.Identity(), quizlet.Records())
	if n := poisoned.Load() - before; n <= int64(core.InFlightBatches(1)) {
		t.Fatalf("%d batches poisoned, want more than the %d one worker can hold", n, core.InFlightBatches(1))
	}
	restore()
	wantQ := one.AnalyzeRecords(quizlet.Identity(), quizlet.Records())
	if !bytes.Equal(store.EncodeResult(gotQ), store.EncodeResult(wantQ)) {
		t.Error("the one-worker snapshot changed with recycled batches poisoned")
	}
}
