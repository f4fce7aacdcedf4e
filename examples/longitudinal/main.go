// Longitudinal audit: persist two audits of one service as snapshots in a
// filesystem store and diff the service against itself over time — did a
// finding regress after an app update? The paper's differential analysis
// compares personas at one point in time; snapshots add the time axis.
package main

import (
	"fmt"
	"log"
	"os"

	"diffaudit"
)

func main() {
	// 1. Audit the service "before the update".
	auditor := diffaudit.New()
	dataset := diffaudit.GenerateDataset(0.01)
	traffic := dataset.Service("Quizlet")
	before := auditor.AuditRecords(traffic.Identity(), traffic.Records())

	// 2. Persist it. An FSStore survives process restarts: each snapshot
	// is one crash-safe file, addressable by sequence number, content
	// hash, or job ID.
	dir, err := os.MkdirTemp("", "diffaudit-snapshots-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := diffaudit.OpenSnapshotStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	metaBefore, err := store.Put("", before)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before: snapshot seq=%d hash=%s (%d bytes)\n",
		metaBefore.Seq, metaBefore.Hash[:12], metaBefore.Bytes)

	// 3. "After the update": the same traffic plus a regression — the
	// child trace now sends an advertising identifier to a tracker.
	records := append(traffic.Records(), diffaudit.RequestRecord{
		Trace:    diffaudit.Child,
		Platform: diffaudit.Mobile,
		Method:   "POST",
		URL:      "https://pixel.mathtag.com/sync?advertising_id=ad-123",
		FQDN:     "pixel.mathtag.com",
	})
	after := auditor.AuditRecords(traffic.Identity(), records)
	metaAfter, err := store.Put("", after)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after:  snapshot seq=%d hash=%s\n\n", metaAfter.Seq, metaAfter.Hash[:12])

	// 4. Diff the two stored snapshots, oldest first. The same diff is
	// served by `GET /v1/diff?from=1&to=2` on a `diffaudit serve -data-dir`
	// server, and by `diffaudit diff -data-dir <dir> 1 2`.
	fromRes, _, err := store.Get(fmt.Sprint(metaBefore.Seq))
	if err != nil {
		log.Fatal(err)
	}
	toRes, _, err := store.Get(fmt.Sprint(metaAfter.Seq))
	if err != nil {
		log.Fatal(err)
	}
	diff := diffaudit.DiffSnapshots(fromRes, toRes)
	fmt.Print(diffaudit.RenderDiffReport(diff))

	if !diff.Changed() {
		log.Fatal("expected the injected regression to appear in the diff")
	}
}
