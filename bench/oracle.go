package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"diffaudit"
)

// The oracle re-does a request's work in this process through the library's
// public facade, one call per layer. It serves two purposes with one piece
// of code: the bytes it produces are what the server must have served, and
// (in the traced run) the time each call takes is that layer's share of the
// request.

// layerSpan is one timed facade call, with the calls made inside it.
type layerSpan struct {
	name     string
	dur      time.Duration
	bytes    int64
	children []layerSpan
}

func timed(name string, bytes int64, f func()) layerSpan {
	start := time.Now()
	f()
	return layerSpan{name: name, dur: time.Since(start), bytes: bytes}
}

// auditOutcome is what an uninterrupted in-process audit of one upload
// produces.
type auditOutcome struct {
	res      *diffaudit.ServiceResult
	report   []byte // the report.json the server must serve for the job
	hash     string // the content hash the server must store it under
	spans    []layerSpan
	records  int
	packets  int
	undecr   int
	snapshot int // encoded bytes
}

// auditUpload runs one upload set the way the server's job does: an
// identity-guess pass over the captures, a second decode for the audit
// proper, the analysis, then encode and store (into scratch, a store of the
// oracle's own).
func auditUpload(set *uploadSet, name string, scratch diffaudit.SnapshotStore) (auditOutcome, error) {
	var out auditOutcome
	auditor := diffaudit.New()
	ingestName := "har.ingest"
	if set.kind == kindMobile {
		ingestName = "netcap.ingest"
	}
	var payload int64
	for _, f := range set.files {
		payload += int64(len(f.data))
	}
	var recs []diffaudit.RequestRecord
	var err error
	ingest := func() {
		recs = recs[:0]
		out.packets, out.undecr = 0, 0
		for _, f := range set.files {
			var part []diffaudit.RequestRecord
			if set.kind == kindWeb {
				part, err = auditor.LoadHARFile(f.path, f.persona)
			} else {
				var st diffaudit.PCAPStats
				part, st, err = auditor.LoadPCAPFile(f.path, "", f.persona)
				out.packets += st.Packets
				out.undecr += st.TLSStreams - st.DecryptedStreams
			}
			if err != nil {
				return
			}
			recs = append(recs, part...)
		}
	}
	pass1 := timed(ingestName, payload, ingest)
	if err != nil {
		return out, fmt.Errorf("oracle: %s: %w", name, err)
	}
	var id diffaudit.ServiceIdentity
	guess := timed("core.identity", int64(len(recs)), func() { id = diffaudit.GuessIdentity(name, recs) })
	pass2 := timed(ingestName, payload, ingest)
	if err != nil {
		return out, fmt.Errorf("oracle: %s: %w", name, err)
	}
	out.records = len(recs)
	analyze := timed("core.analyze", int64(len(recs)), func() { out.res = auditor.AuditRecords(id, recs) })
	var enc []byte
	encode := timed("store.encode", 0, func() { enc = diffaudit.EncodeSnapshot(out.res) })
	encode.bytes = int64(len(enc))
	put := timed("store.put", int64(len(enc)), func() { _, err = scratch.Put("", out.res) })
	if err != nil {
		return out, fmt.Errorf("oracle: %s: put: %w", name, err)
	}
	// Put encodes again itself; the separate encode span is its child so that
	// put's own time is the write, fsync and publish.
	put.children = []layerSpan{encode}
	sum := sha256.Sum256(enc)
	out.hash, out.snapshot = hex.EncodeToString(sum[:]), len(enc)
	if out.report, err = diffaudit.ExportJSON([]*diffaudit.ServiceResult{out.res}); err != nil {
		return out, err
	}
	out.spans = []layerSpan{pass1, guess, pass2, analyze, put}
	return out, nil
}

// readOutcome is the expected body of one read and the layer calls that
// produce it.
type readOutcome struct {
	body  []byte
	spans []layerSpan
}

// replayRead re-does one read. With cold set it also fetches and decodes
// the snapshots through the store, as a server whose cache missed must;
// otherwise it starts from the decoded result, as a cache hit does.
func (c *corpus) replayRead(op readOp, cold bool) (readOutcome, error) {
	var out readOutcome
	var err error
	from := c.snaps[op.t.svc][op.t.ver]
	// Every by-reference read lists the store's index and resolves in it.
	out.spans = append(out.spans, timed("store.list", 0, func() { _, err = c.store.List() }))
	if err != nil {
		return out, err
	}
	fetch := func(s *storedSnap) (*diffaudit.ServiceResult, error) {
		if !cold {
			return c.result(s)
		}
		var res *diffaudit.ServiceResult
		var gerr error
		get := timed("store.get", int64(s.Meta.Bytes), func() { res, _, gerr = c.store.Get(s.Meta.Hash) })
		if gerr != nil {
			return nil, gerr
		}
		enc := diffaudit.EncodeSnapshot(res)
		dec := timed("store.decode", int64(len(enc)), func() { _, gerr = diffaudit.DecodeSnapshot(enc) })
		get.children = []layerSpan{dec}
		out.spans = append(out.spans, get)
		return res, gerr
	}
	switch op.class {
	case clsRevalidate:
		// A 304 is answered from the index alone.
		return out, nil
	case clsSnapshot, clsReportGz, clsReportID, clsCSV:
		var res *diffaudit.ServiceResult
		if res, err = fetch(from); err != nil {
			return out, err
		}
		one := []*diffaudit.ServiceResult{res}
		if op.class == clsCSV {
			var text string
			out.spans = append(out.spans, timed("report.csv", 0, func() { text, err = diffaudit.ExportFlowsCSV(one) }))
			out.body = []byte(text)
		} else {
			render := timed("report.json", 0, func() { out.body, err = diffaudit.ExportJSON(one) })
			// ExportJSON builds one linkability index per persona inside
			// itself; building them again beside it says how much of the
			// render that is.
			link := timed("linkability.index", 0, func() {
				for _, set := range res.ByTrace {
					diffaudit.NewLinkabilityIndex(set)
				}
			})
			render.children = []layerSpan{link}
			out.spans = append(out.spans, render)
		}
	case clsDiff, clsDiffChild:
		var a, b *diffaudit.ServiceResult
		if a, err = fetch(from); err != nil {
			return out, err
		}
		if b, err = fetch(c.snaps[op.t.svc][op.t.ver+1]); err != nil {
			return out, err
		}
		if op.class == clsDiffChild {
			// The facade has no persona filter; diffing results that hold the
			// child's flow set alone is the same computation and yields the
			// same document as the server's filtered diff.
			onlyChild := func(r *diffaudit.ServiceResult) *diffaudit.ServiceResult {
				cp := *r
				cp.ByTrace = map[diffaudit.Persona]*diffaudit.FlowSet{diffaudit.Child: r.ByTrace[diffaudit.Child]}
				return &cp
			}
			a, b = onlyChild(a), onlyChild(b)
		}
		var d diffaudit.LongitudinalDiff
		out.spans = append(out.spans, timed("core.diff", 0, func() { d = diffaudit.DiffSnapshots(a, b) }))
		out.spans = append(out.spans, timed("report.diffjson", 0, func() { out.body, err = diffaudit.ExportDiffJSON(d) }))
	}
	if err != nil {
		return out, err
	}
	out.spans[len(out.spans)-1].bytes = int64(len(out.body))
	return out, nil
}

// checkRead compares a kept response body with the oracle's.
func (c *corpus) checkRead(k checked) error {
	want, err := c.replayRead(k.s.read, false)
	if err != nil {
		return err
	}
	return c.sameBody(k, want.body)
}

// sameBody compares a served body with the bytes the library renders for the
// same read; a gzip-coded body is inflated first.
func (c *corpus) sameBody(k checked, want []byte) error {
	got := k.body
	if k.s.class == clsReportGz {
		zr, err := gzip.NewReader(bytes.NewReader(got))
		if err != nil {
			return fmt.Errorf("%s %v: not gzip: %v", k.s.class, k.s.read.t, err)
		}
		if got, err = io.ReadAll(zr); err != nil {
			return fmt.Errorf("%s %v: inflate: %v", k.s.class, k.s.read.t, err)
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s of %s v%d: served %d bytes differ from the library's %d",
			k.s.class, c.names[k.s.read.t.svc], k.s.read.t.ver, len(got), len(want))
	}
	return nil
}

// checkJournalDrained verifies that, once every job is done, the journal
// directory holds no batch file, tombstone sidecar, per-job record or staged
// upload: each of those would be re-run (or leaked) by the next start.
func checkJournalDrained(dataDir string) error {
	var left []string
	root := filepath.Join(dataDir, "journal")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			left = append(left, strings.TrimPrefix(path, root+"/"))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if len(left) > 0 {
		return fmt.Errorf("journal not drained: %d file(s) left, e.g. %s", len(left), left[0])
	}
	return nil
}
