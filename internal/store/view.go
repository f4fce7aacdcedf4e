package store

import (
	"fmt"
	"sync"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/linkability"
	"diffaudit/internal/ontology"
	"diffaudit/internal/wire"
)

// SnapshotView is a lazy handle over one encoded snapshot: the envelope
// (magic, version, CRC) is validated exactly once when the view opens, and
// everything else — symbol tables, persona records, per-persona flow sets —
// materializes on demand. A view can materialize a subset of personas
// without ever touching the flow bytes of the others, which is what lets a
// filtered /v1/diff skip most of the decode work.
//
// The backing bytes may be an mmap of the store file (Snapshots.View over
// the directory backend, on platforms with mmap support). Materialized results never alias those
// bytes — every string and symbol is copied or re-interned during decode —
// so results outlive the view, but the view itself must not be used after
// Close. Views are safe for concurrent use.
type SnapshotView struct {
	meta Meta
	secs *snapSections

	mu     sync.Mutex
	closer func() error
	closed bool

	// Decode-state cache, built once on first use (under mu) and shared by
	// every later materialization: repeated PartialResult calls used to
	// re-register personas and re-intern the whole symbol table per call.
	// All three are immutable once built — the registry and intern tables
	// are append-only, so resolved IDs never go stale.
	personas []flows.Persona    // registered personas, section order
	dec      *flows.SetDecoder  // re-interned symbol tables
	scan     *flows.TableScan   // column-selective table view
	cols     []flows.SetColumns // split flow columns, persona order
}

// NewSnapshotView validates a snapshot's envelope and returns a lazy view.
// closer, if non-nil, releases the backing bytes (e.g. munmap) and runs
// exactly once, on Close.
func NewSnapshotView(data []byte, meta Meta, closer func() error) (*SnapshotView, error) {
	payload, err := checkSnapshot(data)
	var secs *snapSections
	if err == nil {
		secs, err = splitSections(payload)
	}
	if err != nil {
		if closer != nil {
			closer()
		}
		return nil, err
	}
	return &SnapshotView{meta: meta, secs: secs, closer: closer}, nil
}

// Meta returns the stored metadata the view was opened with.
func (v *SnapshotView) Meta() Meta { return v.meta }

// Close releases the backing bytes. The view (and any zero-copy section
// slices, but not materialized results) is unusable afterwards.
func (v *SnapshotView) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	v.closed = true
	v.secs = nil
	v.scan = nil
	v.cols = nil
	if v.closer != nil {
		return v.closer()
	}
	return nil
}

// index builds (once) the decode state every materialization shares: the registered persona list and the re-interned symbol decoder.
// Callers hold v.mu.
func (v *SnapshotView) index() error {
	if v.personas != nil && v.dec != nil {
		return nil
	}
	personas, err := decodePersonaSection(v.secs.personas)
	if err != nil {
		return err
	}
	if len(personas) != len(v.secs.flowSets) {
		return fmt.Errorf("store: snapshot has %d personas but %d flow sections", len(personas), len(v.secs.flowSets))
	}
	dec, err := decodeSymbolSection(v.secs.symbols)
	if err != nil {
		return err
	}
	v.personas, v.dec = personas, dec
	return nil
}

// columnIndex builds (once) the column-selective decode state: registered personas, the string-skipping table scan, and the
// split columns of every flow section. Unlike index it interns nothing.
// Callers hold v.mu.
func (v *SnapshotView) columnIndex() error {
	if v.scan != nil {
		return nil
	}
	if v.personas == nil {
		personas, err := decodePersonaSection(v.secs.personas)
		if err != nil {
			return err
		}
		if len(personas) != len(v.secs.flowSets) {
			return fmt.Errorf("store: snapshot has %d personas but %d flow sections", len(personas), len(v.secs.flowSets))
		}
		v.personas = personas
	}
	r := wire.NewReader(v.secs.symbols)
	scan, err := flows.ScanSetTables(r)
	if err != nil {
		return fmt.Errorf("store: snapshot symbol tables: %w", err)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("store: snapshot symbol tables: %w", err)
	}
	cols := make([]flows.SetColumns, len(v.secs.flowSets))
	for i, data := range v.secs.flowSets {
		if cols[i], err = flows.SplitSetColumns(data); err != nil {
			return fmt.Errorf("store: snapshot flow set for %s: %w", v.personas[i], err)
		}
	}
	v.scan, v.cols = scan, cols
	return nil
}

// Result fully materializes the snapshot — equivalent to DecodeResult over
// the original bytes, and byte-identical under re-encoding.
func (v *SnapshotView) Result() (*core.ServiceResult, error) {
	return v.materialize(nil)
}

// PartialResult materializes the snapshot's identity, counters, and
// persona registrations, but only the flow sets of the named personas
// (matched against persona names and aliases) — the other personas'
// flow sections are never decoded. Personas outside the filter are absent
// from ByTrace entirely. A nil filter materializes everything.
func (v *SnapshotView) PartialResult(only []string) (*core.ServiceResult, error) {
	if only == nil {
		return v.materialize(nil)
	}
	filter := func(personas []flows.Persona) map[flows.Persona]bool {
		want := make(map[flows.Persona]bool, len(only))
		for _, name := range only {
			if p, ok := flows.ParsePersona(name); ok {
				want[p] = true
			}
		}
		keep := make(map[flows.Persona]bool, len(personas))
		for _, p := range personas {
			if want[p] {
				keep[p] = true
			}
		}
		return keep
	}
	return v.materialize(filter)
}

// materialize decodes the snapshot, restricting flow-set decoding to the
// personas the filter selects (computed after persona registration, so the
// filter can match names the process had never seen). Each call is one
// decode for the counter — the server's warm paths must never get here.
func (v *SnapshotView) materialize(filter func([]flows.Persona) map[flows.Persona]bool) (*core.ServiceResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil, fmt.Errorf("store: snapshot view is closed")
	}
	decodes.Add(1)
	res, err := decodeMetaSection(v.secs.meta)
	if err != nil {
		return nil, err
	}
	if err := v.index(); err != nil {
		return nil, err
	}
	var keep map[flows.Persona]bool
	if filter != nil {
		keep = filter(v.personas)
	}
	if err := v.secs.decodeFlowSetsInto(v.dec, v.personas, keep, res); err != nil {
		return nil, err
	}
	return res, nil
}

// PersonaGrid reduces one persona's flows to Table 4 granularity — level-2
// data type group × destination class → platform mask — equal to
// materializing the persona and calling Set.GroupGrid. It decodes only
// that persona's three columns against a string-skipping table scan: no
// symbol interning, no Set construction, none of the other personas'
// bytes. The name matches persona names and aliases, like PartialResult.
func (v *SnapshotView) PersonaGrid(name string) (map[ontology.Level2]map[flows.DestClass]flows.PlatformMask, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil, fmt.Errorf("store: snapshot view is closed")
	}
	decodes.Add(1)
	if err := v.columnIndex(); err != nil {
		return nil, err
	}
	i, ok := v.personaAt(name)
	if !ok {
		return nil, fmt.Errorf("store: snapshot has no persona %q", name)
	}
	grid, err := v.cols[i].Grid(v.scan)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot flow set for %s: %w", v.personas[i], err)
	}
	return grid, nil
}

// PersonaLinkability builds the third-party linkability index of one
// persona's flows. The index streams straight off the persona's category
// and destination columns — the platform-mask column and the flow Set are
// never materialized. Name matching follows PartialResult.
func (v *SnapshotView) PersonaLinkability(name string) (*linkability.Index, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil, fmt.Errorf("store: snapshot view is closed")
	}
	decodes.Add(1)
	// Linkability resolves live symbols, so it needs the re-interned
	// tables (index) plus the split columns (columnIndex).
	if err := v.index(); err != nil {
		return nil, err
	}
	if err := v.columnIndex(); err != nil {
		return nil, err
	}
	i, ok := v.personaAt(name)
	if !ok {
		return nil, fmt.Errorf("store: snapshot has no persona %q", name)
	}
	ix, err := linkability.NewIndexColumns(v.dec, v.cols[i])
	if err != nil {
		return nil, fmt.Errorf("store: snapshot flow set for %s: %w", v.personas[i], err)
	}
	return ix, nil
}

// personaAt resolves a persona name or alias to its section index.
// Callers hold v.mu with the persona cache built.
func (v *SnapshotView) personaAt(name string) (int, bool) {
	p, ok := flows.ParsePersona(name)
	if !ok {
		return 0, false
	}
	for i, have := range v.personas {
		if have == p {
			return i, true
		}
	}
	return 0, false
}
