// Package store persists audit results as first-class, addressable
// snapshots — the durable substrate the audit server's longitudinal
// features build on. A snapshot is one core.ServiceResult serialized with
// the versioned codec (codec.go), keyed by its content hash (SHA-256 over
// the canonical encoding) plus a monotonic sequence number assigned at Put
// time.
//
// There is one store type, Snapshots: an in-memory index (index.go — the
// only place a reference is resolved) over a directory (backend.go) with
// one crash-safely published file per snapshot (OpenFSStore; rescanned on
// open, so a restarted process serves everything the previous one stored).
// The store is append-only: a snapshot is the evidence a later audit of
// the service is diffed against, so nothing deletes one.
//
// One mutex guards the index, in critical sections of a few loads and
// stores. Encoding, hashing, decoding and every byte of file I/O run
// outside it, without exception, so concurrent Puts overlap their fsyncs
// and readers never wait on a writer's disk.
//
// Integrity is checked reactively, on the two paths that read a file:
// Load refuses bytes whose envelope no longer names the content it was
// resolved to, or whose codec CRC fails (a 500 naming the sequence), and
// Open's rescan skips a file that fails the SHA-256 check while keeping
// it on disk, byte for byte, with its sequence still claimed.
//
// References are user-facing: a decimal sequence number, a full content
// hash, a unique hash prefix (≥ 6 hex chars), or the job ID recorded at
// Put time. The first three kinds are map or binary-search lookups; only
// prefixes scan.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"diffaudit/internal/core"
)

// Meta describes one stored snapshot.
type Meta struct {
	// Seq is the store-local monotonic sequence number, assigned at Put
	// time — later snapshots always compare greater, which is what makes
	// "diff the service against itself over time" well ordered.
	Seq uint64 `json:"seq"`
	// Hash is the content hash (hex SHA-256 of the canonical encoding).
	Hash string `json:"hash"`
	// Service is the audited service's name.
	Service string `json:"service"`
	// JobID records which server job produced the snapshot ("" for
	// snapshots stored outside the server).
	JobID string `json:"job_id,omitempty"`
	// CreatedAt is the Put time (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Bytes is the encoded snapshot size.
	Bytes int `json:"bytes"`
}

// Store is a snapshot store. Implementations are safe for concurrent use.
type Store interface {
	// Put serializes and stores a result, returning its metadata. jobID
	// may be "" when the snapshot is not tied to a server job.
	Put(jobID string, r *core.ServiceResult) (Meta, error)
	// Resolve finds the snapshot a reference denotes: a decimal number
	// matches the sequence (falling through when no such sequence exists),
	// otherwise a job ID (its newest snapshot), a full hash, or a unique
	// hash prefix of at least 6 characters. Identical content stored twice
	// resolves to the newest copy; a prefix spanning distinct contents is
	// ambiguous. Failures wrap ErrUnresolved.
	Resolve(ref string) (Meta, error)
	// JobSnapshot returns the newest snapshot recorded under exactly this
	// job ID — unlike Resolve it never matches a sequence, hash or prefix.
	JobSnapshot(jobID string) (Meta, bool)
	// Load decodes the snapshot m describes (as returned by Resolve, List
	// or Put). A snapshot file removed by hand fails with ErrUnresolved;
	// stored bytes that no longer are the content m names, or that do not
	// decode, fail with a storage error naming the sequence.
	Load(m Meta) (*core.ServiceResult, error)
	// Get resolves a reference and decodes the snapshot: Resolve, then Load.
	Get(ref string) (*core.ServiceResult, Meta, error)
	// List returns all snapshot metadata in ascending sequence order.
	List() ([]Meta, error)
	// Page returns up to limit snapshots with a sequence above after, in
	// ascending order (limit 0: all of them), and whether more remain.
	Page(after uint64, limit int) (page []Meta, more bool)
	// Len returns the number of stored snapshots.
	Len() int
}

// ErrUnresolved tags reference-resolution failures — no match, ambiguous
// prefix, empty reference — where the caller's reference is wrong, as
// distinct from storage failures (I/O errors, corruption) where the
// snapshot exists but cannot be served. HTTP layers map the former to
// 404 and the latter to 500.
var ErrUnresolved = errors.New("unresolved snapshot reference")

// Snapshots is the store implementation: the index under one mutex, the
// bytes in one file per snapshot.
type Snapshots struct {
	mu    sync.Mutex // guards ix; file I/O never runs under it
	ix    index
	files dirBackend
}

// OpenFSStore opens (creating if needed) a snapshot directory and rescans
// it, so snapshots stored by previous processes are served again.
func OpenFSStore(dir string) (*Snapshots, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: data directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	files := dirBackend{dir: dir}
	metas, claimed, err := files.rescan()
	if err != nil {
		return nil, err
	}
	s := &Snapshots{ix: newIndex(), files: files}
	s.ix.fence(claimed)
	for _, m := range metas {
		s.ix.insert(m)
	}
	return s, nil
}

// Put implements Store. The encode and the SHA-256 over it — the
// expensive part of a Put — run before any lock is taken. A result with two
// personas of one name is refused: its snapshot would not decode.
func (s *Snapshots) Put(jobID string, r *core.ServiceResult) (Meta, error) {
	if err := r.CheckPersonas(); err != nil {
		return Meta{}, fmt.Errorf("store: %w", err)
	}
	data := EncodeResult(r)
	return s.put(Meta{
		Hash:      Hash(data),
		Service:   r.Identity.Name,
		JobID:     jobID,
		CreatedAt: time.Now().UTC(),
		Bytes:     len(data),
	}, data)
}

// put reserves a sequence under a short critical section, publishes the
// bytes with no lock held, and lists the meta last: a reference never
// resolves to a snapshot whose bytes are not yet durable. Publication is
// exclusive, so when another handle or process over the same directory
// already claimed the sequence, this writer skips past it instead of
// overwriting — concurrent writers never destroy each other's snapshots
// (theirs become visible to this handle on the next open).
func (s *Snapshots) put(m Meta, data []byte) (Meta, error) {
	for {
		s.mu.Lock()
		m.Seq = s.ix.reserve()
		s.mu.Unlock()
		err := s.files.publish(m, data)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return Meta{}, err
		}
		s.mu.Lock()
		s.ix.insert(m)
		s.mu.Unlock()
		return m, nil
	}
}

// Resolve implements Store.
func (s *Snapshots) Resolve(ref string) (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.resolve(ref)
}

// JobSnapshot implements Store.
func (s *Snapshots) JobSnapshot(jobID string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.job(jobID)
}

// open returns the codec bytes stored for m, once the stored envelope
// agrees they are the content m names.
func (s *Snapshots) open(m Meta) ([]byte, error) {
	stored, data, err := s.files.open(m.Seq)
	if errors.Is(err, os.ErrNotExist) {
		// The file was removed by hand after the index listed it: the
		// reference no longer denotes anything, which is a 404, not a 500.
		return nil, fmt.Errorf("store: %w: snapshot %d deleted", ErrUnresolved, m.Seq)
	}
	if err != nil {
		return nil, err
	}
	if stored.Hash != m.Hash {
		return nil, fmt.Errorf("store: snapshot %d changed on disk (hash %s != %s)", m.Seq, stored.Hash, m.Hash)
	}
	return data, nil
}

// Load implements Store. Reading and decoding run outside every lock.
func (s *Snapshots) Load(m Meta) (*core.ServiceResult, error) {
	data, err := s.open(m)
	if err != nil {
		return nil, err
	}
	res, err := DecodeResult(data)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot %d: %w", m.Seq, err)
	}
	return res, nil
}

// Get implements Store.
func (s *Snapshots) Get(ref string) (*core.ServiceResult, Meta, error) {
	m, err := s.Resolve(ref)
	if err != nil {
		return nil, Meta{}, err
	}
	res, err := s.Load(m)
	if err != nil {
		return nil, Meta{}, err
	}
	return res, m, nil
}

// List implements Store.
func (s *Snapshots) List() ([]Meta, error) {
	page, _ := s.Page(0, 0)
	return page, nil
}

// Page implements Store.
func (s *Snapshots) Page(after uint64, limit int) ([]Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.page(after, limit)
}

// Len implements Store.
func (s *Snapshots) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ix.metas)
}

// SaveFile writes one result as a standalone snapshot file (the raw codec
// encoding, no envelope — the `diffaudit diff` CLI reads these directly).
// The write is crash-safe like a Put's; unlike a store
// sequence file, the caller named the target, so an existing file is
// replaced. Like Put, it refuses a result with two personas of one name.
func SaveFile(path string, r *core.ServiceResult) error {
	if err := r.CheckPersonas(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := writeTemp(dir, EncodeResult(r))
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// LoadFile reads a standalone snapshot file written by SaveFile.
func LoadFile(path string) (*core.ServiceResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	res, err := DecodeResult(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	return res, nil
}
