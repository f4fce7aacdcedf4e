package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"diffaudit/internal/faults"
	"diffaudit/internal/wire"
)

// backend is where a store's snapshot bytes live, addressed by sequence
// number. Implementations are safe for concurrent use; Snapshots calls
// them with its index lock released.
type backend interface {
	// publish stores data under m.Seq, durably and exclusively: it fails
	// with an error matching os.ErrExist, and leaves the holder untouched,
	// when the sequence is already taken.
	publish(m Meta, data []byte) error
	// open returns the metadata and codec bytes stored under seq, which
	// the caller must not modify; an error matching os.ErrNotExist means
	// nothing is stored there.
	open(seq uint64) (stored Meta, data []byte, err error)
	// remove deletes what is stored under seq, if anything.
	remove(seq uint64) error
}

// memBackend keeps snapshots in a map: process-lifetime durability. Every
// key is written once and then only read or deleted, which is the case
// sync.Map is built for.
type memBackend struct {
	blobs sync.Map // seq → memBlob
}

type memBlob struct {
	meta Meta
	data []byte // immutable once published, so readers share it
}

func (b *memBackend) publish(m Meta, data []byte) error {
	if _, taken := b.blobs.LoadOrStore(m.Seq, memBlob{meta: m, data: data}); taken {
		return os.ErrExist
	}
	return nil
}

func (b *memBackend) open(seq uint64) (Meta, []byte, error) {
	v, ok := b.blobs.Load(seq)
	if !ok {
		return Meta{}, nil, os.ErrNotExist
	}
	blob := v.(memBlob)
	return blob.meta, blob.data, nil
}

func (b *memBackend) remove(seq uint64) error {
	b.blobs.Delete(seq)
	return nil
}

// dirBackend keeps one file per snapshot, <seq>.snap, under a directory:
// a small envelope (magic, version, JSON metadata) followed by the codec
// bytes. Files are immutable once published.
type dirBackend struct {
	dir string
}

// envelope magic and version of the snapshot file framing (distinct from
// the snapshot codec version: the framing can evolve independently).
const (
	fileMagic   = "DASF"
	fileVersion = 1
)

func (b *dirBackend) path(seq uint64) string {
	return filepath.Join(b.dir, fmt.Sprintf("%012d.snap", seq))
}

func (b *dirBackend) quarantineDir() string { return filepath.Join(b.dir, "quarantine") }

// publish writes one snapshot file crash-safely and exclusively: temp file
// in the same directory, fsync, then a hard link to the final name — which
// fails when the name is already taken, instead of overwriting it as a
// rename would — then a directory sync. A crash mid-write leaves at worst a .tmp-* orphan.
func (b *dirBackend) publish(m Meta, data []byte) error {
	metaJSON, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w := &wire.Writer{}
	var hdr [6]byte
	copy(hdr[:], fileMagic)
	hdr[4] = fileVersion
	w.Raw(hdr[:])
	w.Int(len(metaJSON))
	w.Raw(metaJSON)
	w.Raw(data)

	tmp, err := writeTemp(b.dir, w.Bytes())
	if err != nil {
		return err
	}
	err = os.Link(tmp, b.path(m.Seq))
	os.Remove(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(b.dir)
}

// open reads the snapshot file whole and parses the envelope.
func (b *dirBackend) open(seq uint64) (Meta, []byte, error) {
	path := b.path(seq)
	raw, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: %w", err)
	}
	return parseSnapEnvelope(filepath.Base(path), raw)
}

func (b *dirBackend) remove(seq uint64) error {
	if err := os.Remove(b.path(seq)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// rescan lists what previous processes stored: the metadata of every
// snapshot file that reads back intact under the sequence its name
// encodes, and the highest sequence any file claims. Unreadable or
// corrupted files are skipped rather than failing the open — a damaged
// snapshot must not take down the store that holds the healthy ones — but
// still count toward claimed: a later Put must never link over bytes a
// better decoder could still recover. Orphans of crashed writes (.tmp-*,
// never linked, never visible) are removed.
func (b *dirBackend) rescan() (metas []Meta, claimed uint64, err error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(b.dir, name))
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".snap"), 10, 64)
		if err != nil || e.IsDir() || name != filepath.Base(b.path(seq)) {
			continue
		}
		claimed = max(claimed, seq)
		m, data, err := b.open(seq)
		if err == nil && m.Seq == seq && Hash(data) == m.Hash {
			metas = append(metas, m)
		}
	}
	return metas, claimed, nil
}

// quarantine parks the file stored under seq in the quarantine directory,
// byte for byte. Failing to park it (directory unwritable) must not leave
// corruption serveable, so the file leaves the serving path either way.
func (b *dirBackend) quarantine(seq uint64) {
	if err := os.MkdirAll(b.quarantineDir(), 0o755); err == nil {
		dest := filepath.Join(b.quarantineDir(), filepath.Base(b.path(seq)))
		if _, err := os.Stat(dest); err == nil {
			// A previous pass already parked this sequence; keep the first
			// evidence and make room for the fresh copy.
			dest += "." + strconv.Itoa(os.Getpid())
		}
		os.Rename(b.path(seq), dest)
	}
	os.Remove(b.path(seq))
}

// parseSnapEnvelope parses a snapshot file's envelope. The returned codec
// bytes alias raw.
func parseSnapEnvelope(name string, raw []byte) (Meta, []byte, error) {
	if len(raw) < 6 || string(raw[:4]) != fileMagic {
		return Meta{}, nil, fmt.Errorf("store: %s: not a snapshot file", name)
	}
	if raw[4] != fileVersion {
		return Meta{}, nil, fmt.Errorf("store: %s: file version %d not supported (this build reads %d)", name, raw[4], fileVersion)
	}
	r := wire.NewReader(raw[6:])
	n := r.Count(1)
	if r.Err() != nil || n > r.Remaining() {
		return Meta{}, nil, fmt.Errorf("store: %s: corrupt envelope", name)
	}
	rest := raw[len(raw)-r.Remaining():]
	metaJSON, data := rest[:n], rest[n:]
	var meta Meta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("store: %s: envelope metadata: %w", name, err)
	}
	return meta, data, nil
}

// syncDir flushes a directory's entry metadata so a just-published link
// or rename survives power loss, not only process crash. Open failure is
// real (the directory vanished); a failing Sync degrades silently — the
// snapshot bytes themselves are already fsynced, and some filesystems
// cannot sync a directory handle at all.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.Sync()
	d.Close()
	return nil
}

// writeTemp writes data durably to a fresh .tmp-* file in dir (write,
// fsync, close) and returns its path. The caller publishes it via link or
// rename and removes it on failure. The "store.write" injection point
// models the write failing before any byte lands — the transient-I/O case
// the server's retry loop exists for.
func writeTemp(dir string, data []byte) (string, error) {
	if err := faults.Inject("store.write"); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("store: %w", err)
	}
	return f.Name(), nil
}
