package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"diffaudit/internal/faults"
	"diffaudit/internal/wire"
)

// dirBackend keeps one file per snapshot, <seq>.snap, under a directory:
// a small envelope (magic, version, JSON metadata) followed by the codec
// bytes. Files are immutable once published. It is safe for concurrent
// use; Snapshots calls it with its index lock released.
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

// publish writes one snapshot file crash-safely and exclusively: temp file
// in the same directory, fsync, then a hard link to the final name — which
// fails with an error matching os.ErrExist, instead of overwriting the
// holder as a rename would — then a directory sync. A crash mid-write
// leaves at worst a .tmp-* orphan.
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

// open reads the snapshot file whole and parses the envelope; an error
// matching os.ErrNotExist means nothing is stored under seq.
func (b *dirBackend) open(seq uint64) (Meta, []byte, error) {
	path := b.path(seq)
	raw, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: %w", err)
	}
	return parseSnapEnvelope(filepath.Base(path), raw)
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
		if m, err := b.check(seq); err == nil {
			metas = append(metas, m)
		}
	}
	return metas, claimed, nil
}

// check reads the file stored under seq and returns its metadata when the
// file is intact: the envelope parses, records the sequence its name
// encodes, and names the content hash of the codec bytes it frames. Open's
// rescan applies it to every file it finds.
func (b *dirBackend) check(seq uint64) (Meta, error) {
	m, data, err := b.open(seq)
	if err != nil {
		return Meta{}, err
	}
	if m.Seq != seq {
		return Meta{}, fmt.Errorf("store: snapshot %d: file records sequence %d", seq, m.Seq)
	}
	if got := Hash(data); got != m.Hash {
		return Meta{}, fmt.Errorf("store: snapshot %d: content hash %s != recorded %s", seq, got, m.Hash)
	}
	return m, nil
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
// models the write failing before any byte lands.
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
