// Snapshot integrity scrubbing: proactive detection of at-rest
// corruption. The directory backend already *tolerates* corruption — a
// damaged file is skipped at open, and every Load checks the CRC — but
// tolerance is reactive: the damage is discovered by whichever request
// trips over it, and until then the store advertises a snapshot it cannot
// serve. A scrub pass walks every listed snapshot, re-verifies the whole
// chain of custody (envelope parse, codec CRC32, SHA-256 content hash
// against the listed metadata), and handles what it finds:
//
//   - Corrupt files are moved to <dir>/quarantine/ — off the serving
//     path but preserved byte-for-byte, because a later build (or a
//     human with a hex editor) may recover what this one cannot, and
//     because deleting evidence of silent corruption is how you never
//     find the bad disk.
//   - If the caller can produce clean bytes for the snapshot's content
//     hash (the server offers re-encoded results from its decoded-
//     snapshot cache), the file is rewritten in place from those bytes
//     and the snapshot keeps serving as if nothing happened.
//   - Otherwise the metadata is dropped: subsequent reads answer 404
//     (the reference no longer resolves) instead of 500.
//
// The "scrub.corrupt" injection point makes the verifier report a file
// corrupt without real disk damage, so chaos tests drive the quarantine
// and repair paths deterministically.
package store

import (
	"fmt"

	"diffaudit/internal/faults"
)

// ScrubResult counts what one scrub pass found and did.
type ScrubResult struct {
	// Scanned is how many listed snapshots were verified.
	Scanned int `json:"scanned"`
	// Corrupt is how many failed verification (envelope, CRC, or
	// content hash). Corrupt == Repaired + Quarantined.
	Corrupt int `json:"corrupt"`
	// Repaired is how many corrupt snapshots were rewritten from clean
	// bytes the caller supplied and kept serving.
	Repaired int `json:"repaired"`
	// Quarantined is how many corrupt snapshots were moved aside and
	// dropped from the listing.
	Quarantined int `json:"quarantined"`
}

// Add accumulates another pass's counts (the server's cumulative
// healthz totals).
func (r *ScrubResult) Add(o ScrubResult) {
	r.Scanned += o.Scanned
	r.Corrupt += o.Corrupt
	r.Repaired += o.Repaired
	r.Quarantined += o.Quarantined
}

// QuarantineDir is where a scrub pass parks corrupt snapshot files. It is
// "" when the store keeps nothing at rest (the memory backend: corruption
// there is a RAM problem, not ours) and so has nothing to scrub.
func (s *Snapshots) QuarantineDir() string {
	if d, ok := s.blobs.(*dirBackend); ok {
		return d.quarantineDir()
	}
	return ""
}

// ScrubPass is one low-priority walk over every listed snapshot of a
// directory-backed store. fetch, when non-nil, maps a content hash to
// clean encoded bytes for repair (return false when no clean copy exists).
// File I/O happens outside the store lock — a pass over a large store must
// not stall Puts — and each corrupt file is handled under the lock with a
// re-check, so a concurrent Delete cannot race the quarantine into
// resurrecting metadata.
func (s *Snapshots) ScrubPass(fetch func(hash string) ([]byte, bool)) ScrubResult {
	var res ScrubResult
	d, ok := s.blobs.(*dirBackend)
	if !ok {
		return res
	}
	metas, _ := s.List()
	for _, m := range metas {
		res.Scanned++
		if s.verify(m) == nil {
			continue
		}
		res.Corrupt++
		if s.quarantineAndMaybeRepair(d, m, fetch) {
			res.Repaired++
		} else {
			res.Quarantined++
		}
	}
	return res
}

// verify re-verifies one stored snapshot end to end: what every open
// checks (readable envelope whose recorded hash matches the listed
// metadata), then the codec CRC32 (cheap, catches truncation and bit rot
// inside the codec frame), then the SHA-256 content hash (end-to-end,
// catches everything else including a consistently re-written wrong
// snapshot). Any failure — including a missing file, which the quarantine
// path tolerates — reports corrupt.
func (s *Snapshots) verify(m Meta) error {
	if err := faults.Inject("scrub.corrupt"); err != nil {
		return fmt.Errorf("store: scrub: %w", err)
	}
	data, err := s.open(m)
	if err != nil {
		return err
	}
	if _, err := checkSnapshot(data); err != nil {
		return fmt.Errorf("store: scrub: snapshot %d: %w", m.Seq, err)
	}
	if got := Hash(data); got != m.Hash {
		return fmt.Errorf("store: scrub: snapshot %d content hash %s != listed %s", m.Seq, got, m.Hash)
	}
	return nil
}

// quarantineAndMaybeRepair moves a corrupt snapshot file into the
// quarantine directory and, when clean bytes are available, republishes
// the file in place. Returns true when the snapshot was repaired and
// keeps serving; false when it was quarantined and dropped from the
// listing.
func (s *Snapshots) quarantineAndMaybeRepair(d *dirBackend, m Meta, fetch func(hash string) ([]byte, bool)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: a concurrent Delete may have removed the
	// snapshot while verification ran; there is nothing left to handle.
	if cur, live := s.ix.at(m.Seq); !live || cur.Hash != m.Hash {
		return false
	}
	d.quarantine(m.Seq)
	if fetch != nil {
		if data, ok := fetch(m.Hash); ok && Hash(data) == m.Hash {
			if err := d.publish(m, data); err == nil {
				return true // metadata stays; the snapshot never stopped serving
			}
		}
	}
	// No clean copy: drop the listing so reads 404 instead of 500.
	s.ix.drop(m.Seq)
	return false
}
