// Snapshot integrity scrubbing: proactive detection of at-rest
// corruption. The store already *tolerates* corruption — a
// damaged file is skipped at open, and every Load checks the CRC — but
// tolerance is reactive: the damage is discovered by whichever request
// trips over it, and until then the store advertises a snapshot it cannot
// serve. A scrub pass walks every listed snapshot, re-verifies the whole
// chain of custody with the check Open's rescan applies (envelope parse,
// sequence, SHA-256 content hash) against the listed metadata, and
// handles what it finds:
//
//   - Corrupt files are moved to <dir>/quarantine/ — off the serving
//     path but preserved byte-for-byte, because a later build (or a
//     human with a hex editor) may recover what this one cannot, and
//     because deleting evidence of silent corruption is how you never
//     find the bad disk. Every copy is kept: a sequence corrupted again
//     after a repair parks as <seq>.snap.1, .2, … beside the first.
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
	// Corrupt is how many failed verification (envelope, sequence or
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

// ScrubPass is one low-priority walk over every listed snapshot. fetch,
// when non-nil, maps a content hash to clean encoded bytes for repair
// (return false when no clean copy exists). File I/O happens outside the
// store lock — a pass over a large store must not stall Puts — and each
// corrupt file is handled under the lock with a re-check, so a concurrent
// Delete cannot race the quarantine into resurrecting metadata.
func (s *Snapshots) ScrubPass(fetch func(hash string) ([]byte, bool)) ScrubResult {
	var res ScrubResult
	metas, _ := s.List()
	for _, m := range metas {
		res.Scanned++
		if s.verify(m) == nil {
			continue
		}
		res.Corrupt++
		if s.quarantineAndMaybeRepair(m, fetch) {
			res.Repaired++
		} else {
			res.Quarantined++
		}
	}
	return res
}

// verify re-verifies one stored snapshot end to end: the file passes the
// rescan check (dirBackend.check) and records the hash the listing names.
// The codec CRC needs no pass of its own: it sits inside the hashed bytes,
// so it cannot fail once the SHA-256 matches. Any failure — including a
// missing file, which the quarantine path tolerates — reports corrupt.
func (s *Snapshots) verify(m Meta) error {
	if err := faults.Inject("scrub.corrupt"); err != nil {
		return fmt.Errorf("store: scrub: %w", err)
	}
	stored, err := s.files.check(m.Seq)
	if err != nil {
		return err
	}
	if stored.Hash != m.Hash {
		return fmt.Errorf("store: scrub: snapshot %d hash %s != listed %s", m.Seq, stored.Hash, m.Hash)
	}
	return nil
}

// quarantineAndMaybeRepair moves a corrupt snapshot file into the
// quarantine directory and, when clean bytes are available, republishes
// the file in place. Returns true when the snapshot was repaired and
// keeps serving; false when it was quarantined and dropped from the
// listing.
func (s *Snapshots) quarantineAndMaybeRepair(m Meta, fetch func(hash string) ([]byte, bool)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: a concurrent Delete may have removed the
	// snapshot while verification ran; there is nothing left to handle.
	if cur, live := s.ix.at(m.Seq); !live || cur.Hash != m.Hash {
		return false
	}
	s.files.quarantine(m.Seq)
	if fetch != nil {
		if data, ok := fetch(m.Hash); ok && Hash(data) == m.Hash {
			if err := s.files.publish(m, data); err == nil {
				return true // metadata stays; the snapshot never stopped serving
			}
		}
	}
	// No clean copy: drop the listing so reads 404 instead of 500.
	s.ix.drop(m.Seq)
	return false
}
