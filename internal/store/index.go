package store

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// index is the in-memory catalogue of a store's snapshots and the one
// place a user-facing reference is turned into a snapshot: the
// seq-ascending meta list (listing, pagination, binary search by
// sequence) plus hash → newest seq and job ID → newest seq maps kept in
// step on insert, so sequence, full-hash and job-ID references resolve
// without touching the list. The store is append-only — nothing removes a
// snapshot — so the list only grows and both maps only move forward.
// Only hash prefixes scan. An index is not safe for concurrent use;
// Snapshots guards it with its mutex.
type index struct {
	metas   []Meta // ascending seq
	nextSeq uint64
	byHash  map[string]uint64 // content hash → newest seq holding it
	byJob   map[string]uint64 // non-empty job ID → newest seq recorded under it
}

func newIndex() index {
	return index{nextSeq: 1, byHash: map[string]uint64{}, byJob: map[string]uint64{}}
}

// reserve hands out the next sequence number.
func (ix *index) reserve() uint64 {
	seq := ix.nextSeq
	ix.nextSeq++
	return seq
}

// fence moves the sequence counter past seq: a number something else
// already claims (a foreign writer, an unreadable file) is never reserved.
func (ix *index) fence(seq uint64) {
	if seq >= ix.nextSeq {
		ix.nextSeq = seq + 1
	}
}

// find returns the position of seq in the meta list, or where it would go.
func (ix *index) find(seq uint64) (int, bool) {
	i := sort.Search(len(ix.metas), func(i int) bool { return ix.metas[i].Seq >= seq })
	return i, i < len(ix.metas) && ix.metas[i].Seq == seq
}

// at returns the meta stored under exactly seq.
func (ix *index) at(seq uint64) (Meta, bool) {
	if i, ok := ix.find(seq); ok {
		return ix.metas[i], true
	}
	return Meta{}, false
}

// insert publishes m. Concurrent Puts reserve sequence numbers in order
// but can finish out of order, so m goes where its sequence sorts and the
// maps only ever move forward.
func (ix *index) insert(m Meta) {
	i, _ := ix.find(m.Seq)
	ix.metas = append(ix.metas, Meta{})
	copy(ix.metas[i+1:], ix.metas[i:])
	ix.metas[i] = m
	ix.fence(m.Seq)
	if cur, ok := ix.byHash[m.Hash]; !ok || m.Seq > cur {
		ix.byHash[m.Hash] = m.Seq
	}
	if cur, ok := ix.byJob[m.JobID]; m.JobID != "" && (!ok || m.Seq > cur) {
		ix.byJob[m.JobID] = m.Seq
	}
}

// job returns the newest snapshot recorded under exactly this job ID —
// never a sequence, hash or prefix that happens to spell the same.
func (ix *index) job(jobID string) (Meta, bool) {
	seq, ok := ix.byJob[jobID]
	if !ok {
		return Meta{}, false
	}
	return ix.at(seq)
}

// resolve implements the contract Store.Resolve documents.
func (ix *index) resolve(ref string) (Meta, error) {
	ref = strings.TrimSpace(ref)
	if ref == "" {
		return Meta{}, fmt.Errorf("store: %w: empty reference", ErrUnresolved)
	}
	if seq, err := strconv.ParseUint(ref, 10, 64); err == nil {
		if m, ok := ix.at(seq); ok {
			return m, nil
		}
		// No such sequence — fall through: an all-digit reference can
		// still be a valid hash prefix (≈6% of hex hashes open with six
		// decimal digits) or an all-digit job ID.
	}
	// A job ID resolves to its latest snapshot (a re-run job overwrites
	// nothing; the newer audit wins), and takes precedence over a hash
	// prefix that happens to collide with it.
	if m, ok := ix.job(ref); ok {
		return m, nil
	}
	// Full hashes are a map hit (hashes have one length, so a full hash is
	// never also a proper prefix of another); prefixes are the rare path and
	// scan the distinct hashes. Identical content stored twice is one hash
	// and resolves to its newest copy; a prefix spanning different contents
	// is ambiguous.
	seq, ok := ix.byHash[ref]
	if !ok && len(ref) >= 6 {
		matches := 0
		for hash, newest := range ix.byHash {
			if strings.HasPrefix(hash, ref) {
				matches, seq = matches+1, newest
			}
		}
		if matches > 1 {
			return Meta{}, fmt.Errorf("store: %w: %q is ambiguous (%d distinct snapshots match)", ErrUnresolved, ref, matches)
		}
		ok = matches == 1
	}
	if m, listed := ix.at(seq); ok && listed {
		return m, nil
	}
	return Meta{}, fmt.Errorf("store: %w: no snapshot matches %q", ErrUnresolved, ref)
}

// page copies up to limit metas with a sequence above after (limit 0: all
// of them) and reports whether more remain past the page.
func (ix *index) page(after uint64, limit int) (page []Meta, more bool) {
	i := sort.Search(len(ix.metas), func(i int) bool { return ix.metas[i].Seq > after })
	rest := ix.metas[i:]
	if limit > 0 && len(rest) > limit {
		rest, more = rest[:limit], true
	}
	return append([]Meta(nil), rest...), more
}
