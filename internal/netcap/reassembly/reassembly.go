// Package reassembly reconstructs TCP byte streams from captured segments.
// It handles out-of-order arrival, retransmission, and overlapping segments,
// producing one ordered byte stream per flow direction: where segments
// overlap, the one with the lowest stream offset wins, ties going to the
// earliest arrival, and a hole ends the stream. It also counts TCP flows,
// the statistic reported in Table 1 of the DiffAudit paper.
package reassembly

import (
	"cmp"
	"slices"

	"diffaudit/internal/netcap/layers"
)

// Direction distinguishes the two halves of a bidirectional flow.
type Direction int

const (
	// ClientToServer is the canonical-forward direction.
	ClientToServer Direction = iota
	// ServerToClient is the reverse direction.
	ServerToClient
)

// segment is one TCP payload: its relative stream offset and its span in
// the direction's buffer.
type segment struct {
	offset uint64 // relative to the direction's initial sequence number
	lo, hi int    // buf[lo:hi] holds the payload
}

// half reassembles one direction of a flow. Payload is copied into buf in
// arrival order, so no captured frame stays referenced.
type half struct {
	initSeq    uint32
	hasInitSeq bool
	buf        []byte
	segments   []segment
	// reordered is set once a segment did not start exactly where the
	// bytes before it ended; until then buf is the stream itself.
	reordered bool
	sawSYN    bool
}

// add records one segment. The initial sequence number fixes relative
// offsets; SYN consumes one sequence number.
func (h *half) add(t *layers.TCP) {
	if !h.hasInitSeq {
		h.initSeq = t.Seq
		if t.SYN() {
			h.initSeq++
		}
		h.hasInitSeq = true
	}
	if t.SYN() {
		h.sawSYN = true
	}
	if len(t.Payload) == 0 {
		return
	}
	// Relative offset handles 32-bit sequence wraparound for streams under
	// 2^31 bytes by signed distance.
	off := int64(int32(t.Seq - h.initSeq))
	if off < 0 {
		return // before ISN: spurious retransmission
	}
	if uint64(off) != uint64(len(h.buf)) {
		h.reordered = true
	}
	lo := len(h.buf)
	if need := lo + len(t.Payload); need > cap(h.buf) {
		// Double, sized at first by the first segment: append grows a
		// large buffer by about 1.25×, copying a long stream many times
		// over before it stops growing.
		buf := make([]byte, lo, max(need, 2*cap(h.buf)))
		copy(buf, h.buf)
		h.buf = buf
	}
	h.buf = append(h.buf, t.Payload...)
	h.segments = append(h.segments, segment{offset: uint64(off), lo: lo, hi: len(h.buf)})
}

// bytes merges the segments into a contiguous prefix stream. Segments are
// taken in offset order, ties in arrival order; each contributes what it
// holds past the bytes already merged, and a hole ends the stream. A
// direction whose segments all arrived in order and contiguous from offset
// 0 merges to its buffer as it stands, which is returned without a copy.
func (h *half) bytes() []byte {
	if len(h.segments) == 0 {
		return nil
	}
	if !h.reordered {
		return h.buf[:len(h.buf):len(h.buf)]
	}
	slices.SortStableFunc(h.segments, func(a, b segment) int { return cmp.Compare(a.offset, b.offset) })
	var out []byte
	for _, s := range h.segments {
		end := uint64(len(out))
		switch {
		case s.offset > end:
			// Hole: stop at the gap.
			return out
		case s.offset+uint64(s.hi-s.lo) <= end:
			// Fully duplicate segment.
			continue
		default:
			out = append(out, h.buf[s.lo+int(end-s.offset):s.hi]...)
		}
	}
	return out
}

// Stream is a fully reassembled bidirectional TCP flow.
type Stream struct {
	Key layers.FlowKey
	// ClientData holds the canonical-forward byte stream, ServerData the
	// reverse stream. For outgoing-request auditing, ClientData is the
	// interesting half when the client initiated the flow.
	ClientData []byte
	ServerData []byte
	// Packets counts segments attributed to this flow.
	Packets int
	// SawSYN reports whether a SYN was observed (complete capture start).
	SawSYN bool
}

// Assembler accumulates segments and produces streams.
type Assembler struct {
	flows map[layers.FlowKey]*flowState
	order []layers.FlowKey
}

type flowState struct {
	fwd, rev half
	packets  int
	sawSYN   bool
}

// New returns an empty assembler.
func New() *Assembler {
	return &Assembler{flows: make(map[layers.FlowKey]*flowState)}
}

// Add feeds one decoded TCP packet into the assembler. Non-TCP packets are
// ignored.
func (a *Assembler) Add(d *layers.Decoded) {
	if d == nil || d.TCP == nil {
		return
	}
	key := d.Flow()
	st, ok := a.flows[key]
	if !ok {
		st = &flowState{}
		a.flows[key] = st
		a.order = append(a.order, key)
	}
	st.packets++
	if d.TCP.SYN() {
		st.sawSYN = true
	}
	h := &st.rev
	if d.Forward() {
		h = &st.fwd
	}
	h.add(d.TCP)
}

// FlowCount returns the number of distinct TCP flows observed.
func (a *Assembler) FlowCount() int { return len(a.flows) }

// Streams returns the reassembled flows in first-seen order. Direction
// attribution: the half that sent data from the lower endpoint maps to
// ClientData; for audits the caller distinguishes directions by endpoint.
func (a *Assembler) Streams() []*Stream {
	out := make([]*Stream, 0, len(a.flows))
	for _, key := range a.order {
		st := a.flows[key]
		out = append(out, &Stream{
			Key:        key,
			ClientData: st.fwd.bytes(),
			ServerData: st.rev.bytes(),
			Packets:    st.packets,
			SawSYN:     st.sawSYN,
		})
	}
	return out
}
