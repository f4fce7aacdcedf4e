package reassembly

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"diffaudit/internal/netcap/layers"
)

// refHalf is the reference reassembler: every segment keeps the payload
// slice it arrived with, and bytes sorts a copy of the list by offset
// (stable, so ties stay in arrival order) and merges it. Assembler must
// produce exactly what it does.
type refHalf struct {
	initSeq    uint32
	hasInitSeq bool
	segs       []refSegment
}

type refSegment struct {
	offset uint64
	data   []byte
}

func (h *refHalf) add(t *layers.TCP) {
	if !h.hasInitSeq {
		h.initSeq = t.Seq
		if t.SYN() {
			h.initSeq++
		}
		h.hasInitSeq = true
	}
	if len(t.Payload) == 0 {
		return
	}
	off := int64(int32(t.Seq - h.initSeq))
	if off < 0 {
		return
	}
	h.segs = append(h.segs, refSegment{offset: uint64(off), data: t.Payload})
}

func (h *refHalf) bytes() []byte {
	if len(h.segs) == 0 {
		return nil
	}
	segs := append([]refSegment(nil), h.segs...)
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].offset < segs[j].offset })
	var out []byte
	for _, s := range segs {
		end := uint64(len(out))
		switch {
		case s.offset > end:
			return out
		case s.offset+uint64(len(s.data)) <= end:
			continue
		default:
			out = append(out, s.data[end-s.offset:]...)
		}
	}
	return out
}

// fuzzOpLen is the size of one encoded segment in a FuzzAssembler input.
const fuzzOpLen = 5

// fuzzSegments decodes a FuzzAssembler input: a 4-byte initial sequence
// number, then one segment per 5 bytes. Byte 0 holds flags: bit 0 sends it
// server→client, bit 1 sets SYN, bit 2 moves it to a second flow. Bytes 1–2
// are a signed offset from the sequence number, byte 3 the payload length,
// and byte 4 the fill: 0 writes the bytes the stream "really" holds at that
// offset (a faithful retransmit), anything else conflicting bytes.
func fuzzSegments(data []byte) []*layers.Decoded {
	if len(data) < 4 {
		return nil
	}
	isn := binary.LittleEndian.Uint32(data)
	var out []*layers.Decoded
	for op := data[4:]; len(op) >= fuzzOpLen; op = op[fuzzOpLen:] {
		flags, fill, n := op[0], op[4], int(op[3])
		off := int32(int16(binary.LittleEndian.Uint16(op[1:3])))
		payload := make([]byte, n)
		for i := range payload {
			if fill == 0 {
				payload[i] = byte(int(off) + i)
			} else {
				payload[i] = fill ^ byte(i)
			}
		}
		cliPort := uint16(40000)
		if flags&4 != 0 {
			cliPort = 40001
		}
		d := &layers.Decoded{
			SrcIP: cli, DstIP: srv, SrcPort: cliPort, DstPort: 443,
			Protocol: layers.IPProtoTCP,
			TCP:      &layers.TCP{SrcPort: cliPort, DstPort: 443, Seq: isn + uint32(off), Payload: payload},
			Payload:  payload,
		}
		if flags&1 != 0 {
			d.SrcIP, d.DstIP, d.SrcPort, d.DstPort = srv, cli, 443, cliPort
			d.TCP.SrcPort, d.TCP.DstPort = 443, cliPort
			d.TCP.Seq = ^isn + uint32(off) // the other direction's own ISN
		}
		if flags&2 != 0 {
			d.TCP.Flags = layers.FlagSYN
		}
		out = append(out, d)
	}
	return out
}

// encodeFuzzSegment is the inverse of one fuzzSegments op, for seeds.
func encodeFuzzSegment(flags byte, off int16, n, fill byte) []byte {
	op := make([]byte, fuzzOpLen)
	op[0] = flags
	binary.LittleEndian.PutUint16(op[1:3], uint16(off))
	op[3], op[4] = n, fill
	return op
}

// FuzzAssembler feeds arbitrary segment sequences — random offsets, sequence
// numbers that wrap, duplicates, conflicting overlaps, holes, segments before
// the initial sequence number, two flows in both directions — to the
// Assembler and to refHalf. It must never panic, and every stream it returns
// must hold exactly the reference's bytes, in the reference's flow order.
func FuzzAssembler(f *testing.F) {
	seed := func(isn uint32, ops ...[]byte) {
		data := binary.LittleEndian.AppendUint32(nil, isn)
		for _, op := range ops {
			data = append(data, op...)
		}
		f.Add(data)
	}
	// In order, from a SYN.
	seed(1000, encodeFuzzSegment(2, -1, 0, 0), encodeFuzzSegment(0, 0, 8, 0), encodeFuzzSegment(0, 8, 8, 0), encodeFuzzSegment(1, 0, 20, 0))
	// Reordered with a faithful duplicate.
	seed(7, encodeFuzzSegment(0, 10, 10, 0), encodeFuzzSegment(0, 0, 10, 0), encodeFuzzSegment(0, 10, 10, 0))
	// Conflicting overlaps, a tie and a hole.
	seed(7, encodeFuzzSegment(0, 0, 3, 0), encodeFuzzSegment(0, 3, 3, 0), encodeFuzzSegment(0, 1, 4, 0x55),
		encodeFuzzSegment(0, 0, 3, 0x33), encodeFuzzSegment(0, 40, 5, 0))
	// Sequence numbers wrapping past 2^32, on two flows.
	seed(0xFFFFFFF0, encodeFuzzSegment(0, 0, 15, 0), encodeFuzzSegment(4, 0, 9, 0), encodeFuzzSegment(0, 15, 3, 0), encodeFuzzSegment(5, 0, 4, 0))
	// Before the initial sequence number.
	seed(100, encodeFuzzSegment(0, 0, 4, 0), encodeFuzzSegment(0, -3, 6, 9))

	f.Fuzz(func(t *testing.T, data []byte) {
		segs := fuzzSegments(data)
		a := New()
		type refFlow struct{ fwd, rev refHalf }
		ref := map[layers.FlowKey]*refFlow{}
		var order []layers.FlowKey
		for _, d := range segs {
			a.Add(d)
			key := d.Flow()
			st := ref[key]
			if st == nil {
				st = &refFlow{}
				ref[key] = st
				order = append(order, key)
			}
			if d.Forward() {
				st.fwd.add(d.TCP)
			} else {
				st.rev.add(d.TCP)
			}
		}
		got := a.Streams()
		if len(got) != len(order) || a.FlowCount() != len(order) {
			t.Fatalf("%d streams (%d flows), reference has %d", len(got), a.FlowCount(), len(order))
		}
		for i, s := range got {
			st := ref[order[i]]
			if s.Key != order[i] {
				t.Fatalf("stream %d is %v, reference has %v", i, s.Key, order[i])
			}
			if want := st.fwd.bytes(); !bytes.Equal(s.ClientData, want) {
				t.Fatalf("stream %d forward = %x, reference %x", i, s.ClientData, want)
			}
			if want := st.rev.bytes(); !bytes.Equal(s.ServerData, want) {
				t.Fatalf("stream %d reverse = %x, reference %x", i, s.ServerData, want)
			}
		}
	})
}
