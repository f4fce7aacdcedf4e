package pcapio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// PacketSource is a pull-based packet iterator (Reader is the one over
// capture files). Next returns io.EOF at the end of the capture. A
// packet's Data is valid only until the following Next call: a caller that
// keeps the bytes past that copies them.
// LinkType and Secrets report capture metadata seen so far: for pcapng,
// the link type is known once the first Interface Description Block has
// been read (always before the first packet), and Decryption Secrets
// Blocks accumulate as they are encountered (writers emit them before
// packet blocks, so by convention all secrets are visible by EOF).
type PacketSource interface {
	Next() (Packet, error)
	LinkType() LinkType
	Secrets() [][]byte
}

// Reader streams packets out of a pcap or pcapng file without
// materializing the capture: only the current packet's bytes are resident,
// in one buffer every Next reuses, so multi-gigabyte captures iterate in
// constant memory and ordinary packets allocate nothing. It is the only
// capture parser: pcap and pcapng files are read through it alone.
type Reader struct {
	br   *bufio.Reader
	ng   bool // pcapng vs classic pcap
	err  error
	link LinkType
	nano bool
	// classic pcap state
	bo binary.ByteOrder
	// pcapng state
	ifaces  []ngIface
	secrets [][]byte
	// hdr is the per-record/block header scratch buffer: one reader
	// iterates millions of packets, so header reads must not allocate.
	hdr [24]byte
	// buf holds the current record or block; it grows to the longest one
	// read so far and is overwritten by the next.
	buf []byte
}

type ngIface struct {
	link    LinkType
	tsScale int64 // nanoseconds per tick
}

// NewReader returns a streaming packet reader, auto-detecting the capture
// format (pcap or pcapng) from the leading magic. For classic pcap the
// 24-byte file header is consumed immediately; for pcapng blocks are
// parsed lazily by Next.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, ErrShortFile
	}
	rd := &Reader{br: br}
	if binary.LittleEndian.Uint32(magic) == blockSHB {
		rd.ng = true
		return rd, nil
	}
	if err := rd.readPcapHeader(); err != nil {
		return nil, err
	}
	return rd, nil
}

// LinkType reports the capture link layer (for pcapng: of the first
// interface; 0 until an IDB has been read).
func (r *Reader) LinkType() LinkType { return r.link }

// NanoRes reports whether timestamps seen so far carry nanosecond
// resolution.
func (r *Reader) NanoRes() bool { return r.nano }

// Secrets returns the TLS key log payloads from Decryption Secrets Blocks
// encountered so far (nil for classic pcap).
func (r *Reader) Secrets() [][]byte { return r.secrets }

// Next returns the next packet, or io.EOF at a clean end of capture. A
// capture truncated mid-record yields ErrShortFile. Errors stick. The
// packet's Data is the reader's buffer, valid until the next call.
func (r *Reader) Next() (Packet, error) {
	if r.err != nil {
		return Packet{}, r.err
	}
	var pkt Packet
	var err error
	if r.ng {
		pkt, err = r.nextPcapng()
	} else {
		pkt, err = r.nextPcap()
	}
	if err != nil {
		r.err = err
		return Packet{}, err
	}
	return pkt, nil
}

// readPcapHeader consumes and validates the classic pcap file header.
func (r *Reader) readPcapHeader() error {
	hdr := r.hdr[:24]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		return ErrShortFile
	}
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == magicMicro:
		r.bo = binary.LittleEndian
	case magicLE == magicNano:
		r.bo, r.nano = binary.LittleEndian, true
	case magicBE == magicMicro:
		r.bo = binary.BigEndian
	case magicBE == magicNano:
		r.bo, r.nano = binary.BigEndian, true
	default:
		return fmt.Errorf("%w: %08x", ErrBadMagic, magicBE)
	}
	r.link = LinkType(r.bo.Uint32(hdr[20:24]))
	return nil
}

// nextPcap reads one classic pcap record.
func (r *Reader) nextPcap() (Packet, error) {
	hdr := r.hdr[:16]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, ErrShortFile
	}
	sec := r.bo.Uint32(hdr[0:4])
	frac := r.bo.Uint32(hdr[4:8])
	incl := int(r.bo.Uint32(hdr[8:12]))
	orig := int(r.bo.Uint32(hdr[12:16]))
	if incl < 0 || incl > maxPacketLen {
		return Packet{}, ErrShortFile
	}
	data, err := r.readN(incl)
	if err != nil {
		return Packet{}, err
	}
	ns := int64(frac)
	if !r.nano {
		ns *= 1000
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), ns).UTC(),
		Data:      data,
		OrigLen:   orig,
	}, nil
}

// maxPacketLen bounds a single record/block: a length field above it is
// corrupt, whatever the input holds.
const maxPacketLen = 256 << 20

// readChunk is the most readN grows its buffer ahead of the bytes it
// reads: a length field claiming more than the input holds costs about one
// chunk, not the claimed size.
const readChunk = 1 << 20

// readN reads the next n bytes into the reader's buffer, valid until the
// next call. A record up to readChunk (every ordinary packet) fits the
// buffer after the first few packets; a longer one is read a chunk at a
// time, the buffer doubling (up to n) only as bytes actually arrive.
func (r *Reader) readN(n int) ([]byte, error) {
	buf := r.buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), readChunk)
		if cap(buf)-len(buf) < step {
			grown := make([]byte, len(buf), min(n, max(2*cap(buf), len(buf)+step)))
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:len(buf)+step]
		if _, err := io.ReadFull(r.br, buf[len(buf)-step:]); err != nil {
			return nil, ErrShortFile
		}
	}
	r.buf = buf
	return buf, nil
}

// nextPcapng reads blocks until the next Enhanced or Simple Packet Block,
// accumulating interface descriptions and decryption secrets on the way.
func (r *Reader) nextPcapng() (Packet, error) {
	for {
		hdr := r.hdr[:8]
		if _, err := io.ReadFull(r.br, hdr); err != nil {
			if err == io.EOF {
				return Packet{}, io.EOF
			}
			return Packet{}, ErrShortFile
		}
		// SHB detection is endianness-independent: the block type is a
		// palindrome pattern by design.
		isSHB := binary.LittleEndian.Uint32(hdr[0:4]) == blockSHB ||
			binary.BigEndian.Uint32(hdr[0:4]) == blockSHB
		if isSHB {
			if err := r.readSectionHeader(hdr); err != nil {
				return Packet{}, err
			}
			continue
		}
		if r.bo == nil {
			return Packet{}, fmt.Errorf("%w: block before section header", ErrBadMagic)
		}
		btype := r.bo.Uint32(hdr[0:4])
		totalLen := int(r.bo.Uint32(hdr[4:8]))
		if totalLen < 12 || totalLen%4 != 0 || totalLen > maxPacketLen {
			return Packet{}, ErrShortFile
		}
		// Read body + trailing length word.
		rest, err := r.readN(totalLen - 8)
		if err != nil {
			return Packet{}, err
		}
		body := rest[:len(rest)-4]
		switch btype {
		case blockIDB:
			if err := r.readIDB(body); err != nil {
				return Packet{}, err
			}
		case blockEPB:
			pkt, err := r.readEPB(body)
			if err != nil {
				return Packet{}, err
			}
			return pkt, nil
		case blockDSB:
			if err := r.readDSB(body); err != nil {
				return Packet{}, err
			}
		default:
			// Unknown block: skip, as the format requires.
		}
	}
}

// readSectionHeader handles an SHB whose first 8 header bytes are already
// consumed: it determines section endianness from the byte-order magic and
// discards the rest of the block. Interfaces are per-section.
func (r *Reader) readSectionHeader(hdr []byte) error {
	bom := r.hdr[8:12] // hdr aliases r.hdr[:8]; the magic rides behind it
	if _, err := io.ReadFull(r.br, bom); err != nil {
		return ErrShortFile
	}
	switch {
	case binary.LittleEndian.Uint32(bom) == byteOrderMagic:
		r.bo = binary.LittleEndian
	case binary.BigEndian.Uint32(bom) == byteOrderMagic:
		r.bo = binary.BigEndian
	default:
		return fmt.Errorf("%w: bad byte-order magic", ErrBadMagic)
	}
	totalLen := int(r.bo.Uint32(hdr[4:8]))
	if totalLen < 16 || totalLen%4 != 0 || totalLen > maxPacketLen {
		return ErrShortFile
	}
	// Discard the remainder: body after the magic plus trailing length.
	if _, err := io.CopyN(io.Discard, r.br, int64(totalLen-12)); err != nil {
		return ErrShortFile
	}
	r.ifaces = r.ifaces[:0]
	return nil
}

// readIDB parses an Interface Description Block body.
func (r *Reader) readIDB(body []byte) error {
	if len(body) < 8 {
		return ErrShortFile
	}
	ifc := ngIface{
		link:    LinkType(r.bo.Uint16(body[0:2])),
		tsScale: 1000, // default: microseconds
	}
	// Scan options for if_tsresol (code 9).
	for opts := body[8:]; len(opts) >= 4; {
		code := r.bo.Uint16(opts[0:2])
		olen := int(r.bo.Uint16(opts[2:4]))
		if 4+olen > len(opts) {
			break
		}
		if code == 9 && olen >= 1 {
			res := opts[4]
			if res&0x80 == 0 {
				scale := int64(1_000_000_000)
				for i := 0; i < int(res); i++ {
					scale /= 10
				}
				if scale < 1 {
					scale = 1
				}
				ifc.tsScale = scale
			}
		}
		opts = opts[4+((olen+3)&^3):]
		if code == 0 { // opt_endofopt
			break
		}
	}
	r.ifaces = append(r.ifaces, ifc)
	return nil
}

// readEPB parses an Enhanced Packet Block body into a Packet whose Data is
// a sub-slice of the body, so of the reader's buffer.
func (r *Reader) readEPB(body []byte) (Packet, error) {
	if len(body) < 20 {
		return Packet{}, ErrShortFile
	}
	ifID := int(r.bo.Uint32(body[0:4]))
	tsHigh := uint64(r.bo.Uint32(body[4:8]))
	tsLow := uint64(r.bo.Uint32(body[8:12]))
	capLen := int(r.bo.Uint32(body[12:16]))
	origLen := int(r.bo.Uint32(body[16:20]))
	if capLen < 0 || 20+capLen > len(body) {
		return Packet{}, ErrShortFile
	}
	scale := int64(1000)
	if ifID < len(r.ifaces) {
		scale = r.ifaces[ifID].tsScale
		if r.link == 0 {
			r.link = r.ifaces[ifID].link
		}
	}
	ticks := tsHigh<<32 | tsLow
	ns := int64(ticks) * scale
	r.nano = r.nano || scale == 1
	return Packet{
		Timestamp: time.Unix(0, ns).UTC(),
		Data:      body[20 : 20+capLen],
		OrigLen:   origLen,
	}, nil
}

// readDSB parses a Decryption Secrets Block body, retaining TLS key logs
// (copied: the body is the reader's buffer).
func (r *Reader) readDSB(body []byte) error {
	if len(body) < 8 {
		return ErrShortFile
	}
	stype := r.bo.Uint32(body[0:4])
	slen := int(r.bo.Uint32(body[4:8]))
	if slen < 0 || 8+slen > len(body) {
		return ErrShortFile
	}
	if stype == secretsTLSKeys {
		r.secrets = append(r.secrets, append([]byte(nil), body[8:8+slen]...))
	}
	return nil
}
