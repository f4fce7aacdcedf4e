// Package pcapio reads and writes packet capture files in the classic
// libpcap format and the pcapng format. It is the substrate standing in for
// PCAPdroid's capture output in the DiffAudit paper: mobile traces arrive as
// pcap/pcapng files, optionally accompanied by TLS key material (embedded in
// pcapng Decryption Secrets Blocks, as produced by Wireshark's editcap
// --inject-secrets, or in a side-channel SSLKEYLOGFILE).
package pcapio

import (
	"encoding/binary"
	"errors"
	"io"
	"time"
)

// LinkType identifies the capture link layer.
type LinkType uint32

// Link types used by this project.
const (
	LinkEthernet LinkType = 1   // DLT_EN10MB
	LinkRaw      LinkType = 101 // DLT_RAW (bare IP, what PCAPdroid emits)
)

// Packet is one captured frame.
type Packet struct {
	// Timestamp is the capture time.
	Timestamp time.Time
	// Data is the captured bytes, starting at the link layer.
	Data []byte
	// OrigLen is the original wire length (>= len(Data) when truncated).
	OrigLen int
}

// Capture is an in-memory capture document for the writers: WritePcap and
// WritePcapng serialize it, and Reader is the only way back in.
type Capture struct {
	LinkType LinkType
	// NanoRes records whether timestamps carry nanosecond resolution.
	NanoRes bool
	Packets []Packet
	// Secrets holds TLS key log payloads found in pcapng Decryption
	// Secrets Blocks (empty for classic pcap).
	Secrets [][]byte
}

// Classic pcap magic numbers.
const (
	magicMicro = 0xa1b2c3d4
	magicNano  = 0xa1b23c4d
)

var (
	// ErrShortFile reports a truncated capture.
	ErrShortFile = errors.New("pcapio: truncated capture file")
	// ErrBadMagic reports an unrecognized file magic.
	ErrBadMagic = errors.New("pcapio: unrecognized magic")
)

// WritePcap serializes the capture as a little-endian classic pcap file,
// using the nanosecond magic when c.NanoRes is set.
func WritePcap(w io.Writer, c *Capture) error {
	bo := binary.LittleEndian
	hdr := make([]byte, 24)
	magic := uint32(magicMicro)
	if c.NanoRes {
		magic = magicNano
	}
	bo.PutUint32(hdr[0:4], magic)
	bo.PutUint16(hdr[4:6], 2) // version major
	bo.PutUint16(hdr[6:8], 4) // version minor
	bo.PutUint32(hdr[16:20], 262144)
	bo.PutUint32(hdr[20:24], uint32(c.LinkType))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, 16)
	for _, p := range c.Packets {
		sec := p.Timestamp.Unix()
		frac := int64(p.Timestamp.Nanosecond())
		if !c.NanoRes {
			frac /= 1000
		}
		bo.PutUint32(rec[0:4], uint32(sec))
		bo.PutUint32(rec[4:8], uint32(frac))
		bo.PutUint32(rec[8:12], uint32(len(p.Data)))
		orig := p.OrigLen
		if orig < len(p.Data) {
			orig = len(p.Data)
		}
		bo.PutUint32(rec[12:16], uint32(orig))
		if _, err := w.Write(rec); err != nil {
			return err
		}
		if _, err := w.Write(p.Data); err != nil {
			return err
		}
	}
	return nil
}
