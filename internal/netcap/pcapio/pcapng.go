package pcapio

import (
	"encoding/binary"
	"io"
)

// pcapng block types.
const (
	blockSHB = 0x0A0D0D0A // Section Header Block
	blockIDB = 0x00000001 // Interface Description Block
	blockEPB = 0x00000006 // Enhanced Packet Block
	blockDSB = 0x0000000A // Decryption Secrets Block
	blockSPB = 0x00000003 // Simple Packet Block

	byteOrderMagic = 0x1A2B3C4D
	secretsTLSKeys = 0x544c534b // "TLSK": TLS key log secrets
)

// WritePcapng serializes the capture as a single-section little-endian
// pcapng file with one interface. TLS secrets are embedded as Decryption
// Secrets Blocks before the packet blocks, mirroring editcap
// --inject-secrets output.
func WritePcapng(w io.Writer, c *Capture) error {
	bo := binary.LittleEndian
	writeBlock := func(btype uint32, body []byte) error {
		pad := (4 - len(body)%4) % 4
		total := 12 + len(body) + pad
		buf := make([]byte, total)
		bo.PutUint32(buf[0:4], btype)
		bo.PutUint32(buf[4:8], uint32(total))
		copy(buf[8:], body)
		bo.PutUint32(buf[total-4:], uint32(total))
		_, err := w.Write(buf)
		return err
	}

	// Section header.
	shb := make([]byte, 16)
	bo.PutUint32(shb[0:4], byteOrderMagic)
	bo.PutUint16(shb[4:6], 1) // major
	bo.PutUint16(shb[6:8], 0) // minor
	for i := 8; i < 16; i++ {
		shb[i] = 0xff // section length unknown
	}
	if err := writeBlock(blockSHB, shb); err != nil {
		return err
	}

	// Interface description with nanosecond resolution when needed.
	idb := make([]byte, 8)
	bo.PutUint16(idb[0:2], uint16(c.LinkType))
	bo.PutUint32(idb[4:8], 262144) // snaplen
	if c.NanoRes {
		// Option if_tsresol = 9 (10^-9), then end-of-options.
		opt := make([]byte, 8)
		bo.PutUint16(opt[0:2], 9)
		bo.PutUint16(opt[2:4], 1)
		opt[4] = 9
		idb = append(idb, opt...)
		end := make([]byte, 4)
		idb = append(idb, end...)
	}
	if err := writeBlock(blockIDB, idb); err != nil {
		return err
	}

	// Secrets first, so readers have keys before packets (per spec advice).
	for _, s := range c.Secrets {
		dsb := make([]byte, 8+len(s))
		bo.PutUint32(dsb[0:4], secretsTLSKeys)
		bo.PutUint32(dsb[4:8], uint32(len(s)))
		copy(dsb[8:], s)
		if err := writeBlock(blockDSB, dsb); err != nil {
			return err
		}
	}

	scale := int64(1000) // microsecond ticks
	if c.NanoRes {
		scale = 1
	}
	for _, p := range c.Packets {
		ticks := uint64(p.Timestamp.UnixNano() / scale)
		body := make([]byte, 20+len(p.Data))
		bo.PutUint32(body[0:4], 0) // interface 0
		bo.PutUint32(body[4:8], uint32(ticks>>32))
		bo.PutUint32(body[8:12], uint32(ticks))
		bo.PutUint32(body[12:16], uint32(len(p.Data)))
		orig := p.OrigLen
		if orig < len(p.Data) {
			orig = len(p.Data)
		}
		bo.PutUint32(body[16:20], uint32(orig))
		copy(body[20:], p.Data)
		if err := writeBlock(blockEPB, body); err != nil {
			return err
		}
	}
	return nil
}
