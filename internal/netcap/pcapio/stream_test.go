package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"
)

// readCapture reads a capture file through NewReader into the document the
// writers take, for comparison with what was written. A packet's Data is
// the reader's buffer until the next Next, so each is copied before it is
// kept.
func readCapture(r io.Reader) (*Capture, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	c := &Capture{}
	for {
		pkt, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		pkt.Data = bytes.Clone(pkt.Data)
		c.Packets = append(c.Packets, pkt)
	}
	c.LinkType, c.NanoRes, c.Secrets = rd.LinkType(), rd.NanoRes(), rd.Secrets()
	return c, nil
}

// TestReaderMatchesSliceParsers proves the streaming reader yields exactly
// what was written, for both formats, whether it reads from the whole byte
// slice or one byte at a time: packets, link type and (pcapng only) secrets.
func TestReaderMatchesSliceParsers(t *testing.T) {
	c := &Capture{
		LinkType: LinkRaw,
		Packets:  samplePackets(),
		Secrets:  [][]byte{[]byte("CLIENT_TRAFFIC_SECRET_0 aa bb\n")},
	}
	var p, ng bytes.Buffer
	if err := WritePcap(&p, c); err != nil {
		t.Fatal(err)
	}
	if err := WritePcapng(&ng, c); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"pcap": p.Bytes(), "pcapng": ng.Bytes()} {
		want := c.Secrets
		if name == "pcap" {
			want = nil // classic pcap has nowhere to carry secrets
		}
		for how, r := range map[string]io.Reader{
			"whole":   bytes.NewReader(data),
			"onebyte": iotest.OneByteReader(bytes.NewReader(data)),
		} {
			got, err := readCapture(r)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, how, err)
			}
			if !reflect.DeepEqual(normalize(got.Packets), normalize(c.Packets)) {
				t.Errorf("%s/%s: packets differ from the written ones", name, how)
			}
			if got.LinkType != c.LinkType {
				t.Errorf("%s/%s: link = %d, want %d", name, how, got.LinkType, c.LinkType)
			}
			if !reflect.DeepEqual(got.Secrets, want) {
				t.Errorf("%s/%s: secrets = %q, want %q", name, how, got.Secrets, want)
			}
		}
	}
}

// TestReaderSmallReads streams a capture through a one-byte-at-a-time
// reader, exercising every ReadFull boundary.
func TestReaderSmallReads(t *testing.T) {
	c := &Capture{LinkType: LinkRaw, Packets: samplePackets()}
	var buf bytes.Buffer
	if err := WritePcapng(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := readCapture(iotest.OneByteReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != len(c.Packets) {
		t.Errorf("packets = %d, want %d", len(got.Packets), len(c.Packets))
	}
}

// TestReaderTruncation verifies truncated streams error instead of
// silently ending, at several cut points.
func TestReaderTruncation(t *testing.T) {
	c := &Capture{LinkType: LinkRaw, Packets: samplePackets()}
	var buf bytes.Buffer
	if err := WritePcap(&buf, c); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) - 1, len(data) - 17, 30} {
		rd, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // header-level truncation is an immediate error
		}
		var last error
		for last == nil {
			_, last = rd.Next()
		}
		if last == io.EOF {
			t.Errorf("cut %d: truncation not detected", cut)
		}
		// Errors stick.
		if _, again := rd.Next(); again != last {
			t.Errorf("cut %d: error did not stick", cut)
		}
	}
}

// TestHostileLengthAllocatesLittle feeds each format a header whose
// length field claims 200 MiB the input does not hold: the reader fails
// with ErrShortFile having allocated about a read chunk, not the claim.
func TestHostileLengthAllocatesLittle(t *testing.T) {
	const claim = 200 << 20
	le := binary.LittleEndian
	// Classic pcap: the 24-byte file header, then a record header whose
	// captured length is the claim.
	pcap := make([]byte, 24+16)
	le.PutUint32(pcap[0:4], magicMicro)
	le.PutUint32(pcap[20:24], uint32(LinkRaw))
	le.PutUint32(pcap[24+8:24+12], claim)
	// pcapng: a 28-byte Section Header Block, then the first 8 bytes of an
	// Enhanced Packet Block whose total length is the claim.
	ng := make([]byte, 28+8)
	le.PutUint32(ng[0:4], blockSHB)
	le.PutUint32(ng[4:8], 28)
	le.PutUint32(ng[8:12], byteOrderMagic)
	le.PutUint32(ng[24:28], 28)
	le.PutUint32(ng[28:32], blockEPB)
	le.PutUint32(ng[32:36], claim)

	for name, data := range map[string][]byte{"pcap": pcap, "pcapng": ng} {
		if len(data) >= 64 {
			t.Fatalf("%s: hostile input is %d bytes", name, len(data))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rd, err := NewReader(bytes.NewReader(data))
		if err == nil {
			_, err = rd.Next()
		}
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrShortFile) {
			t.Errorf("%s: err = %v, want ErrShortFile", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
			t.Errorf("%s: a %d-byte input allocated %d bytes", name, len(data), grew)
		}
	}
}

// TestLongRecordReadInChunks reads records longer than a read chunk, which
// arrive in pieces, and checks their bytes survive intact.
func TestLongRecordReadInChunks(t *testing.T) {
	big := make([]byte, 2*readChunk+3)
	for i := range big {
		big[i] = byte(i * 7)
	}
	c := &Capture{LinkType: LinkRaw, Packets: append(samplePackets(), Packet{
		Timestamp: samplePackets()[0].Timestamp, Data: big, OrigLen: len(big),
	})}
	for name, write := range map[string]func(io.Writer, *Capture) error{"pcap": WritePcap, "pcapng": WritePcapng} {
		var buf bytes.Buffer
		if err := write(&buf, c); err != nil {
			t.Fatal(err)
		}
		got, err := readCapture(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := len(got.Packets); n != len(c.Packets) || !bytes.Equal(got.Packets[n-1].Data, big) {
			t.Errorf("%s: long record not read back intact", name)
		}
	}
}

// TestRecordsAroundReadChunk reads records whose length sits at readChunk
// and one past it (for pcapng, the block read around the chunk, padded to
// four bytes) between two short packets, in both formats: the long record
// and the short ones around it survive a buffer that grows and is reused.
func TestRecordsAroundReadChunk(t *testing.T) {
	// A pcapng block read is 24 bytes of EPB fields and trailer around the
	// padded data.
	for _, n := range []int{readChunk - 24, readChunk - 23, readChunk, readChunk + 1} {
		long := make([]byte, n)
		for i := range long {
			long[i] = byte(i * 13)
		}
		pkts := samplePackets()
		c := &Capture{LinkType: LinkRaw, Packets: []Packet{pkts[0], {Timestamp: pkts[1].Timestamp, Data: long, OrigLen: n}, pkts[1]}}
		for name, write := range map[string]func(io.Writer, *Capture) error{"pcap": WritePcap, "pcapng": WritePcapng} {
			var buf bytes.Buffer
			if err := write(&buf, c); err != nil {
				t.Fatal(err)
			}
			got, err := readCapture(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/%d: %v", name, n, err)
			}
			if !reflect.DeepEqual(normalize(got.Packets), normalize(c.Packets)) {
				t.Errorf("%s/%d: packets differ from the written ones", name, n)
			}
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestRecordLengthAtMaxPacketLen puts a length field at maxPacketLen and one
// past it (for pcapng, the next length a block can have) in front of 3 MiB
// of body the claim outruns. At the limit the reader reads the body it is
// given, allocating about what arrived; one past, it refuses the record
// from its header alone.
func TestRecordLengthAtMaxPacketLen(t *testing.T) {
	le := binary.LittleEndian
	pcapHdr := func(claim int) []byte {
		h := make([]byte, 24+16)
		le.PutUint32(h[0:4], magicMicro)
		le.PutUint32(h[20:24], uint32(LinkRaw))
		le.PutUint32(h[24+8:24+12], uint32(claim))
		return h
	}
	ngHdr := func(claim int) []byte {
		h := make([]byte, 28+8)
		le.PutUint32(h[0:4], blockSHB)
		le.PutUint32(h[4:8], 28)
		le.PutUint32(h[8:12], byteOrderMagic)
		le.PutUint32(h[24:28], 28)
		le.PutUint32(h[28:32], blockEPB)
		le.PutUint32(h[32:36], uint32(claim))
		return h
	}
	const body = 3 << 20
	for _, tc := range []struct {
		name     string
		hdr      []byte
		readBody bool
	}{
		{"pcap/at", pcapHdr(maxPacketLen), true},
		{"pcap/past", pcapHdr(maxPacketLen + 1), false},
		{"pcapng/at", ngHdr(maxPacketLen), true},
		{"pcapng/past", ngHdr(maxPacketLen + 4), false},
	} {
		in := &countingReader{r: io.MultiReader(bytes.NewReader(tc.hdr), bytes.NewReader(make([]byte, body)))}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rd, err := NewReader(in)
		if err == nil {
			_, err = rd.Next()
		}
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrShortFile) {
			t.Errorf("%s: err = %v, want ErrShortFile", tc.name, err)
		}
		total := len(tc.hdr) + body
		if read := in.n == total; read != tc.readBody {
			t.Errorf("%s: read %d of %d input bytes, want the body read = %v", tc.name, in.n, total, tc.readBody)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 3*body {
			t.Errorf("%s: %d bytes of input allocated %d bytes", tc.name, total, grew)
		}
	}
}

// TestNextReusesPacketBuffer pins the buffer-lifetime contract from the
// other side: once the buffer has grown, reading a packet allocates nothing.
func TestNextReusesPacketBuffer(t *testing.T) {
	c := &Capture{LinkType: LinkRaw}
	for i := 0; i < 300; i++ {
		c.Packets = append(c.Packets, Packet{Timestamp: samplePackets()[0].Timestamp, Data: bytes.Repeat([]byte{byte(i)}, 1400), OrigLen: 1400})
	}
	for name, write := range map[string]func(io.Writer, *Capture) error{"pcap": WritePcap, "pcapng": WritePcapng} {
		var buf bytes.Buffer
		if err := write(&buf, c); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(len(c.Packets)-1, func() {
			pkt, err := rd.Next()
			if err != nil || !bytes.Equal(pkt.Data, c.Packets[i].Data) {
				t.Fatalf("%s: packet %d: err %v or data differs", name, i, err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per packet, want 0", name, allocs)
		}
	}
}
