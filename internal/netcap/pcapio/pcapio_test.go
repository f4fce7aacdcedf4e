package pcapio

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func samplePackets() []Packet {
	return []Packet{
		{Timestamp: time.Unix(1696258845, 123456000).UTC(), Data: []byte{0x45, 0x00, 0x01, 0x02}, OrigLen: 4},
		{Timestamp: time.Unix(1696258846, 0).UTC(), Data: []byte{0xde, 0xad, 0xbe, 0xef, 0x01}, OrigLen: 9},
		{Timestamp: time.Unix(1696258847, 999999000).UTC(), Data: []byte{}, OrigLen: 0},
	}
}

func TestPcapRoundTripMicro(t *testing.T) {
	c := &Capture{LinkType: LinkRaw, Packets: samplePackets()}
	var buf bytes.Buffer
	if err := WritePcap(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := readCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.LinkType != LinkRaw {
		t.Errorf("link type = %d", got.LinkType)
	}
	if got.NanoRes {
		t.Error("NanoRes should be false for micro magic")
	}
	if !reflect.DeepEqual(normalize(got.Packets), normalize(c.Packets)) {
		t.Errorf("packets mismatch\n got %+v\nwant %+v", got.Packets, c.Packets)
	}
}

func TestPcapRoundTripNano(t *testing.T) {
	pkts := samplePackets()
	pkts[0].Timestamp = time.Unix(1696258845, 123456789).UTC()
	c := &Capture{LinkType: LinkEthernet, NanoRes: true, Packets: pkts}
	var buf bytes.Buffer
	if err := WritePcap(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := readCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.NanoRes {
		t.Error("NanoRes not detected")
	}
	if !got.Packets[0].Timestamp.Equal(pkts[0].Timestamp) {
		t.Errorf("nano timestamp lost: %v vs %v", got.Packets[0].Timestamp, pkts[0].Timestamp)
	}
}

func TestPcapBigEndianRead(t *testing.T) {
	// Hand-build a big-endian microsecond pcap with one packet.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], magicMicro)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[20:24], uint32(LinkEthernet))
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 100)
	binary.BigEndian.PutUint32(rec[4:8], 5)
	binary.BigEndian.PutUint32(rec[8:12], 3)
	binary.BigEndian.PutUint32(rec[12:16], 3)
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3})
	got, err := readCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != 1 {
		t.Fatalf("packets = %d", len(got.Packets))
	}
	want := time.Unix(100, 5000).UTC()
	if !got.Packets[0].Timestamp.Equal(want) {
		t.Errorf("ts = %v, want %v", got.Packets[0].Timestamp, want)
	}
}

func TestPcapErrors(t *testing.T) {
	if _, err := readCapture(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("short file accepted")
	}
	bad := make([]byte, 24)
	if _, err := readCapture(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated record.
	c := &Capture{LinkType: LinkRaw, Packets: samplePackets()}
	var buf bytes.Buffer
	_ = WritePcap(&buf, c)
	if _, err := readCapture(bytes.NewReader(buf.Bytes()[:buf.Len()-2])); err == nil {
		t.Error("truncated record accepted")
	}
}

func TestPcapngRoundTrip(t *testing.T) {
	c := &Capture{
		LinkType: LinkRaw,
		Packets:  samplePackets(),
		Secrets: [][]byte{
			[]byte("CLIENT_TRAFFIC_SECRET_0 aabb ccdd\n"),
			[]byte("SERVER_TRAFFIC_SECRET_0 aabb eeff\n"),
		},
	}
	var buf bytes.Buffer
	if err := WritePcapng(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := readCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.LinkType != LinkRaw {
		t.Errorf("link = %d", got.LinkType)
	}
	if len(got.Secrets) != 2 || !bytes.Equal(got.Secrets[0], c.Secrets[0]) {
		t.Errorf("secrets mismatch: %q", got.Secrets)
	}
	if !reflect.DeepEqual(normalize(got.Packets), normalize(c.Packets)) {
		t.Errorf("packets mismatch\n got %+v\nwant %+v", got.Packets, c.Packets)
	}
}

func TestPcapngNanoRoundTrip(t *testing.T) {
	pkts := []Packet{{Timestamp: time.Unix(1696258845, 123456789).UTC(), Data: []byte{9}, OrigLen: 1}}
	c := &Capture{LinkType: LinkEthernet, NanoRes: true, Packets: pkts}
	var buf bytes.Buffer
	if err := WritePcapng(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := readCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Packets[0].Timestamp.Equal(pkts[0].Timestamp) {
		t.Errorf("nano ts = %v, want %v", got.Packets[0].Timestamp, pkts[0].Timestamp)
	}
}

// TestAutoDetect checks NewReader tells the two formats apart by their
// leading magic.
func TestAutoDetect(t *testing.T) {
	c := &Capture{LinkType: LinkRaw, Packets: samplePackets()[:1]}
	var p, ng bytes.Buffer
	_ = WritePcap(&p, c)
	_ = WritePcapng(&ng, c)
	for _, data := range [][]byte{p.Bytes(), ng.Bytes()} {
		got, err := readCapture(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Packets) != 1 {
			t.Errorf("auto-detect lost packets: %d", len(got.Packets))
		}
	}
}

func TestPcapngSkipsUnknownBlocks(t *testing.T) {
	c := &Capture{LinkType: LinkRaw, Packets: samplePackets()[:1]}
	var buf bytes.Buffer
	_ = WritePcapng(&buf, c)
	// Append an unknown block type 0x99 with 4-byte body.
	blk := make([]byte, 16)
	binary.LittleEndian.PutUint32(blk[0:4], 0x99)
	binary.LittleEndian.PutUint32(blk[4:8], 16)
	binary.LittleEndian.PutUint32(blk[12:16], 16)
	buf.Write(blk)
	got, err := readCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != 1 {
		t.Errorf("packets = %d", len(got.Packets))
	}
}

func TestPcapngTruncated(t *testing.T) {
	c := &Capture{LinkType: LinkRaw, Packets: samplePackets()}
	var buf bytes.Buffer
	_ = WritePcapng(&buf, c)
	if _, err := readCapture(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Error("truncated pcapng accepted")
	}
}

// Property: write→read is the identity on packet data for arbitrary payloads.
func TestPcapRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, nano bool) bool {
		c := &Capture{LinkType: LinkRaw, NanoRes: nano}
		base := time.Unix(1700000000, 0)
		for i, p := range payloads {
			ns := i * 1001
			if !nano {
				ns = i * 1000
			}
			c.Packets = append(c.Packets, Packet{
				Timestamp: base.Add(time.Duration(ns)).UTC(),
				Data:      p,
				OrigLen:   len(p),
			})
		}
		var buf bytes.Buffer
		if err := WritePcap(&buf, c); err != nil {
			return false
		}
		got, err := readCapture(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(got.Packets), normalize(c.Packets))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// normalize maps nil and empty data slices to a canonical form for
// comparison.
func normalize(pkts []Packet) []Packet {
	out := make([]Packet, len(pkts))
	for i, p := range pkts {
		if len(p.Data) == 0 {
			p.Data = nil
		}
		out[i] = p
	}
	return out
}
