package reassembly

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"diffaudit/internal/netcap/layers"
	"diffaudit/internal/netcap/pcapio"
)

var (
	cli = netip.MustParseAddr("10.0.0.2")
	srv = netip.MustParseAddr("151.101.1.1")
)

// seg builds a decoded client→server TCP packet.
func seg(seq uint32, flags uint8, payload []byte) *layers.Decoded {
	raw := layers.BuildTCPv4(cli, srv, 40000, 443, seq, 0, flags, payload)
	d, err := layers.Decode(pcapio.LinkRaw, raw)
	if err != nil {
		panic(err)
	}
	return d
}

// segPort builds a client→server packet with an explicit source port.
func segPort(port uint16, seq uint32, flags uint8, payload []byte) *layers.Decoded {
	raw := layers.BuildTCPv4(cli, srv, port, 443, seq, 0, flags, payload)
	d, _ := layers.Decode(pcapio.LinkRaw, raw)
	return d
}

func TestInOrderReassembly(t *testing.T) {
	a := New()
	a.Add(seg(1000, layers.FlagSYN, nil))
	a.Add(seg(1001, layers.FlagACK, []byte("GET / HT")))
	a.Add(seg(1009, layers.FlagACK|layers.FlagPSH, []byte("TP/1.1\r\n\r\n")))
	streams := a.Streams()
	if len(streams) != 1 {
		t.Fatalf("streams = %d", len(streams))
	}
	got := clientBytes(streams[0])
	if string(got) != "GET / HTTP/1.1\r\n\r\n" {
		t.Errorf("stream = %q", got)
	}
	if !streams[0].SawSYN {
		t.Error("SYN not recorded")
	}
	if streams[0].Packets != 3 {
		t.Errorf("packets = %d", streams[0].Packets)
	}
}

// clientBytes returns whichever half carries the client's data (the
// canonical direction depends on address ordering).
func clientBytes(s *Stream) []byte {
	if len(s.ClientData) >= len(s.ServerData) {
		return s.ClientData
	}
	return s.ServerData
}

func TestOutOfOrderReassembly(t *testing.T) {
	a := New()
	a.Add(seg(1000, layers.FlagSYN, nil))
	a.Add(seg(1009, layers.FlagACK, []byte("TP/1.1\r\n\r\n"))) // arrives early
	a.Add(seg(1001, layers.FlagACK, []byte("GET / HT")))
	got := clientBytes(a.Streams()[0])
	if string(got) != "GET / HTTP/1.1\r\n\r\n" {
		t.Errorf("stream = %q", got)
	}
}

// TestDuplicateAndOverlap pins the merge rule: where segments overlap, the
// lowest stream offset wins, ties going to the earliest arrival. The
// conflicting rows retransmit different bytes over the same span, so they
// tell the rule apart from first-arrival-wins and last-arrival-wins.
func TestDuplicateAndOverlap(t *testing.T) {
	type in struct {
		seq  uint32
		data string
	}
	for _, tc := range []struct {
		name string
		segs []in
		want string
	}{
		{"agreeing retransmits", []in{{1, "abcdef"}, {1, "abcdef"}, {4, "defghi"}, {10, "jkl"}}, "abcdefghijkl"},
		// Same offset, different bytes: the earlier arrival wins.
		{"conflicting tie", []in{{1, "abc"}, {1, "xyz"}, {4, "def"}}, "abcdef"},
		// A later arrival at a lower offset wins over an earlier one at a
		// higher offset where they overlap: "ZW" lands before "de" is read.
		{"conflicting lower offset", []in{{1, "abc"}, {4, "def"}, {2, "XYZW"}}, "abcZWf"},
		// An earlier arrival at a lower offset keeps its bytes.
		{"conflicting higher offset", []in{{2, "XYZW"}, {1, "abc"}, {4, "def"}}, "abcZWf"},
		{"conflicting contained", []in{{1, "abcdef"}, {3, "XY"}}, "abcdef"},
	} {
		a := New()
		a.Add(seg(0, layers.FlagSYN, nil)) // offsets count from seq 1
		for _, sg := range tc.segs {
			a.Add(seg(sg.seq, 0, []byte(sg.data)))
		}
		if got := clientBytes(a.Streams()[0]); string(got) != tc.want {
			t.Errorf("%s: stream = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestInOrderStreamNotCopied: a direction whose segments all arrived in
// order is returned as the buffer it was assembled in, not a copy of it.
func TestInOrderStreamNotCopied(t *testing.T) {
	a := New()
	a.Add(seg(1000, layers.FlagSYN, nil))
	a.Add(seg(1001, layers.FlagACK, []byte("GET / HT")))
	a.Add(seg(1009, layers.FlagACK, []byte("TP/1.1\r\n\r\n")))
	first, second := clientBytes(a.Streams()[0]), clientBytes(a.Streams()[0])
	if string(first) != "GET / HTTP/1.1\r\n\r\n" || &first[0] != &second[0] {
		t.Errorf("in-order stream %q was copied or merged wrong", first)
	}
}

func TestGapStopsStream(t *testing.T) {
	a := New()
	a.Add(seg(1, 0, []byte("abc")))
	a.Add(seg(100, 0, []byte("zzz"))) // hole between 4 and 100
	got := clientBytes(a.Streams()[0])
	if string(got) != "abc" {
		t.Errorf("stream = %q, want abc (stop at hole)", got)
	}
}

func TestFlowCounting(t *testing.T) {
	a := New()
	for port := uint16(40000); port < 40010; port++ {
		a.Add(segPort(port, 1, layers.FlagSYN, nil))
		a.Add(segPort(port, 2, layers.FlagACK, []byte("x")))
	}
	if got := a.FlowCount(); got != 10 {
		t.Errorf("FlowCount = %d, want 10", got)
	}
	if got := len(a.Streams()); got != 10 {
		t.Errorf("streams = %d, want 10", got)
	}
}

func TestBidirectional(t *testing.T) {
	a := New()
	a.Add(seg(1, 0, []byte("request")))
	// Server response in the reverse direction.
	raw := layers.BuildTCPv4(srv, cli, 443, 40000, 500, 0, layers.FlagACK, []byte("response"))
	d, _ := layers.Decode(pcapio.LinkRaw, raw)
	a.Add(d)
	s := a.Streams()[0]
	both := string(s.ClientData) + "|" + string(s.ServerData)
	if both != "request|response" && both != "response|request" {
		t.Errorf("bidirectional = %q", both)
	}
	if a.FlowCount() != 1 {
		t.Errorf("reverse direction created a second flow")
	}
}

func TestNonTCPIgnored(t *testing.T) {
	a := New()
	a.Add(nil)
	a.Add(&layers.Decoded{UDP: &layers.UDP{}})
	if a.FlowCount() != 0 {
		t.Error("non-TCP input created flows")
	}
}

func TestSequenceWraparound(t *testing.T) {
	a := New()
	start := uint32(0xFFFFFFF0)
	a.Add(seg(start, layers.FlagSYN, nil))
	a.Add(seg(start+1, 0, []byte("abcdefghijklmno"))) // crosses 2^32
	a.Add(seg(start+16, 0, []byte("pqr")))
	got := clientBytes(a.Streams()[0])
	if string(got) != "abcdefghijklmnopqr" {
		t.Errorf("wraparound stream = %q", got)
	}
}

// Property: any permutation of segments with duplicates reassembles to the
// original stream.
func TestPermutationProperty(t *testing.T) {
	msg := []byte("POST /data HTTP/1.1\r\nHost: example.com\r\nContent-Length: 5\r\n\r\nhello")
	f := func(seed int64, dupMask uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		// Split the message into random chunks.
		var segs []*layers.Decoded
		base := uint32(1)
		for off := 0; off < len(msg); {
			n := 1 + rng.Intn(9)
			if off+n > len(msg) {
				n = len(msg) - off
			}
			segs = append(segs, seg(base+uint32(off), layers.FlagACK, msg[off:off+n]))
			off += n
		}
		// Duplicate some segments.
		for i, s := range segs {
			if dupMask&(1<<(i%16)) != 0 {
				segs = append(segs, s)
			}
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		a := New()
		a.Add(seg(0, layers.FlagSYN, nil))
		for _, s := range segs {
			a.Add(s)
		}
		return bytes.Equal(clientBytes(a.Streams()[0]), msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
