package pcapio_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"diffaudit/internal/flows"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/synth"
)

// FuzzReader walks arbitrary bytes through the capture reader. It must
// never panic; the packet and secret bytes it returns never exceed the
// input, since each is a copy of a span of it; and its terminal result,
// io.EOF or an error, sticks. Seeds are synthetic captures in both formats,
// the pcapng ones carrying Decryption Secrets Blocks, plus headers whose
// length fields claim more than the input holds.
func FuzzReader(f *testing.F) {
	ds := synth.Generate(synth.Config{Scale: 0.002})
	for _, svc := range []string{"Quizlet", "Roblox"} {
		capt, err := ds.Service(svc).EmitPCAP(flows.Child)
		if err != nil {
			f.Fatal(err)
		}
		if len(capt.Secrets) == 0 {
			f.Fatalf("%s: synthetic capture carries no secrets", svc)
		}
		capt.Packets = capt.Packets[:min(len(capt.Packets), 12)]
		for _, write := range []func(io.Writer, *pcapio.Capture) error{pcapio.WritePcap, pcapio.WritePcapng} {
			var buf bytes.Buffer
			if err := write(&buf, capt); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	le := binary.LittleEndian
	pcap := make([]byte, 40)
	le.PutUint32(pcap[0:4], 0xa1b2c3d4)
	le.PutUint32(pcap[32:36], 200<<20)
	f.Add(pcap)
	ng := make([]byte, 36)
	le.PutUint32(ng[0:4], 0x0A0D0D0A)
	le.PutUint32(ng[4:8], 28)
	le.PutUint32(ng[8:12], 0x1A2B3C4D)
	le.PutUint32(ng[24:28], 28)
	le.PutUint32(ng[28:32], 6)
	le.PutUint32(ng[32:36], 200<<20)
	f.Add(ng)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := pcapio.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		total := 0
		for {
			pkt, err := rd.Next()
			if err != nil {
				if _, again := rd.Next(); again != err {
					t.Fatalf("terminal %v became %v", err, again)
				}
				break
			}
			total += len(pkt.Data)
		}
		for _, s := range rd.Secrets() {
			total += len(s)
		}
		if total > len(data) {
			t.Fatalf("%d bytes of packets and secrets out of a %d-byte input", total, len(data))
		}
	})
}
