package pcapio

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestReadNeverPanics feeds random and mutated-valid bytes to the readers;
// they must return errors, never panic.
func TestReadNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var valid bytes.Buffer
	_ = WritePcap(&valid, &Capture{LinkType: LinkRaw, Packets: samplePackets()})
	var validNG bytes.Buffer
	_ = WritePcapng(&validNG, &Capture{LinkType: LinkRaw, Packets: samplePackets(), Secrets: [][]byte{[]byte("x y z\n")}})

	for i := 0; i < 500; i++ {
		var data []byte
		switch i % 3 {
		case 0: // random bytes
			data = make([]byte, rng.Intn(200))
			rng.Read(data)
		case 1: // mutated valid pcap
			data = append([]byte(nil), valid.Bytes()...)
			if len(data) > 0 {
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			}
			data = data[:rng.Intn(len(data)+1)]
		default: // mutated valid pcapng
			data = append([]byte(nil), validNG.Bytes()...)
			if len(data) > 0 {
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			}
			data = data[:rng.Intn(len(data)+1)]
		}
		_, _ = readCapture(bytes.NewReader(data)) // must not panic
	}
}
