package dnsx

import (
	"math/rand"
	"testing"
)

// TestParseNeverPanics fuzzes the DNS parser.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	valid, _ := EncodeQuery(9, "fuzz.example.com", TypeA)
	for i := 0; i < 800; i++ {
		var data []byte
		if i%2 == 0 {
			data = make([]byte, rng.Intn(80))
			rng.Read(data)
		} else {
			data = append([]byte(nil), valid...)
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			data = data[:rng.Intn(len(data)+1)]
		}
		_, _ = Parse(data)
	}
}

// FuzzParse: Parse never panics, and what it returns is no larger than the
// input implies — every question takes at least 5 bytes after the 12-byte
// header (a 1-byte root name or 2-byte pointer, then type and class), and
// a name, at most 64 labels of at most 63 bytes, is under 4 KiB however
// its pointers are chained. Run with:
//
//	go test -run '^$' -fuzz FuzzParse ./internal/netcap/dnsx
func FuzzParse(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	valid, _ := EncodeQuery(9, "fuzz.example.com", TypeA)
	f.Add(valid)
	for i := 0; i < 8; i++ {
		random := make([]byte, rng.Intn(80))
		rng.Read(random)
		f.Add(random)
		mutated := append([]byte(nil), valid...)
		mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		f.Add(mutated[:rng.Intn(len(mutated)+1)])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		if m == nil || 12+5*len(m.Questions) > len(data) {
			t.Fatalf("%d questions from %d bytes", len(m.Questions), len(data))
		}
		for _, q := range m.Questions {
			if len(q.Name) >= 64*64 {
				t.Fatalf("%d-byte name from %d bytes", len(q.Name), len(data))
			}
		}
	})
}
