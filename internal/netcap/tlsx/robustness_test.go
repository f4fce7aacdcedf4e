package tlsx

import (
	"math/rand"
	"testing"
)

// TestParsersNeverPanic fuzzes the TLS parsers with random and mutated
// bytes.
func TestParsersNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	random := testRandom(1)
	validCH := BuildClientHello(random, "fuzz.example")
	validSH := BuildServerHello(random, 0x009C)
	validRec := Record{Type: TypeHandshake, Payload: validCH}.Encode()

	mutate := func(src []byte) []byte {
		data := append([]byte(nil), src...)
		if len(data) > 0 {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		return data[:rng.Intn(len(data)+1)]
	}
	for i := 0; i < 800; i++ {
		var data []byte
		switch i % 4 {
		case 0:
			data = make([]byte, rng.Intn(120))
			rng.Read(data)
		case 1:
			data = mutate(validCH)
		case 2:
			data = mutate(validSH)
		default:
			data = mutate(validRec)
		}
		_, _ = ParseRecords(data)
		_, _ = ParseClientHello(data)
		_, _ = ParseServerHello(data)
		_, _ = ParseKeyLog(data)
		_, _ = NewStreamDecryptor(nil).DecryptConversation(data, data)
	}
}

// FuzzParseKeyLog: ParseKeyLog never panics, and a key log it accepts is no
// larger than its text implies — every entry takes a line of at least 7
// bytes ("L rr ss"), and every stored secret byte two hex digits. Run with:
//
//	go test -run '^$' -fuzz FuzzParseKeyLog ./internal/netcap/tlsx
func FuzzParseKeyLog(f *testing.F) {
	random := testRandom(1)
	f.Add(BuildClientHello(random, "fuzz.example"))
	f.Add(BuildServerHello(random, 0x009C))
	f.Add(Record{Type: TypeHandshake, Payload: BuildClientHello(random, "fuzz.example")}.Encode())
	f.Add([]byte("# comment\n" + FormatLine("CLIENT_RANDOM", random[:], random[:]) + FormatLine("L", []byte{1}, []byte{2})))
	f.Add([]byte("CLIENT_RANDOM zz 00\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		kl, err := ParseKeyLog(data)
		if err != nil {
			return
		}
		if 7*kl.Len() > len(data) {
			t.Fatalf("%d entries from %d bytes", kl.Len(), len(data))
		}
		stored := 0
		for _, s := range kl.secrets {
			stored += len(s)
		}
		if 2*stored > len(data) {
			t.Fatalf("%d secret bytes from %d bytes", stored, len(data))
		}
	})
}
