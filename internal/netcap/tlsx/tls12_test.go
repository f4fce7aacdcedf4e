package tlsx

import (
	"bytes"
	"testing"
	"testing/quick"
)

func master(b byte) []byte {
	m := make([]byte, 48)
	for i := range m {
		m[i] = b ^ byte(i*3)
	}
	return m
}

func TestPRF12Deterministic(t *testing.T) {
	a := prf12(master(1), "key expansion", []byte("seed"), 40)
	b := prf12(master(1), "key expansion", []byte("seed"), 40)
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	if len(a) != 40 {
		t.Fatalf("len = %d", len(a))
	}
	c := prf12(master(1), "key expansion", []byte("other"), 40)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced equal output")
	}
	d := prf12(master(2), "key expansion", []byte("seed"), 40)
	if bytes.Equal(a, d) {
		t.Fatal("different secrets produced equal output")
	}
}

func TestSession12SealOpen(t *testing.T) {
	cr, sr := testRandom(1), testRandom(2)
	enc, err := NewSession12(master(7), cr[:], sr[:])
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewSession12(master(7), cr[:], sr[:])
	msgs := [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: legacy.example\r\n\r\n"),
		[]byte("POST /x HTTP/1.1\r\n\r\n{}"),
		bytes.Repeat([]byte{0x42}, 3000),
	}
	for i, msg := range msgs {
		rec := enc.Seal(TypeApplicationData, msg)
		records, err := ParseRecords(rec)
		if err != nil || len(records) != 1 {
			t.Fatalf("msg %d: parse: %v", i, err)
		}
		pt, err := dec.AppendOpen(nil, TypeApplicationData, records[0].Payload)
		if err != nil {
			t.Fatalf("msg %d: open: %v", i, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Errorf("msg %d: plaintext mismatch", i)
		}
	}
}

func TestSession12WrongKeysFail(t *testing.T) {
	cr, sr := testRandom(1), testRandom(2)
	enc, _ := NewSession12(master(1), cr[:], sr[:])
	rec := enc.Seal(TypeApplicationData, []byte("secret"))
	records, _ := ParseRecords(rec)

	wrongMaster, _ := NewSession12(master(2), cr[:], sr[:])
	if _, err := wrongMaster.AppendOpen(nil, TypeApplicationData, records[0].Payload); err == nil {
		t.Error("wrong master secret decrypted")
	}
	otherSR := testRandom(9)
	wrongRandom, _ := NewSession12(master(1), cr[:], otherSR[:])
	if _, err := wrongRandom.AppendOpen(nil, TypeApplicationData, records[0].Payload); err == nil {
		t.Error("wrong server random decrypted")
	}
}

func TestNewSession12BadMaster(t *testing.T) {
	cr, sr := testRandom(1), testRandom(2)
	if _, err := NewSession12([]byte("short"), cr[:], sr[:]); err == nil {
		t.Error("short master secret accepted")
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	random := testRandom(5)
	msg := BuildServerHello(random, 0x009C) // TLS_RSA_WITH_AES_128_GCM_SHA256
	sh, err := ParseServerHello(msg)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Random != random || sh.CipherSuite != 0x009C || sh.NegotiatedTLS13 {
		t.Errorf("server hello = %+v", sh)
	}
	if _, err := ParseServerHello(msg[:10]); err == nil {
		t.Error("truncated ServerHello accepted")
	}
	if _, err := ParseServerHello([]byte{1, 0, 0, 0}); err == nil {
		t.Error("ClientHello type accepted as ServerHello")
	}
}

func TestDecryptConversationTLS12(t *testing.T) {
	cr := testRandom(3)
	sr := testRandom(4)
	ms := master(3)
	plaintext := []byte("POST /v1/events HTTP/1.1\r\nHost: legacy.quizlet.com\r\n\r\n{\"language\":\"en\"}")

	// Client stream: TLS 1.2 ClientHello (no supported_versions → 1.2
	// negotiation) followed by encrypted application data.
	chMsg := BuildClientHello12(cr, "legacy.quizlet.com")
	var clientStream []byte
	clientStream = append(clientStream, Record{Type: TypeHandshake, Payload: chMsg}.Encode()...)
	enc, _ := NewSession12(ms, cr[:], sr[:])
	clientStream = append(clientStream, enc.Seal(TypeApplicationData, plaintext)...)

	// Server stream: ServerHello.
	serverStream := Record{Type: TypeHandshake, Payload: BuildServerHello(sr, 0x009C)}.Encode()

	kl := NewKeyLog()
	kl.Add(LabelClientRandom, cr[:], ms)
	res, err := NewStreamDecryptor(kl).DecryptConversation(clientStream, serverStream)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decrypted {
		t.Fatal("TLS 1.2 stream not decrypted")
	}
	if !bytes.Equal(res.Plaintext, plaintext) {
		t.Errorf("plaintext = %q", res.Plaintext)
	}
	if res.SNI != "legacy.quizlet.com" {
		t.Errorf("SNI = %q", res.SNI)
	}

	// Without the server stream the session cannot derive keys: opaque.
	res2, err := NewStreamDecryptor(kl).DecryptConversation(clientStream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Decrypted {
		t.Error("decrypted TLS 1.2 without the server random")
	}
}

// Property: TLS 1.2 seal→open round-trips arbitrary payloads.
func TestSession12Property(t *testing.T) {
	cr, sr := testRandom(8), testRandom(9)
	f := func(seed uint8, payload []byte) bool {
		ms := master(seed)
		enc, err := NewSession12(ms, cr[:], sr[:])
		if err != nil {
			return false
		}
		dec, _ := NewSession12(ms, cr[:], sr[:])
		records, err := ParseRecords(enc.Seal(TypeApplicationData, payload))
		if err != nil || len(records) != 1 {
			return false
		}
		pt, err := dec.AppendOpen(nil, TypeApplicationData, records[0].Payload)
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			return len(pt) == 0
		}
		return bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestAppendOpen decrypts a run of records of both TLS versions into one
// buffer behind a prefix: the prefix survives, each plaintext lands after
// the last, a failed open leaves the buffer as it was, and a buffer with
// room takes no allocation.
func TestAppendOpen(t *testing.T) {
	msgs := [][]byte{[]byte("GET / HTTP/1.1\r\n\r\n"), {}, bytes.Repeat([]byte{0x42}, 3000), []byte("tail")}
	want := []byte("prefix|")
	for _, m := range msgs {
		want = append(want, m...)
	}

	enc13, _ := NewSession(testSecret(3))
	dec13, _ := NewSession(testSecret(3))
	cr, sr := testRandom(1), testRandom(2)
	enc12, _ := NewSession12(master(7), cr[:], sr[:])
	dec12, _ := NewSession12(master(7), cr[:], sr[:])
	var recs13, recs12 [][]byte
	for _, m := range msgs {
		r13, _ := ParseRecords(enc13.Seal(TypeApplicationData, m))
		r12, _ := ParseRecords(enc12.Seal(TypeApplicationData, m))
		recs13, recs12 = append(recs13, r13[0].Payload), append(recs12, r12[0].Payload)
	}

	for name, open := range map[string]func(dst, payload []byte) ([]byte, error){
		"tls13": func(dst, payload []byte) ([]byte, error) {
			ct, out, err := dec13.AppendOpen(dst, payload)
			if err == nil && ct != TypeApplicationData {
				t.Errorf("tls13: content type %d", ct)
			}
			return out, err
		},
		"tls12": func(dst, payload []byte) ([]byte, error) {
			return dec12.AppendOpen(dst, TypeApplicationData, payload)
		},
	} {
		recs := recs13
		if name == "tls12" {
			recs = recs12
		}
		buf := append(make([]byte, 0, 8192), "prefix|"...)
		// A record at the wrong sequence number fails and changes nothing.
		if out, err := open(buf, recs[1]); err == nil || !bytes.Equal(out, buf) {
			t.Fatalf("%s: out-of-order open = (%q, %v), want the buffer back and an error", name, out, err)
		}
		i := 0
		allocs := testing.AllocsPerRun(len(recs)-1, func() {
			out, err := open(buf, recs[i])
			if err != nil {
				t.Fatalf("%s: record %d: %v", name, i, err)
			}
			buf = out
			i++
		})
		// AllocsPerRun's warm-up call opened record 0 already.
		if !bytes.Equal(buf, want) {
			t.Errorf("%s: buffer = %q, want %q", name, buf, want)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per record, want 0", name, allocs)
		}
	}
}
