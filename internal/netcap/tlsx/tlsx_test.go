package tlsx

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
)

func testRandom(b byte) [32]byte {
	var r [32]byte
	for i := range r {
		r[i] = b + byte(i)
	}
	return r
}

func testSecret(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b ^ byte(i*7)
	}
	return s
}

func TestHKDFRFC5869Vector1(t *testing.T) {
	// RFC 5869 Appendix A.1 test case 1 (SHA-256).
	ikm, _ := hex.DecodeString("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt, _ := hex.DecodeString("000102030405060708090a0b0c")
	info, _ := hex.DecodeString("f0f1f2f3f4f5f6f7f8f9")
	prk := hkdfExtract(salt, ikm)
	wantPRK, _ := hex.DecodeString("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	if !bytes.Equal(prk, wantPRK) {
		t.Fatalf("PRK = %x", prk)
	}
	okm := hkdfExpand(prk, info, 42)
	wantOKM, _ := hex.DecodeString("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM = %x", okm)
	}
}

func TestHKDFExpandLabelStructure(t *testing.T) {
	// Deriving with different labels must give different keys; same inputs
	// must be deterministic.
	s := testSecret(1)
	k1 := hkdfExpandLabel(s, "key", nil, 16)
	k2 := hkdfExpandLabel(s, "iv", nil, 16)
	k3 := hkdfExpandLabel(s, "key", nil, 16)
	if bytes.Equal(k1, k2) {
		t.Error("different labels produced identical output")
	}
	if !bytes.Equal(k1, k3) {
		t.Error("derivation not deterministic")
	}
	if len(hkdfExpandLabel(s, "key", nil, 16)) != 16 {
		t.Error("wrong length")
	}
	_ = sha256.Size
}

func TestSealOpenRoundTrip(t *testing.T) {
	secret := testSecret(9)
	enc, err := NewSession(secret)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewSession(secret)
	msgs := [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: roblox.com\r\n\r\n"),
		[]byte("POST /x HTTP/1.1\r\n\r\n{}"),
		{},
		bytes.Repeat([]byte{0xAB}, 5000),
	}
	for i, msg := range msgs {
		rec := enc.Seal(TypeApplicationData, msg)
		records, err := ParseRecords(rec)
		if err != nil || len(records) != 1 {
			t.Fatalf("msg %d: records parse: %v", i, err)
		}
		ct, pt, err := dec.AppendOpen(nil, records[0].Payload)
		if err != nil {
			t.Fatalf("msg %d: open: %v", i, err)
		}
		if ct != TypeApplicationData || !bytes.Equal(pt, msg) {
			t.Errorf("msg %d: plaintext mismatch", i)
		}
	}
}

// TestOpenStripsInnerPadding: a TLS 1.3 inner plaintext is content, then
// its content type, then any number of zeros (RFC 8446 §5.4). AppendOpen
// strips the zeros and the type, never reaches into dst, and refuses a
// record with no nonzero byte.
func TestOpenStripsInnerPadding(t *testing.T) {
	// seal encrypts inner as it stands through s's AEAD and nonce, so a
	// test can choose the padding Seal never adds.
	seal := func(s *Session, inner []byte) []byte {
		n := len(inner) + s.aead.Overhead()
		hdr := []byte{byte(TypeApplicationData), 0x03, 0x03, byte(n >> 8), byte(n)}
		ct := s.aead.Seal(nil, s.setNonce(), inner, hdr)
		s.seq++
		return ct
	}
	content := []byte("GET / HTTP/1.1\r\nHost: roblox.com\r\n\r\n")
	for _, tc := range []struct {
		name    string
		dst     []byte
		content []byte
		typ     ContentType
		pad     int
	}{
		{"no padding", nil, content, TypeApplicationData, 0},
		{"one zero", nil, content, TypeApplicationData, 1},
		{"300 zeros", nil, content, TypeApplicationData, 300},
		{"content ending in zeros", nil, []byte("ab\x00\x00"), TypeApplicationData, 5},
		{"empty content", nil, nil, TypeApplicationData, 7},
		{"handshake type", nil, content, TypeHandshake, 16},
		{"after a dst ending in zeros", []byte{'x', 0, 0}, content, TypeApplicationData, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, _ := NewSession(testSecret(3))
			dec, _ := NewSession(testSecret(3))
			inner := append(append(append([]byte{}, tc.content...), byte(tc.typ)), make([]byte, tc.pad)...)
			typ, out, err := dec.AppendOpen(tc.dst, seal(enc, inner))
			if err != nil {
				t.Fatal(err)
			}
			want := append(append([]byte{}, tc.dst...), tc.content...)
			if typ != tc.typ || !bytes.Equal(out, want) {
				t.Errorf("AppendOpen = type %d, %q; want type %d, %q", typ, out, tc.typ, want)
			}
		})
	}
	for _, tc := range []struct {
		name string
		dst  []byte
		pad  int
	}{
		{"empty record", nil, 0},
		{"zeros only", nil, 32},
		{"zeros after a dst ending in zeros", []byte{'x', 0, 0}, 8},
	} {
		t.Run("all padding/"+tc.name, func(t *testing.T) {
			enc, _ := NewSession(testSecret(3))
			dec, _ := NewSession(testSecret(3))
			_, out, err := dec.AppendOpen(tc.dst, seal(enc, make([]byte, tc.pad)))
			if err == nil || err.Error() != "tlsx: record is all padding" {
				t.Fatalf("AppendOpen of an all-padding record: err = %v, want the all-padding error", err)
			}
			if !bytes.Equal(out, tc.dst) {
				t.Errorf("AppendOpen returned %q on error, want dst %q", out, tc.dst)
			}
		})
	}
}

func TestOpenWrongKeyFails(t *testing.T) {
	enc, _ := NewSession(testSecret(1))
	dec, _ := NewSession(testSecret(2))
	rec := enc.Seal(TypeApplicationData, []byte("secret"))
	records, _ := ParseRecords(rec)
	if _, _, err := dec.AppendOpen(nil, records[0].Payload); err == nil {
		t.Error("wrong key decrypted successfully")
	}
}

func TestOpenOutOfOrderFails(t *testing.T) {
	enc, _ := NewSession(testSecret(1))
	dec, _ := NewSession(testSecret(1))
	r1 := enc.Seal(TypeApplicationData, []byte("one"))
	_ = r1
	r2 := enc.Seal(TypeApplicationData, []byte("two"))
	records, _ := ParseRecords(r2)
	// dec is at seq 0 but record was sealed at seq 1.
	if _, _, err := dec.AppendOpen(nil, records[0].Payload); err == nil {
		t.Error("out-of-order record decrypted")
	}
}

func TestParseRecords(t *testing.T) {
	r1 := Record{Type: TypeHandshake, Payload: []byte{1, 2, 3}}
	r2 := Record{Type: TypeApplicationData, Payload: []byte{4}}
	stream := append(r1.Encode(), r2.Encode()...)
	got, err := ParseRecords(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Type != TypeHandshake || got[1].Type != TypeApplicationData {
		t.Fatalf("records = %+v", got)
	}
	// Partial trailing record.
	if recs, err := ParseRecords(stream[:len(stream)-1]); !errors.Is(err, ErrPartialRecord) || len(recs) != 1 {
		t.Errorf("partial: %v, %d records", err, len(recs))
	}
	// Garbage.
	if _, err := ParseRecords([]byte{0xff, 0x03, 0x03, 0, 0}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestClientHelloRoundTrip(t *testing.T) {
	random := testRandom(5)
	msg := BuildClientHello(random, "www.tiktok.com")
	ch, err := ParseClientHello(msg)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Random != random {
		t.Error("random mismatch")
	}
	if ch.SNI != "www.tiktok.com" {
		t.Errorf("SNI = %q", ch.SNI)
	}
	if !ch.SupportsTLS13 {
		t.Error("TLS 1.3 support not detected")
	}
	if len(ch.CipherSuites) != 1 || ch.CipherSuites[0] != 0x1301 {
		t.Errorf("suites = %v", ch.CipherSuites)
	}
}

func TestClientHelloNoSNI(t *testing.T) {
	msg := BuildClientHello(testRandom(1), "")
	ch, err := ParseClientHello(msg)
	if err != nil {
		t.Fatal(err)
	}
	if ch.SNI != "" {
		t.Errorf("SNI = %q, want empty", ch.SNI)
	}
}

func TestClientHelloErrors(t *testing.T) {
	if _, err := ParseClientHello([]byte{2, 0, 0, 0}); err == nil {
		t.Error("ServerHello accepted as ClientHello")
	}
	if _, err := ParseClientHello([]byte{1, 0, 0}); err == nil {
		t.Error("short message accepted")
	}
	msg := BuildClientHello(testRandom(1), "x")
	if _, err := ParseClientHello(msg[:10]); err == nil {
		t.Error("truncated ClientHello accepted")
	}
}

func TestKeyLogRoundTrip(t *testing.T) {
	random := testRandom(3)
	secret := testSecret(3)
	text := "# comment line\n\n" +
		FormatLine(LabelClientTraffic, random[:], secret) +
		FormatLine(LabelServerTraffic, random[:], testSecret(4))
	kl, err := ParseKeyLog([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if kl.Len() != 2 {
		t.Fatalf("len = %d", kl.Len())
	}
	got, ok := kl.Lookup(LabelClientTraffic, random[:])
	if !ok || !bytes.Equal(got, secret) {
		t.Error("lookup failed")
	}
	if _, ok := kl.Lookup(LabelClientTraffic, testSecret(9)); ok {
		t.Error("lookup of unknown random succeeded")
	}
}

func TestKeyLogErrors(t *testing.T) {
	for _, in := range []string{
		"LABEL onlytwo",
		"LABEL zz gg",
		"LABEL 0a zz",
	} {
		if _, err := ParseKeyLog([]byte(in)); err == nil {
			t.Errorf("ParseKeyLog(%q) succeeded", in)
		}
	}
}

func TestKeyLogMerge(t *testing.T) {
	a := NewKeyLog()
	b := NewKeyLog()
	r := testRandom(1)
	b.Add(LabelClientTraffic, r[:], testSecret(1))
	a.Merge(b)
	a.Merge(nil)
	if a.Len() != 1 {
		t.Errorf("merged len = %d", a.Len())
	}
}

func TestStreamDecryptorEndToEnd(t *testing.T) {
	random := testRandom(7)
	secret := testSecret(7)
	plaintext := []byte("POST /api/events HTTP/1.1\r\nHost: excess.duolingo.com\r\n\r\n{\"age\":12}")

	// Client side: ClientHello record + encrypted app data.
	var stream []byte
	stream = append(stream, Record{Type: TypeHandshake, Payload: BuildClientHello(random, "excess.duolingo.com")}.Encode()...)
	enc, _ := NewSession(secret)
	stream = append(stream, enc.Seal(TypeApplicationData, plaintext[:20])...)
	stream = append(stream, enc.Seal(TypeApplicationData, plaintext[20:])...)

	kl := NewKeyLog()
	kl.Add(LabelClientTraffic, random[:], secret)
	res, err := NewStreamDecryptor(kl).DecryptConversation(stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decrypted {
		t.Fatal("not decrypted")
	}
	if res.SNI != "excess.duolingo.com" {
		t.Errorf("SNI = %q", res.SNI)
	}
	if !bytes.Equal(res.Plaintext, plaintext) {
		t.Errorf("plaintext = %q", res.Plaintext)
	}
	if res.Records != 3 {
		t.Errorf("records = %d", res.Records)
	}
}

func TestStreamDecryptorNoKeys(t *testing.T) {
	random := testRandom(8)
	var stream []byte
	stream = append(stream, Record{Type: TypeHandshake, Payload: BuildClientHello(random, "www.quizlet.com")}.Encode()...)
	enc, _ := NewSession(testSecret(8))
	stream = append(stream, enc.Seal(TypeApplicationData, []byte("opaque"))...)

	res, err := NewStreamDecryptor(NewKeyLog()).DecryptConversation(stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decrypted || res.Plaintext != nil {
		t.Error("decrypted without keys")
	}
	if res.SNI != "www.quizlet.com" {
		t.Errorf("SNI should still parse: %q", res.SNI)
	}
	if res.Records != 2 {
		t.Errorf("records = %d", res.Records)
	}
}

func TestStreamDecryptorNotTLS(t *testing.T) {
	if _, err := NewStreamDecryptor(nil).DecryptConversation([]byte("GET / HTTP/1.1\r\n"), nil); err == nil {
		t.Error("plain HTTP accepted as TLS")
	}
	if _, err := NewStreamDecryptor(nil).DecryptConversation(nil, nil); err == nil {
		t.Error("empty stream accepted")
	}
}

// Property: Seal→Open round-trips arbitrary payloads through matched
// sessions for any secret.
func TestSealOpenProperty(t *testing.T) {
	f := func(secretSeed uint8, payload []byte) bool {
		secret := testSecret(secretSeed)
		enc, err := NewSession(secret)
		if err != nil {
			return false
		}
		dec, _ := NewSession(secret)
		records, err := ParseRecords(enc.Seal(TypeApplicationData, payload))
		if err != nil || len(records) != 1 {
			return false
		}
		ct, pt, err := dec.AppendOpen(nil, records[0].Payload)
		if err != nil || ct != TypeApplicationData {
			return false
		}
		if len(payload) == 0 {
			return len(pt) == 0
		}
		return bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
