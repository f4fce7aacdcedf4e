package tlsx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// TLS 1.2 support. Real mobile captures mix TLS 1.3 and TLS 1.2 flows; the
// NSS key log keys TLS 1.2 sessions with a single CLIENT_RANDOM master
// secret from which both directions' keys derive via the TLS PRF
// (RFC 5246 §5, §6.3). Only AES-128-GCM suites are modeled — the dominant
// suite in the paper's collection window.

// LabelClientRandom is the NSS key log label for TLS 1.2 master secrets.
const LabelClientRandom = "CLIENT_RANDOM"

// prf12 implements the TLS 1.2 pseudo-random function with SHA-256.
func prf12(secret []byte, label string, seed []byte, length int) []byte {
	labelSeed := append([]byte(label), seed...)
	var out []byte
	a := labelSeed
	for len(out) < length {
		m := hmac.New(sha256.New, secret)
		m.Write(a)
		a = m.Sum(nil)
		m = hmac.New(sha256.New, secret)
		m.Write(a)
		m.Write(labelSeed)
		out = append(out, m.Sum(nil)...)
	}
	return out[:length]
}

// tls12KeyMaterial holds the client-write half of the expanded key block.
type tls12KeyMaterial struct {
	clientWriteKey []byte // 16 bytes (AES-128)
	clientWriteIV  []byte // 4-byte GCM salt
}

// deriveTLS12Keys expands the master secret into the client-write key and
// implicit nonce salt for AES-128-GCM (RFC 5246 §6.3, RFC 5288 §3).
func deriveTLS12Keys(masterSecret, clientRandom, serverRandom []byte) tls12KeyMaterial {
	seed := append(append([]byte{}, serverRandom...), clientRandom...)
	// GCM suites use no MAC keys: key block = client_key(16) server_key(16)
	// client_iv(4) server_iv(4).
	block := prf12(masterSecret, "key expansion", seed, 40)
	return tls12KeyMaterial{
		clientWriteKey: block[0:16],
		clientWriteIV:  block[32:36],
	}
}

// Session12 decrypts (or encrypts) the client→server half of a TLS 1.2
// AES-128-GCM connection. TLS 1.2 GCM records carry an explicit 8-byte
// nonce prefix in each record (RFC 5288 §3); sequence numbers authenticate
// via the additional data.
type Session12 struct {
	aead cipher.AEAD
	salt []byte
	seq  uint64
	// nonce and aad are per-record scratch, as in Session.
	nonce [12]byte
	aad   [13]byte
}

// NewSession12 derives client-write record protection from the session's
// master secret and both hello randoms.
func NewSession12(masterSecret, clientRandom, serverRandom []byte) (*Session12, error) {
	if len(masterSecret) != 48 {
		return nil, fmt.Errorf("tlsx: master secret must be 48 bytes, got %d", len(masterSecret))
	}
	km := deriveTLS12Keys(masterSecret, clientRandom, serverRandom)
	block, err := aes.NewCipher(km.clientWriteKey)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Session12{aead: aead, salt: km.clientWriteIV}, nil
}

// Seal encrypts plaintext into a full TLS 1.2 application-data record
// (header + explicit nonce + ciphertext).
func (s *Session12) Seal(contentType ContentType, plaintext []byte) []byte {
	var explicit [8]byte
	binary.BigEndian.PutUint64(explicit[:], s.seq)
	nonce := append(append([]byte{}, s.salt...), explicit[:]...)

	var aad [13]byte
	binary.BigEndian.PutUint64(aad[0:8], s.seq)
	aad[8] = byte(contentType)
	aad[9], aad[10] = 0x03, 0x03
	binary.BigEndian.PutUint16(aad[11:13], uint16(len(plaintext)))

	ct := s.aead.Seal(nil, nonce, plaintext, aad[:])
	s.seq++

	body := append(explicit[:], ct...)
	hdr := []byte{byte(contentType), 0x03, 0x03, byte(len(body) >> 8), byte(len(body))}
	return append(hdr, body...)
}

// AppendOpen decrypts one record payload (the bytes after the 5-byte
// header), as Session.AppendOpen does: dst extended by the plaintext, no
// allocation when dst has the room, and dst itself on error.
func (s *Session12) AppendOpen(dst []byte, contentType ContentType, recordPayload []byte) ([]byte, error) {
	if len(recordPayload) < 8+s.aead.Overhead() {
		return dst, errors.New("tlsx: TLS 1.2 record too short")
	}
	copy(s.nonce[:4], s.salt)
	copy(s.nonce[4:], recordPayload[:8])
	ct := recordPayload[8:]

	binary.BigEndian.PutUint64(s.aad[0:8], s.seq)
	s.aad[8] = byte(contentType)
	s.aad[9], s.aad[10] = 0x03, 0x03
	binary.BigEndian.PutUint16(s.aad[11:13], uint16(len(ct)-s.aead.Overhead()))

	out, err := s.aead.Open(dst, s.nonce[:], ct, s.aad[:])
	if err != nil {
		return dst, fmt.Errorf("tlsx: TLS 1.2 record %d: %w", s.seq, err)
	}
	s.seq++
	return out, nil
}
