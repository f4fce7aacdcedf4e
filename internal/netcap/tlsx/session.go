package tlsx

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
)

// Session encrypts or decrypts one direction of a TLS 1.3 connection using
// TLS_AES_128_GCM_SHA256 record protection (RFC 8446 §5.2-5.3). Record
// sequence numbers advance on every Seal and every AppendOpen that
// succeeds; callers must process records in stream order.
type Session struct {
	aead cipher.AEAD
	iv   []byte
	seq  uint64
	// nonce and hdr are per-record scratch: AEAD takes them as slices
	// through an interface, which would move a local array to the heap.
	nonce [12]byte
	hdr   [5]byte
}

// NewSession derives record-protection state from a traffic secret.
func NewSession(trafficSecret []byte) (*Session, error) {
	if len(trafficSecret) == 0 {
		return nil, errors.New("tlsx: empty traffic secret")
	}
	key, iv := trafficKeys(trafficSecret)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Session{aead: aead, iv: iv}, nil
}

// setNonce computes the per-record nonce, IV XOR seq (RFC 8446 §5.3), into
// s.nonce.
func (s *Session) setNonce() []byte {
	copy(s.nonce[:], s.iv)
	var seqBytes [8]byte
	binary.BigEndian.PutUint64(seqBytes[:], s.seq)
	for i := 0; i < 8; i++ {
		s.nonce[4+i] ^= seqBytes[i]
	}
	return s.nonce[:]
}

// Seal encrypts an inner plaintext of the given content type into a full
// application-data record (header included).
func (s *Session) Seal(contentType ContentType, plaintext []byte) []byte {
	inner := make([]byte, 0, len(plaintext)+1)
	inner = append(inner, plaintext...)
	inner = append(inner, byte(contentType))
	ctLen := len(inner) + s.aead.Overhead()
	hdr := []byte{byte(TypeApplicationData), 0x03, 0x03, byte(ctLen >> 8), byte(ctLen)}
	ct := s.aead.Seal(nil, s.setNonce(), inner, hdr)
	s.seq++
	return append(hdr, ct...)
}

// AppendOpen decrypts one application-data record payload (the bytes
// after the 5-byte header) and returns the inner content type and dst
// extended by the record's plaintext, with no allocation when dst has the
// room. The bytes past len(dst) are scratch until then, whatever the
// outcome; on error the returned slice is dst.
func (s *Session) AppendOpen(dst, recordPayload []byte) (ContentType, []byte, error) {
	ctLen := len(recordPayload)
	s.hdr = [5]byte{byte(TypeApplicationData), 0x03, 0x03, byte(ctLen >> 8), byte(ctLen)}
	inner, err := s.aead.Open(dst, s.setNonce(), recordPayload, s.hdr[:])
	if err != nil {
		return 0, dst, fmt.Errorf("tlsx: record %d: %w", s.seq, err)
	}
	s.seq++
	// Strip zero padding, then the trailing content type byte.
	i := len(inner) - 1
	for i >= len(dst) && inner[i] == 0 {
		i--
	}
	if i < len(dst) {
		return 0, dst, errors.New("tlsx: record is all padding")
	}
	return ContentType(inner[i]), inner[:i], nil
}

// StreamDecryptor decrypts the client→server half of a captured TLS 1.3
// stream given a key log: it parses records, extracts the ClientHello to
// learn the client random and SNI, resolves the traffic secret, and
// decrypts application data.
type StreamDecryptor struct {
	keylog *KeyLog
}

// NewStreamDecryptor wraps a key log.
func NewStreamDecryptor(kl *KeyLog) *StreamDecryptor {
	if kl == nil {
		kl = NewKeyLog()
	}
	return &StreamDecryptor{keylog: kl}
}

// Result is the outcome of decrypting one stream.
type Result struct {
	// SNI is the server name from the ClientHello ("" when absent).
	SNI string
	// Plaintext is the concatenated decrypted application data; nil when
	// no key material was available (the stream stays opaque but counted).
	Plaintext []byte
	// Records counts TLS records seen in the stream.
	Records int
	// Decrypted reports whether key material was found.
	Decrypted bool
	// TLS12 reports that the flow negotiated TLS 1.2 (no
	// supported_versions offer of 1.3).
	TLS12 bool
}

// DecryptConversation processes one flow given both directions. The
// ClientHello decides the protocol path: TLS 1.3 sessions decrypt from
// CLIENT_TRAFFIC_SECRET_0, TLS 1.2 sessions derive client-write keys from
// the CLIENT_RANDOM master secret plus the ServerHello random found in the
// server stream (a nil serverStream leaves a TLS 1.2 flow opaque). Streams
// that do not look like TLS return an error; TLS streams without key
// material return a Result with Decrypted=false, matching the paper's
// treatment ("we include all collected traffic, both encrypted and
// decrypted").
func (d *StreamDecryptor) DecryptConversation(clientStream, serverStream []byte) (*Result, error) {
	records, err := ParseRecords(clientStream)
	if err != nil && !errors.Is(err, ErrPartialRecord) {
		return nil, err
	}
	if len(records) == 0 {
		return nil, errors.New("tlsx: no TLS records")
	}
	res := &Result{Records: len(records)}
	var ch *ClientHello
	var sess13 *Session
	var sess12 *Session12
	// plaintext is allocated once, when a session first opens a record:
	// decrypted bytes never outnumber the stream's, and opaque streams
	// allocate nothing.
	var plaintext []byte
	// ccs is set once the client's ChangeCipherSpec has gone by: under
	// TLS 1.2 the next handshake record is its encrypted Finished.
	ccs := false
	for _, rec := range records {
		switch rec.Type {
		case TypeChangeCipherSpec:
			ccs = true
		case TypeHandshake:
			if ccs && sess12 != nil {
				// The Finished is the client write key's record 0. One
				// that fails to open leaves the sequence at 0, so the
				// application data after it fails to open too.
				ccs = false
				sess12.AppendOpen(nil, TypeHandshake, rec.Payload)
			}
			if ch == nil {
				parsed, err := ParseClientHello(rec.Payload)
				if err != nil {
					continue
				}
				ch = parsed
				res.SNI = ch.SNI
				res.TLS12 = !ch.SupportsTLS13
				if ch.SupportsTLS13 {
					if secret, ok := d.keylog.Lookup(LabelClientTraffic, ch.Random[:]); ok {
						if s, err := NewSession(secret); err == nil {
							sess13 = s
						}
					}
					continue
				}
				// TLS 1.2: need the master secret and the server random.
				master, ok := d.keylog.Lookup(LabelClientRandom, ch.Random[:])
				if !ok {
					continue
				}
				sh := findServerHello(serverStream)
				if sh == nil {
					continue
				}
				if s, err := NewSession12(master, ch.Random[:], sh.Random[:]); err == nil {
					sess12 = s
				}
			}
		case TypeApplicationData:
			if (sess13 != nil || sess12 != nil) && plaintext == nil {
				plaintext = make([]byte, 0, len(clientStream))
			}
			switch {
			case sess13 != nil:
				ct, out, err := sess13.AppendOpen(plaintext, rec.Payload)
				if err != nil {
					// A record under another key, such as the client's
					// Finished under its handshake key: a failed open
					// leaves the sequence number where it was.
					continue
				}
				if ct == TypeApplicationData {
					plaintext = out
					res.Decrypted = true
				}
			case sess12 != nil:
				out, err := sess12.AppendOpen(plaintext, TypeApplicationData, rec.Payload)
				if err != nil {
					sess12 = nil
					continue
				}
				plaintext = out
				res.Decrypted = true
			}
		}
	}
	if res.Decrypted {
		res.Plaintext = plaintext
	}
	return res, nil
}

// findServerHello scans the server→client stream for a ServerHello.
func findServerHello(serverStream []byte) *ServerHello {
	if len(serverStream) == 0 {
		return nil
	}
	records, err := ParseRecords(serverStream)
	if err != nil && !errors.Is(err, ErrPartialRecord) {
		return nil
	}
	for _, rec := range records {
		if rec.Type != TypeHandshake {
			continue
		}
		if sh, err := ParseServerHello(rec.Payload); err == nil {
			return sh
		}
	}
	return nil
}
