package tlsx_test

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"io"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"diffaudit/internal/netcap/tlsx"
)

// tapConn records every byte its side writes: the wire bytes of one
// direction of the conversation, as a capture would see them.
type tapConn struct {
	net.Conn
	wrote bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.wrote.Write(p)
	return c.Conn.Write(p)
}

// selfSigned returns a certificate made for the test, with an ECDSA P-256
// key, so the ECDHE-ECDSA suites can be negotiated.
func selfSigned(t *testing.T) tls.Certificate {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "oracle.test"},
		DNSNames:     []string{"oracle.test"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
}

// conversation runs a crypto/tls client against a crypto/tls server over
// net.Pipe. The client writes msg and closes; the server reads to the end.
// It returns the client's and the server's wire bytes, the client's key
// log and the suite the two negotiated.
func conversation(t *testing.T, client, server *tls.Config, msg []byte) (clientWire, serverWire, keylog []byte, suite uint16) {
	t.Helper()
	cp, sp := net.Pipe()
	defer cp.Close() // a failed handshake must not leave the server reading
	ctap, stap := &tapConn{Conn: cp}, &tapConn{Conn: sp}
	var kl bytes.Buffer
	client = client.Clone()
	client.KeyLogWriter = &kl
	client.ServerName = "oracle.test"
	client.InsecureSkipVerify = true

	var wg sync.WaitGroup
	var got []byte
	var serr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := tls.Server(stap, server)
		got, serr = io.ReadAll(sc)
		sc.Close()
	}()
	cc := tls.Client(ctap, client)
	if err := cc.Handshake(); err != nil {
		t.Fatal(err)
	}
	suite = cc.ConnectionState().CipherSuite
	if _, err := cc.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := cc.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	io.ReadAll(cc) // the server's post-handshake messages and close_notify
	cc.Close()
	wg.Wait()
	if serr != nil || !bytes.Equal(got, msg) {
		t.Fatalf("server read %q, %v; the client wrote %q", got, serr, msg)
	}
	return ctap.wrote.Bytes(), stap.wrote.Bytes(), kl.Bytes(), suite
}

// TestDecryptCryptoTLSConversations holds DecryptConversation to the
// standard library: the bytes a crypto/tls client wrote come back from its
// wire bytes and key log, or the stream stays opaque where a row says so.
func TestDecryptCryptoTLSConversations(t *testing.T) {
	cert := selfSigned(t)
	msg := []byte("POST /v1/track HTTP/1.1\r\nHost: oracle.test\r\nContent-Length: 9\r\n\r\nuid=12345")
	rows := []struct {
		name           string
		client, server *tls.Config
		suite          uint16
		decrypts       bool
	}{
		{
			name:     "TLS 1.3 defaults",
			client:   &tls.Config{},
			server:   &tls.Config{},
			suite:    tls.TLS_AES_128_GCM_SHA256,
			decrypts: true,
		},
		{
			name:     "TLS 1.2 ECDHE-ECDSA-AES128-GCM-SHA256",
			client:   &tls.Config{MaxVersion: tls.VersionTLS12, CipherSuites: []uint16{tls.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256}},
			server:   &tls.Config{MaxVersion: tls.VersionTLS12},
			suite:    tls.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
			decrypts: true,
		},
		// Still opaque, until ROADMAP item 12(a) slice 2 adds the
		// SHA-384 suites.
		{
			name:   "TLS 1.2 ECDHE-ECDSA-AES256-GCM-SHA384",
			client: &tls.Config{MaxVersion: tls.VersionTLS12, CipherSuites: []uint16{tls.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384}},
			server: &tls.Config{MaxVersion: tls.VersionTLS12},
			suite:  tls.TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384,
		},
		// Still opaque, until ROADMAP item 12(c) adds ChaCha20-Poly1305.
		{
			name:   "TLS 1.2 ECDHE-ECDSA-CHACHA20-POLY1305",
			client: &tls.Config{MaxVersion: tls.VersionTLS12, CipherSuites: []uint16{tls.TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256}},
			server: &tls.Config{MaxVersion: tls.VersionTLS12},
			suite:  tls.TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256,
		},
		// Still opaque, until ROADMAP item 12(a) slice 2 takes the version
		// from the ServerHello: the ClientHello offers 1.3, so the stream is
		// taken for a 1.3 one.
		{
			name:   "TLS 1.3 client, TLS 1.2-only server",
			client: &tls.Config{},
			server: &tls.Config{MaxVersion: tls.VersionTLS12, CipherSuites: []uint16{tls.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256}},
			suite:  tls.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			server := row.server.Clone()
			server.Certificates = []tls.Certificate{cert}
			clientWire, serverWire, keylog, suite := conversation(t, row.client, server, msg)
			if suite != row.suite {
				// crypto/tls picks the 1.3 suite from the CPU's AES
				// support; without it the defaults negotiate ChaCha20.
				t.Skipf("negotiated suite %s, row is for %s", tls.CipherSuiteName(suite), tls.CipherSuiteName(row.suite))
			}
			kl, err := tlsx.ParseKeyLog(keylog)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tlsx.NewStreamDecryptor(kl).DecryptConversation(clientWire, serverWire)
			if err != nil {
				t.Fatal(err)
			}
			if res.SNI != "oracle.test" {
				t.Errorf("SNI = %q", res.SNI)
			}
			if res.Decrypted != row.decrypts {
				t.Fatalf("Decrypted = %v, want %v", res.Decrypted, row.decrypts)
			}
			if row.decrypts && !bytes.Equal(res.Plaintext, msg) {
				t.Errorf("plaintext = %q, the client wrote %q", res.Plaintext, msg)
			}
		})
	}
}
