package synth

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/extract"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/httpx"
	"diffaudit/internal/netcap/dnsx"
	"diffaudit/internal/netcap/layers"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/netcap/tlsx"
)

// baseTime anchors all synthetic timestamps (fall 2023, the paper's
// collection window).
var baseTime = time.Date(2023, 10, 2, 15, 0, 0, 0, time.UTC)

// Identity converts the profile into the pipeline's service identity.
func (st *ServiceTraffic) Identity() core.ServiceIdentity {
	return core.ServiceIdentity{
		Name:            st.Spec.Name,
		Owner:           st.Spec.Owner,
		FirstPartyESLDs: st.Spec.FirstPartyESLDs,
	}
}

// bodyJSON renders a request body deterministically.
func bodyJSON(body map[string]string) []byte {
	if len(body) == 0 {
		return nil
	}
	data, err := json.Marshal(body)
	if err != nil {
		panic("synth: body marshal: " + err.Error())
	}
	return data
}

// Records expands the traffic into pipeline request records. Each TCP
// connection becomes one record (so connection counting works), with the
// request's Repeat budget spread across its connections.
func (st *ServiceTraffic) Records() []core.RequestRecord {
	var out []core.RequestRecord
	connCtr := 0
	for _, r := range st.Requests {
		conns := r.Conns
		if conns < 1 {
			conns = 1
		}
		base, rem := r.Repeat/conns, r.Repeat%conns
		for c := 0; c < conns; c++ {
			repeat := base
			if c < rem {
				repeat++
			}
			if repeat == 0 {
				continue
			}
			connCtr++
			rec := core.RequestRecord{
				Trace:    r.Trace,
				Platform: r.Platform,
				Method:   r.Method,
				URL:      r.URL(),
				FQDN:     r.FQDN,
				BodyMIME: "application/json",
				Body:     bodyJSON(r.Body),
				Repeat:   repeat,
				ConnID:   fmt.Sprintf("%s/%s/%d/c%d", st.Spec.Name, traceTag(r.Trace), r.Platform, connCtr),
			}
			for _, ck := range r.Cookies {
				rec.Cookies = append(rec.Cookies, extract.KVPair{Name: ck.Key, Value: ck.Value})
			}
			out = append(out, rec)
		}
	}
	return out
}

func userAgent(p flows.Platform) string {
	if p == flows.Mobile {
		return "ServiceApp/7.44 (Linux; Android 13; Pixel 6)"
	}
	return "Mozilla/5.0 (X11; Linux x86_64) Chrome/118.0"
}

// EmitHAR renders one trace of the web platform as a HAR document, the
// format Chrome DevTools exports.
func (st *ServiceTraffic) EmitHAR(trace flows.TraceCategory) *har.HAR {
	return st.EmitHARAt(trace, baseTime)
}

// EmitHARAt is EmitHAR with an explicit capture start time. Distinct
// starts yield distinct capture bytes whose audited flows are identical —
// the per-user variation axis population-scale generation uses (every
// synthetic user browses the same service, at a different time).
func (st *ServiceTraffic) EmitHARAt(trace flows.TraceCategory, start time.Time) *har.HAR {
	h := har.New()
	h.Log.Pages = []har.Page{{
		StartedDateTime: start,
		ID:              "page_1",
		Title:           "https://www." + st.Spec.FirstPartyESLDs[0] + "/",
	}}
	ts := start
	connCtr := 0
	for _, r := range st.Requests {
		if r.Trace != trace || r.Platform != flows.Web {
			continue
		}
		conns := r.Conns
		if conns < 1 {
			conns = 1
		}
		for i := 0; i < r.Repeat; i++ {
			connID := fmt.Sprintf("%d", connCtr+i%conns)
			body := bodyJSON(r.Body)
			entry := har.Entry{
				Pageref:         "page_1",
				StartedDateTime: ts,
				Time:            12.5,
				Connection:      connID,
				Request: har.Request{
					Method:      r.Method,
					URL:         r.URL(),
					HTTPVersion: "HTTP/1.1",
					Headers: []har.NV{
						{Name: "Host", Value: r.FQDN},
						{Name: "User-Agent", Value: userAgent(flows.Web)},
						{Name: "Content-Type", Value: "application/json"},
					},
					BodySize: len(body),
				},
				Response: har.Response{
					Status: 200, StatusText: "OK", HTTPVersion: "HTTP/1.1",
					Content: har.Content{Size: 2, MimeType: "application/json", Text: "{}"},
				},
			}
			for _, ck := range r.Cookies {
				entry.Request.Cookies = append(entry.Request.Cookies, har.Cookie{Name: ck.Key, Value: ck.Value})
			}
			if body != nil {
				entry.Request.PostData = &har.PostData{MimeType: "application/json", Text: string(body)}
			}
			h.Append(entry)
			ts = ts.Add(137 * time.Millisecond)
		}
		connCtr += conns
	}
	return h
}

// EmitPCAP renders one trace of the mobile platform as a decryptable pcapng
// capture: every connection is a TLS 1.3 flow whose application data holds
// the HTTP requests, with the key log embedded in a Decryption Secrets
// Block (the editcap --inject-secrets workflow). One additional flow per
// capture deliberately lacks key material, reproducing the paper's
// partially-encrypted mobile traces.
func (st *ServiceTraffic) EmitPCAP(trace flows.TraceCategory) (*pcapio.Capture, error) {
	return st.EmitPCAPAt(trace, baseTime)
}

// EmitPCAPAt is EmitPCAP with an explicit capture start time — the mobile
// counterpart of EmitHARAt's per-user variation (timestamps shift, TLS
// secrets and decrypted flows do not).
func (st *ServiceTraffic) EmitPCAPAt(trace flows.TraceCategory, start time.Time) (*pcapio.Capture, error) {
	capt := &pcapio.Capture{LinkType: pcapio.LinkRaw}
	clientIP := netip.MustParseAddr("10.215.173.1")
	var keylog strings.Builder
	ts := start
	connCtr := 0

	dnsIP := netip.MustParseAddr("8.8.8.8")
	tag := traceTag(trace)
	writeFlow := func(fqdn string, wire []byte, withKeys bool) error {
		connCtr++
		srvIP := serverIP(fqdn)
		sport := uint16(40000 + connCtr%20000)
		seq := uint32(1000 * connCtr)

		// The DNS lookup that precedes the connection.
		if query, err := dnsx.EncodeQuery(uint16(connCtr), fqdn, dnsx.TypeA); err == nil {
			udp := &layers.UDP{SrcPort: uint16(30000 + connCtr%10000), DstPort: 53, Payload: query}
			ip := &layers.IPv4{
				TTL: 64, Protocol: layers.IPProtoUDP,
				Src: clientIP, Dst: dnsIP,
				Payload: udp.Encode(clientIP, dnsIP),
			}
			capt.Packets = append(capt.Packets, pcapio.Packet{Timestamp: ts, Data: ip.Encode()})
			ts = ts.Add(2 * time.Millisecond)
		}

		random := connHash("random", st.Spec.Name, tag, connCtr, "")
		// Every fourth connection negotiates TLS 1.2, as mixed real-world
		// captures do; the rest are TLS 1.3.
		useTLS12 := connCtr%4 == 0

		addPkt := func(flags uint8, payload []byte) {
			capt.Packets = append(capt.Packets, pcapio.Packet{
				Timestamp: ts,
				Data:      layers.BuildTCPv4(clientIP, srvIP, sport, 443, seq, 0, flags, payload),
				OrigLen:   0,
			})
			if flags&layers.FlagSYN != 0 {
				seq++
			}
			seq += uint32(len(payload))
			ts = ts.Add(3 * time.Millisecond)
		}
		addSrvPkt := func(payload []byte) {
			capt.Packets = append(capt.Packets, pcapio.Packet{
				Timestamp: ts,
				Data:      layers.BuildTCPv4(srvIP, clientIP, 443, sport, uint32(5000*connCtr), 0, layers.FlagACK|layers.FlagPSH, payload),
				OrigLen:   0,
			})
			ts = ts.Add(3 * time.Millisecond)
		}

		addPkt(layers.FlagSYN, nil)
		var stream []byte
		var sess interface {
			Seal(tlsx.ContentType, []byte) []byte
		}
		var err error
		if useTLS12 {
			serverRandom := connHash("server-random", st.Spec.Name, tag, connCtr, "")
			a, b := connHash("master", st.Spec.Name, tag, connCtr, "/a"), connHash("master", st.Spec.Name, tag, connCtr, "/b")
			masterSecret := append(a[:], b[:16]...)
			if withKeys {
				keylog.WriteString(tlsx.FormatLine(tlsx.LabelClientRandom, random[:], masterSecret))
			}
			stream = append(stream, tlsx.Record{
				Type:    tlsx.TypeHandshake,
				Payload: tlsx.BuildClientHello12(random, fqdn),
			}.Encode()...)
			// ServerHello travels in the reverse direction.
			addSrvPkt(tlsx.Record{
				Type:    tlsx.TypeHandshake,
				Payload: tlsx.BuildServerHello(serverRandom, 0x009C),
			}.Encode())
			sess, err = tlsx.NewSession12(masterSecret, random[:], serverRandom[:])
		} else {
			secret := connHash("secret", st.Spec.Name, tag, connCtr, "")
			if withKeys {
				keylog.WriteString(tlsx.FormatLine(tlsx.LabelClientTraffic, random[:], secret[:]))
			}
			stream = append(stream, tlsx.Record{
				Type:    tlsx.TypeHandshake,
				Payload: tlsx.BuildClientHello(random, fqdn),
			}.Encode()...)
			sess, err = tlsx.NewSession(secret[:])
		}
		if err != nil {
			return err
		}
		// Split the wire bytes into records of at most 4KiB.
		for off := 0; off < len(wire); {
			n := min(4096, len(wire)-off)
			stream = append(stream, sess.Seal(tlsx.TypeApplicationData, wire[off:off+n])...)
			off += n
		}
		// Segment the stream into MTU-sized TCP payloads.
		for off := 0; off < len(stream); {
			n := min(1400, len(stream)-off)
			addPkt(layers.FlagACK|layers.FlagPSH, stream[off:off+n])
			off += n
		}
		addPkt(layers.FlagFIN|layers.FlagACK, nil)
		return nil
	}

	for _, r := range st.Requests {
		if r.Trace != trace || r.Platform != flows.Mobile {
			continue
		}
		conns := r.Conns
		if conns < 1 {
			conns = 1
		}
		base, rem := r.Repeat/conns, r.Repeat%conns
		for c := 0; c < conns; c++ {
			repeat := base
			if c < rem {
				repeat++
			}
			if repeat == 0 {
				continue
			}
			var wire []byte
			for i := 0; i < repeat; i++ {
				wire = append(wire, httpWire(r)...)
			}
			if err := writeFlow(r.FQDN, wire, true); err != nil {
				return nil, err
			}
		}
	}

	// One opaque flow: encrypted traffic without key material, counted but
	// not decryptable (carries no planned data types).
	if len(st.Spec.FirstPartyESLDs) > 0 {
		opaque := &httpx.Request{
			Method:  "POST",
			Target:  "/opaque/blob",
			Headers: []httpx.Header{{Name: "Host", Value: "www." + st.Spec.FirstPartyESLDs[0]}},
			Body:    []byte(`{"blob":"ffffffff"}`),
		}
		if err := writeFlow("www."+st.Spec.FirstPartyESLDs[0], opaque.Encode(), false); err != nil {
			return nil, err
		}
	}

	if keylog.Len() > 0 {
		capt.Secrets = append(capt.Secrets, []byte(keylog.String()))
	}
	return capt, nil
}

// UserStart derives the deterministic capture start time of one synthetic
// user: user 0 is the canonical baseTime (emissions byte-identical to
// EmitHAR/EmitPCAP), every other user an FNV-seeded offset within the
// following two weeks. The seed depends only on the user index, so a
// population generated across any number of workers is reproducible
// file-for-file.
func UserStart(user int) time.Time {
	if user <= 0 {
		return baseTime
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "diffaudit-user-%d", user)
	offset := time.Duration(h.Sum64()%uint64(14*24*time.Hour/time.Millisecond)) * time.Millisecond
	return baseTime.Add(offset)
}

// httpWire renders the request as HTTP/1.1 bytes.
func httpWire(r *Request) []byte {
	body := bodyJSON(r.Body)
	req := &httpx.Request{
		Method: r.Method,
		Target: r.Path,
		Headers: []httpx.Header{
			{Name: "Host", Value: r.FQDN},
			{Name: "User-Agent", Value: userAgent(flows.Mobile)},
			{Name: "Content-Type", Value: "application/json"},
		},
		Body: body,
	}
	if len(r.Cookies) > 0 {
		var parts []string
		for _, ck := range r.Cookies {
			parts = append(parts, ck.Key+"="+ck.Value)
		}
		sort.Strings(parts)
		req.Headers = append(req.Headers, httpx.Header{Name: "Cookie", Value: strings.Join(parts, "; ")})
	}
	return req.Encode()
}

// serverIP derives a stable address in the benchmarking range from an FQDN.
func serverIP(fqdn string) netip.Addr {
	h := sha256.Sum256([]byte(fqdn))
	return netip.AddrFrom4([4]byte{198, 18, h[0], h[1]})
}

// traceTag is a persona's part of the synthetic connection IDs and TLS
// secrets: a built-in's table index, the seeds the calibrated dataset was
// generated from, or a custom persona's name.
func traceTag(t flows.TraceCategory) string {
	if i := t.BuiltinIndex(); i >= 0 {
		return strconv.Itoa(i)
	}
	return t.String()
}

// connHash derives a connection's deterministic TLS material: the SHA-256
// of "kind/service/trace/conn" plus suffix. The kinds are "random" (client
// random), "server-random" (TLS 1.2), "secret" (TLS 1.3 traffic secret) and
// "master" (TLS 1.2 master secret: suffix "/a", then 16 bytes of "/b").
func connHash(kind, service, trace string, conn int, suffix string) [32]byte {
	return sha256.Sum256(fmt.Appendf(nil, "%s/%s/%s/%d%s", kind, service, trace, conn, suffix))
}
