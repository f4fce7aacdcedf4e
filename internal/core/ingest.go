package core

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"diffaudit/internal/domains"
	"diffaudit/internal/extract"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/httpx"
	"diffaudit/internal/netcap/reassembly"
	"diffaudit/internal/netcap/tlsx"
)

// recordFromHAREntry converts one HAR entry (a request exported from the
// browser's network panel) into a request record for the HAR source.
func recordFromHAREntry(e *har.Record, trace flows.TraceCategory, platform flows.Platform) RequestRecord {
	req := &e.Request
	rec := RequestRecord{
		Trace:    trace,
		Platform: platform,
		Method:   req.Method,
		URL:      req.URL,
		FQDN:     req.Host,
		BodyMIME: req.MimeType,
		Body:     req.Body,
		Repeat:   1,
		ConnID:   e.Connection,
	}
	if len(req.Cookies) > 0 {
		rec.Cookies = make([]extract.KVPair, len(req.Cookies))
		for i, c := range req.Cookies {
			rec.Cookies[i] = extract.KVPair{Name: c.Name, Value: c.Value}
		}
	}
	return rec
}

// PCAPStats reports what the PCAP ingestion saw, including traffic that
// stayed encrypted — the paper includes undecrypted traffic in its counts.
type PCAPStats struct {
	Packets          int
	TCPFlows         int
	TLSStreams       int
	DecryptedStreams int
	OpaqueStreams    int
	// TLS12Streams counts flows that negotiated TLS 1.2 (the remainder of
	// TLSStreams negotiated 1.3); mixed captures exercise both decryption
	// paths.
	TLS12Streams int
	// DNSQueries counts outgoing DNS questions; QueriedNames lists the
	// distinct names looked up, corroborating packet destinations.
	DNSQueries   int
	QueriedNames []string
	// OpaqueSNIs lists the server names of flows that stayed encrypted:
	// the paper counts such destinations even without payload visibility.
	OpaqueSNIs []string
}

// maxPresizedRecords caps the records a stream is sized for before they
// are read, so a short first request ahead of a long body costs no large
// allocation.
const maxPresizedRecords = 1024

// emitStreamRecords converts one reassembled TCP stream into request
// records, decrypting TLS with dec and updating stats. Undecryptable or
// non-HTTP streams are counted and yield nil.
func emitStreamRecords(dec *tlsx.StreamDecryptor, stream *reassembly.Stream, trace flows.TraceCategory, stats *PCAPStats) []RequestRecord {
	// The client half is whichever direction targets port 443/80.
	clientData, serverData := stream.ClientData, stream.ServerData
	if stream.Key.PortLo == 443 || stream.Key.PortLo == 80 {
		clientData, serverData = serverData, clientData
	}
	if len(clientData) == 0 {
		return nil
	}
	connID := fmt.Sprintf("%s:%d-%s:%d",
		stream.Key.AddrLo, stream.Key.PortLo, stream.Key.AddrHi, stream.Key.PortHi)

	var plaintext []byte
	if res, err := dec.DecryptConversation(clientData, serverData); err == nil {
		stats.TLSStreams++
		if res.TLS12 {
			stats.TLS12Streams++
		}
		if !res.Decrypted {
			stats.OpaqueStreams++
			if res.SNI != "" {
				stats.OpaqueSNIs = append(stats.OpaqueSNIs, res.SNI)
			}
			return nil
		}
		stats.DecryptedStreams++
		plaintext = res.Plaintext
	} else {
		// Not TLS: try plain HTTP.
		plaintext = clientData
	}
	// A connection mostly repeats its last request: a record whose head
	// repeats the one before it is that record with its own body, so the
	// records of one head share their strings and Cookies.
	var out []RequestRecord
	for rd := httpx.NewReader(plaintext); ; {
		r, repeated, err := rd.Next()
		if err == io.EOF || errors.Is(err, httpx.ErrIncomplete) {
			return out
		}
		if err != nil {
			return nil
		}
		if out == nil {
			// Sized for a stream that repeats its first request all
			// through, as a keep-alive connection mostly does.
			first := len(plaintext) - rd.Len()
			out = make([]RequestRecord, 0, min(len(plaintext)/first, maxPresizedRecords))
		}
		if repeated {
			rec := out[len(out)-1]
			rec.Body = r.Body
			out = append(out, rec)
			continue
		}
		host, url := r.HostURL()
		rec := RequestRecord{
			Trace:    trace,
			Platform: flows.Mobile,
			Method:   r.Method,
			URL:      url,
			FQDN:     host,
			BodyMIME: r.Get("Content-Type"),
			Body:     r.Body,
			Repeat:   1,
			ConnID:   connID,
		}
		for raw := r.Get("Cookie"); ; {
			name, value, rest, ok := httpx.NextCookie(raw)
			if !ok {
				break
			}
			if rec.Cookies == nil {
				rec.Cookies = make([]extract.KVPair, 0, strings.Count(raw, ";")+1)
			}
			rec.Cookies, raw = append(rec.Cookies, extract.KVPair{Name: name, Value: value}), rest
		}
		out = append(out, rec)
	}
}

// GuessIdentity derives a service identity from a set of records by taking
// the most-contacted eSLD as the first party, for auditing services without
// a profile (the custom-service example). Audit with guess applies the
// same rule inside its one pass; this is the reference it is tested
// against.
func GuessIdentity(name string, recs []RequestRecord) ServiceIdentity {
	counts := map[string]int{}
	for i := range recs {
		if e := domains.ESLD(recs[i].FQDN); e != "" {
			counts[e]++
		}
	}
	return identityFromESLDCounts(name, counts)
}

// identityFromESLDCounts picks the most-contacted eSLD as first party,
// breaking ties lexicographically for determinism.
func identityFromESLDCounts(name string, counts map[string]int) ServiceIdentity {
	best, bestN := "", 0
	for e, n := range counts {
		if n > bestN || (n == bestN && e < best) {
			best, bestN = e, n
		}
	}
	id := ServiceIdentity{Name: name}
	if best != "" {
		id.FirstPartyESLDs = []string{best}
	}
	return id
}
