package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"

	"diffaudit/internal/faults"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/netcap/dnsx"
	"diffaudit/internal/netcap/layers"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/netcap/reassembly"
	"diffaudit/internal/netcap/tlsx"
	"diffaudit/internal/services"
)

// harSource adapts a streaming HAR decoder to RecordSource: one entry's
// request fields are resident at a time, at most har.MaxEntryBytes, so
// arbitrarily large website captures feed AnalyzeStream in constant memory.
type harSource struct {
	dec   *har.StreamDecoder
	trace flows.TraceCategory
}

// NewHARSource returns a RecordSource yielding one web record per entry of
// a streamed HAR document.
func NewHARSource(dec *har.StreamDecoder, trace flows.TraceCategory) RecordSource {
	return &harSource{dec: dec, trace: trace}
}

func (s *harSource) Next() (RequestRecord, error) {
	e, err := s.dec.Next()
	if err != nil {
		return RequestRecord{}, err
	}
	return recordFromHAREntry(&e, s.trace), nil
}

// PCAPSource converts a packet stream into request records. Packets are
// read one at a time into the reader's one buffer, but memory is not
// constant in the capture: the reassembler copies every TCP payload byte
// into a buffer per flow direction and keeps it until the packet phase ends
// and the streams are assembled (TLS decryption needs whole streams, and
// pcapng may put the keys last). Frames themselves are not kept, and frames
// without TCP payload (DNS, ACKs, non-IP) leave nothing behind. A
// direction's buffer is sized by its first segment and doubles when full,
// so it holds under twice its payload and is copied a few times, not once
// per 25 % of growth. A capture's peak is therefore under twice its
// payload, which server.Config.MaxUploadBytes bounds; the source lets go of
// each stream's payload as it decodes it.
//
// The source works in two phases behind a single Next API: the first call
// drains the packet iterator into the reassembler (collecting DNS and
// packet counts on the way); then Next decrypts and parses one stream at a
// time, in capture order, on its caller's goroutine, whenever the records
// of the stream before are used up. A decode that panics panics the Next
// caller. The context is consulted every pcapCtxCheckPackets frames of the
// first phase and before each stream of the second, so a deadline reaches
// a capture of any size; a run it does not cut short is unaffected.
type PCAPSource struct {
	ctx   context.Context
	pkts  pcapio.PacketSource
	extra *tlsx.KeyLog
	trace flows.TraceCategory

	started bool
	stats   PCAPStats
	dec     *tlsx.StreamDecryptor
	streams []*reassembly.Stream
	pending []RequestRecord
	err     error
}

// NewPCAPSource returns a RecordSource over a packet stream. TLS key
// material is taken from the stream's Decryption Secrets Blocks plus the
// optional extra key log, which is only read and may be shared between
// sources. Stats are valid once Next has returned io.EOF; once ctx is done
// Next fails with ctx.Err().
func NewPCAPSource(ctx context.Context, pkts pcapio.PacketSource, extra *tlsx.KeyLog, trace flows.TraceCategory) *PCAPSource {
	return &PCAPSource{ctx: ctx, pkts: pkts, extra: extra, trace: trace}
}

// pcapCtxCheckPackets is how many frames the packet phase decodes between
// looks at the context.
const pcapCtxCheckPackets = 1024

// Stats reports ingestion counters. Packet-level fields are complete after
// the first Next call; stream-level fields (TLS, decryption) are complete
// once Next has returned io.EOF.
func (s *PCAPSource) Stats() PCAPStats { return s.stats }

func (s *PCAPSource) Next() (RequestRecord, error) {
	if s.err != nil {
		return RequestRecord{}, s.err
	}
	if !s.started {
		if err := s.start(); err != nil {
			s.err = err
			return RequestRecord{}, err
		}
	}
	for len(s.pending) == 0 {
		if err := s.ctx.Err(); err != nil {
			return s.fail(err)
		}
		if len(s.streams) == 0 {
			s.err = io.EOF
			return RequestRecord{}, io.EOF
		}
		stream := s.streams[0]
		s.streams[0] = nil // the decode holds the stream's payload now
		s.streams = s.streams[1:]
		if err := faults.Inject("pcap.stream"); err != nil {
			return s.fail(err)
		}
		s.pending = emitStreamRecords(s.dec, stream, s.trace, &s.stats)
	}
	rec := s.pending[0]
	s.pending = s.pending[1:]
	return rec, nil
}

// fail ends the source with err and drops what is left of the capture.
func (s *PCAPSource) fail(err error) (RequestRecord, error) {
	s.streams, s.pending = nil, nil
	s.err = err
	return RequestRecord{}, err
}

// start drains the packet phase: every frame is decoded and fed to the
// reassembler (or the DNS collector), then the key log is assembled from
// the secrets the stream carried.
func (s *PCAPSource) start() error {
	asm := reassembly.New()
	queried := map[string]bool{}
	for {
		if s.stats.Packets%pcapCtxCheckPackets == 0 {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		pkt, err := s.pkts.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		s.stats.Packets++
		d, err := layers.Decode(s.pkts.LinkType(), pkt.Data)
		if err != nil {
			continue // non-IP or malformed: counted, not parsed
		}
		if d.UDP != nil && d.DstPort == 53 {
			if msg, err := dnsx.Parse(d.Payload); err == nil && !msg.Response {
				for _, q := range msg.Questions {
					s.stats.DNSQueries++
					queried[q.Name] = true
				}
			}
			continue
		}
		asm.Add(d) // copies the payload: pkt.Data is reused by the next read
	}
	s.stats.TCPFlows = asm.FlowCount()
	for name := range queried {
		s.stats.QueriedNames = append(s.stats.QueriedNames, name)
	}
	sort.Strings(s.stats.QueriedNames)

	// Secrets are complete only after the packet drain: pcapng allows
	// Decryption Secrets Blocks anywhere in the file.
	keylog := tlsx.NewKeyLog()
	for _, sec := range s.pkts.Secrets() {
		kl, err := tlsx.ParseKeyLog(sec)
		if err != nil {
			return fmt.Errorf("core: embedded keylog: %w", err)
		}
		keylog.Merge(kl)
	}
	keylog.Merge(s.extra)
	s.dec = tlsx.NewStreamDecryptor(keylog)
	s.streams = asm.Streams()
	s.started = true
	return nil
}

// Capture is one capture file of an audit: a website HAR or a mobile pcap
// or pcapng, recorded under one persona. A non-empty Label prefixes the
// errors of opening the file and of reading the key log for it
// ("label: err"); a CLI passes the path, a server that must not name its
// staging paths passes nothing.
type Capture struct {
	Path  string
	HAR   bool
	Trace flows.TraceCategory
	Label string
}

// AuditCaptures audits a set of capture files in one pass, in the order
// given: each file is opened and parsed once, and the SSLKEYLOGFILE at
// keylogPath (none when "") is parsed at the first mobile capture and
// shared, read-only, by the rest. A service with a profile
// (services.ByName) is audited under it; for any other name the first
// party is the eSLD most of the captures' records went to, found in the
// same pass (see Audit). Besides the result and its label-cache counts it
// returns each capture's ingestion stats, zero for a HAR. Mobile captures
// honor ctx as PCAPSource does, the analysis as Audit does.
func (p *Pipeline) AuditCaptures(ctx context.Context, name, keylogPath string, caps []Capture) (*ServiceResult, LabelStats, []PCAPStats, error) {
	srcs, pcaps, closeAll, err := openCaptures(ctx, keylogPath, caps)
	if err != nil {
		return nil, LabelStats{}, nil, err
	}
	defer closeAll()
	id, guess := ServiceIdentity{Name: name}, true
	if spec, ok := services.ByName(name); ok {
		id, guess = ServiceIdentity{Name: spec.Name, Owner: spec.Owner, FirstPartyESLDs: spec.FirstPartyESLDs}, false
	}
	res, labels, err := p.Audit(ctx, id, guess, MultiSource(srcs...))
	if err != nil {
		return nil, LabelStats{}, nil, err
	}
	stats := make([]PCAPStats, len(caps))
	for i, src := range pcaps {
		if src != nil {
			stats[i] = src.Stats()
		}
	}
	return res, labels, stats, nil
}

// ReadCapture reads one capture file into memory through the reader
// AuditCaptures uses, with its ingestion stats (zero for a HAR).
func ReadCapture(keylogPath string, c Capture) ([]RequestRecord, PCAPStats, error) {
	srcs, pcaps, closeAll, err := openCaptures(context.Background(), keylogPath, []Capture{c})
	if err != nil {
		return nil, PCAPStats{}, err
	}
	defer closeAll()
	recs, err := Drain(srcs[0])
	if err != nil || pcaps[0] == nil {
		return recs, PCAPStats{}, err
	}
	return recs, pcaps[0].Stats(), nil
}

// openCaptures opens every capture as a record source; pcaps holds the
// mobile ones' sources at their captures' indexes. The files stay open
// until closeAll; on error none is left open.
func openCaptures(ctx context.Context, keylogPath string, caps []Capture) (srcs []RecordSource, pcaps []*PCAPSource, closeAll func(), err error) {
	var files []*os.File
	closeAll = func() {
		for _, f := range files {
			f.Close()
		}
	}
	fail := func(c Capture, err error) ([]RecordSource, []*PCAPSource, func(), error) {
		closeAll()
		if c.Label != "" {
			err = fmt.Errorf("%s: %w", c.Label, err)
		}
		return nil, nil, nil, err
	}
	srcs, pcaps = make([]RecordSource, len(caps)), make([]*PCAPSource, len(caps))
	var keylog *tlsx.KeyLog
	for i, c := range caps {
		if keylog == nil && keylogPath != "" && !c.HAR {
			if keylog, err = loadKeyLog(keylogPath); err != nil {
				return fail(c, err)
			}
		}
		f, err := os.Open(c.Path)
		if err != nil {
			return fail(c, err)
		}
		files = append(files, f)
		if c.HAR {
			srcs[i] = NewHARSource(har.NewStreamDecoder(f), c.Trace)
			continue
		}
		rd, err := pcapio.NewReader(f)
		if err != nil {
			return fail(c, err)
		}
		pcaps[i] = NewPCAPSource(ctx, rd, keylog, c.Trace)
		srcs[i] = pcaps[i]
	}
	return srcs, pcaps, closeAll, nil
}

// loadKeyLog reads and parses an SSLKEYLOGFILE.
func loadKeyLog(path string) (*tlsx.KeyLog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return tlsx.ParseKeyLog(data)
}
