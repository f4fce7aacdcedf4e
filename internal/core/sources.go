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
)

// harSource adapts a streaming HAR decoder to RecordSource: one entry's
// request fields are resident at a time, at most har.MaxEntryBytes, so
// arbitrarily large website captures feed AnalyzeStream in constant memory.
type harSource struct {
	dec      *har.StreamDecoder
	trace    flows.TraceCategory
	platform flows.Platform
}

// NewHARSource returns a RecordSource yielding one record per entry of a
// streamed HAR document.
func NewHARSource(dec *har.StreamDecoder, trace flows.TraceCategory, platform flows.Platform) RecordSource {
	return &harSource{dec: dec, trace: trace, platform: platform}
}

func (s *harSource) Next() (RequestRecord, error) {
	e, err := s.dec.Next()
	if err != nil {
		return RequestRecord{}, err
	}
	return recordFromHAREntry(&e, s.trace, s.platform), nil
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

// FileSource is a record source streaming from a capture file on disk.
// The file closes itself when the stream ends (EOF or error); Close is
// for early abort. An audit drains each source once.
type FileSource struct {
	inner  RecordSource
	f      *os.File
	pcap   *PCAPSource // non-nil for capture files with ingestion stats
	closed bool
}

func (s *FileSource) Next() (RequestRecord, error) {
	rec, err := s.inner.Next()
	if err != nil {
		s.Close()
	}
	return rec, err
}

// Close releases the underlying file. Safe to call repeatedly.
func (s *FileSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// PCAPStats reports ingestion stats for PCAP-backed sources (zero value,
// false for HAR sources). Complete once the source has been drained.
func (s *FileSource) PCAPStats() (PCAPStats, bool) {
	if s.pcap == nil {
		return PCAPStats{}, false
	}
	return s.pcap.Stats(), true
}

// OpenHARFileSource opens a website capture for streaming audit: entries
// decode incrementally, so the file never loads whole.
func OpenHARFileSource(path string, trace flows.TraceCategory, platform flows.Platform) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &FileSource{
		inner: NewHARSource(har.NewStreamDecoder(f), trace, platform),
		f:     f,
	}, nil
}

// OpenPCAPFileSource opens a mobile capture (pcap or pcapng) for streaming
// audit under ctx (see PCAPSource). TLS key material comes from embedded
// Decryption Secrets Blocks plus, optionally, an external key log, which
// the captures of one audit share (LoadKeyLog).
func OpenPCAPFileSource(ctx context.Context, path string, extra *tlsx.KeyLog, trace flows.TraceCategory) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rd, err := pcapio.NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	src := NewPCAPSource(ctx, rd, extra, trace)
	return &FileSource{inner: src, f: f, pcap: src}, nil
}

// LoadKeyLog reads and parses an SSLKEYLOGFILE.
func LoadKeyLog(path string) (*tlsx.KeyLog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return tlsx.ParseKeyLog(data)
}
