package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
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
// payload, which server.Config.MaxUploadBytes bounds, plus what the
// decodes in flight hold.
//
// The source works in two phases behind a single Next API: the first call
// drains the packet iterator into the reassembler (collecting DNS and
// packet counts on the way); then streams are decrypted and parsed in an
// ordered window, up to 2×GOMAXPROCS streams at once, each on a goroutine of
// its own with its own stats. Next hands out records, and merges stats,
// stream by stream in capture order, so what a source yields does not depend
// on how the decodes were scheduled. A decode that panics re-raises the
// panic on the Next caller. The context is consulted every
// pcapCtxCheckPackets frames of the first phase and before each stream of
// the second is dispatched or consumed, so a deadline reaches a capture of
// any size; a run it does not cut short is unaffected. Decodes already
// dispatched when a run is cut short, or its FileSource closed, run to
// their end, but their results are dropped; the failing Next, or
// FileSource.Close, returns once they have.
type PCAPSource struct {
	ctx   context.Context
	pkts  pcapio.PacketSource
	extra *tlsx.KeyLog
	trace flows.TraceCategory

	started bool
	stats   PCAPStats
	dec     *tlsx.StreamDecryptor
	streams []*reassembly.Stream
	next    int // streams[next] is the next stream to dispatch
	width   int // most decodes in flight
	window  []*streamDecode
	pending []RequestRecord
	err     error
}

// streamDecode is one stream's decode. Its fields are written by the
// decoding goroutine and read once done is closed.
type streamDecode struct {
	done  chan struct{}
	recs  []RequestRecord
	stats PCAPStats
	err   error
	// panicked is the panic value and the decoding goroutine's stack,
	// non-empty when the decode panicked.
	panicked string
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
		if err := s.fill(); err != nil {
			return s.fail(err)
		}
		if len(s.window) == 0 {
			s.err = io.EOF
			return RequestRecord{}, io.EOF
		}
		d := s.window[0]
		s.window[0] = nil
		s.window = s.window[1:]
		<-d.done
		if d.panicked != "" {
			msg := "core: stream decode panicked: " + d.panicked
			s.fail(errors.New(msg))
			panic(msg)
		}
		if d.err != nil {
			return s.fail(d.err)
		}
		s.stats.addStreams(&d.stats)
		s.pending = d.recs
	}
	rec := s.pending[0]
	s.pending = s.pending[1:]
	return rec, nil
}

// fail ends the source with err, once every decode in flight has ended.
func (s *PCAPSource) fail(err error) (RequestRecord, error) {
	s.stop()
	s.err = err
	return RequestRecord{}, err
}

// stop waits for the decodes in flight to end and drops what is left of
// the capture.
func (s *PCAPSource) stop() {
	for _, d := range s.window {
		<-d.done
	}
	s.window, s.streams, s.pending = nil, nil, nil
}

// fill dispatches streams until width decodes are in flight or none is
// left, looking at the context before each.
func (s *PCAPSource) fill() error {
	for len(s.window) < s.width && s.next < len(s.streams) {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		stream := s.streams[s.next]
		s.streams[s.next] = nil // the decode holds the stream's payload now
		s.next++
		d := &streamDecode{done: make(chan struct{})}
		go d.run(s.dec, stream, s.trace)
		s.window = append(s.window, d)
	}
	return nil
}

// run decodes one stream, containing a panic for the Next caller to raise.
func (d *streamDecode) run(dec *tlsx.StreamDecryptor, stream *reassembly.Stream, trace flows.TraceCategory) {
	defer close(d.done)
	defer func() {
		if r := recover(); r != nil {
			d.panicked = fmt.Sprintf("%v\n\nstream decode goroutine:\n%s", r, debug.Stack())
		}
	}()
	if d.err = faults.Inject("pcap.stream"); d.err != nil {
		return
	}
	d.recs = emitStreamRecords(dec, stream, trace, &d.stats)
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
	s.width = 2 * runtime.GOMAXPROCS(0)
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

// Close releases the underlying file, once any stream decodes a capture
// has in flight have ended. Safe to call repeatedly.
func (s *FileSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.pcap != nil {
		s.pcap.stop()
	}
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
