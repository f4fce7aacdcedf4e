package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"diffaudit/internal/faults"
	"diffaudit/internal/flows"
	"diffaudit/internal/netcap/pcapio"
)

// ctxTestRecords fabricates enough records for several stream batches.
func ctxTestRecords(n int) []RequestRecord {
	recs := make([]RequestRecord, n)
	for i := range recs {
		recs[i] = RequestRecord{
			Trace:    flows.Child,
			Platform: flows.Web,
			Method:   "GET",
			URL:      fmt.Sprintf("https://api.example.com/v1/item?user_id=u%d", i),
			FQDN:     "api.example.com",
			ConnID:   fmt.Sprintf("c%d", i%7),
		}
	}
	return recs
}

func ctxTestIdentity() ServiceIdentity {
	return ServiceIdentity{Name: "ctx-test", Owner: "Example", FirstPartyESLDs: []string{"example.com"}}
}

// TestAnalyzeContextCancelledReturnsErr: an already-dead context aborts
// an audit under a given identity and one under a guessed identity with
// ctx.Err() and no partial result, with one worker and with several alike.
func TestAnalyzeContextCancelledReturnsErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs := ctxTestRecords(4 * streamBatchSize)
	for _, workers := range []int{1, 4} {
		p := NewPipeline()
		p.Workers = workers
		for _, guess := range []bool{false, true} {
			res, _, err := p.Audit(ctx, ctxTestIdentity(), guess, SliceSource(recs))
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d guess=%v Audit = (%v, %v), want (nil, Canceled)", workers, guess, res, err)
			}
		}
	}
}

// TestAnalyzeContextBackgroundIdentical: Audit under a background context
// matches the context-free entry points exactly.
func TestAnalyzeContextBackgroundIdentical(t *testing.T) {
	recs := ctxTestRecords(3*streamBatchSize + 17)
	id := ctxTestIdentity()
	for _, workers := range []int{1, 4} {
		p := NewPipeline()
		p.Workers = workers
		want := p.AnalyzeRecords(id, recs)
		got, _, err := p.Audit(context.Background(), id, false, SliceSource(recs))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Packets != want.Packets || got.TCPFlows != want.TCPFlows || len(got.Domains) != len(want.Domains) || len(got.RawKeys) != len(want.RawKeys) {
			t.Errorf("workers=%d context run differs: got %+v want %+v", workers, got, want)
		}
		sres, err := p.AnalyzeStream(id, SliceSource(recs))
		if err != nil {
			t.Fatalf("workers=%d stream: %v", workers, err)
		}
		if sres.Packets != want.Packets || len(sres.RawKeys) != len(want.RawKeys) {
			t.Errorf("workers=%d stream context run differs", workers)
		}
	}
}

// TestAnalyzeStreamDeadlineAborts: with injected per-batch latency, a
// deadline shorter than the stream trips at a batch boundary and the
// stream reports DeadlineExceeded instead of running to completion.
func TestAnalyzeStreamDeadlineAborts(t *testing.T) {
	defer faults.Reset()
	faults.Set("decode.slow", faults.Plan{Delay: 30 * time.Millisecond, Count: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	// ≥3 batches: boundary checks at t≈0, ≥30ms, ≥60ms — the last is
	// past the 40ms deadline regardless of scheduling.
	recs := ctxTestRecords(2*streamBatchSize + 8)
	for _, workers := range []int{1, 4} {
		p := NewPipeline()
		p.Workers = workers
		faults.Set("decode.slow", faults.Plan{Delay: 30 * time.Millisecond, Count: -1})
		res, _, err := p.Audit(ctx, ctxTestIdentity(), false, SliceSource(recs))
		if res != nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("workers=%d = (%v, %v), want (nil, DeadlineExceeded)", workers, res, err)
		}
	}
}

// cancellingSource yields records and cancels the run's own context once
// `after` of them have been pulled, counting every pull.
type cancellingSource struct {
	src    RecordSource
	after  int
	cancel context.CancelFunc
	pulled int
}

func (c *cancellingSource) Next() (RequestRecord, error) {
	if c.pulled == c.after {
		c.cancel()
	}
	c.pulled++
	return c.src.Next()
}

// TestAnalyzeUnknownStreamDeadlineAborts: the single pass of an
// identity-unknown audit is the only pass, so it is the one the deadline
// has to reach — a context that dies mid-capture stops the pull at the next
// batch boundary, with ctx.Err() and no result.
func TestAnalyzeUnknownStreamDeadlineAborts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancellingSource{src: SliceSource(ctxTestRecords(8 * streamBatchSize)), after: streamBatchSize + 1, cancel: cancel}
		p := NewPipeline()
		p.Workers = workers
		res, _, err := p.Audit(ctx, ServiceIdentity{Name: "ctx-test"}, true, src)
		cancel()
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d = (%v, %v), want (nil, Canceled)", workers, res, err)
		}
		if src.pulled > 2*streamBatchSize {
			t.Errorf("workers=%d pulled %d records after a cancel at %d, want the pull to stop at the batch boundary (%d)",
				workers, src.pulled, src.after, 2*streamBatchSize)
		}
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, _, err := NewPipeline().Audit(ctx, ServiceIdentity{Name: "ctx-test"}, true, SliceSource(ctxTestRecords(8)))
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline = (%v, %v), want (nil, DeadlineExceeded)", res, err)
	}
}

// junkPackets is a packet source of n undecodable frames: the packet phase
// counts each and parses none, so a test sees exactly how far it read.
type junkPackets struct {
	n, read int
	onRead  func(read int)
}

func (j *junkPackets) Next() (pcapio.Packet, error) {
	if j.read >= j.n {
		return pcapio.Packet{}, io.EOF
	}
	if j.onRead != nil {
		j.onRead(j.read)
	}
	j.read++
	return pcapio.Packet{Data: []byte{0xde, 0xad}}, nil
}

func (j *junkPackets) LinkType() pcapio.LinkType { return pcapio.LinkEthernet }
func (j *junkPackets) Secrets() [][]byte         { return nil }

// TestPCAPSourceDeadlineReachesPacketPhase: the first Next of a pcap
// source drains the whole capture, so that is where a job deadline must be
// looked at — an expired context stops the drain within
// pcapCtxCheckPackets frames instead of at end of file.
func TestPCAPSourceDeadlineReachesPacketPhase(t *testing.T) {
	const packets = 50 * pcapCtxCheckPackets

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	pk := &junkPackets{n: packets}
	src := NewPCAPSource(expired, pk, nil, flows.Child)
	if _, err := src.Next(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: Next = %v, want DeadlineExceeded", err)
	}
	if pk.read > pcapCtxCheckPackets {
		t.Fatalf("expired context: read %d of %d packets, want at most %d", pk.read, packets, pcapCtxCheckPackets)
	}
	if _, err := src.Next(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Next = %v, want the error to stick", err)
	}

	// Dying mid-capture: the drain stops at the next checkpoint.
	const dieAt = 3*pcapCtxCheckPackets + 7
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	pk = &junkPackets{n: packets, onRead: func(read int) {
		if read == dieAt {
			stop()
		}
	}}
	if _, err := NewPCAPSource(ctx, pk, nil, flows.Child).Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-capture: Next = %v, want Canceled", err)
	}
	if pk.read > dieAt+pcapCtxCheckPackets {
		t.Fatalf("cancelled at packet %d: read %d, want at most %d", dieAt, pk.read, dieAt+pcapCtxCheckPackets)
	}

	// A live context changes nothing: the capture drains to EOF.
	pk = &junkPackets{n: packets}
	src = NewPCAPSource(context.Background(), pk, nil, flows.Child)
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("live context: Next = %v, want EOF", err)
	}
	if got := src.Stats().Packets; got != packets {
		t.Fatalf("live context: counted %d packets, want %d", got, packets)
	}
}

// TestDecodeSlowErrorAbortsStream: an error-mode decode.slow injection
// surfaces as the stream error — the hook the chaos suite uses to model
// a decoder failing mid-capture.
func TestDecodeSlowErrorAbortsStream(t *testing.T) {
	defer faults.Reset()
	boom := errors.New("injected decode failure")
	faults.Set("decode.slow", faults.Plan{Err: boom, On: 2})
	p := NewPipeline()
	p.Workers = 1
	_, err := p.AnalyzeStream(ctxTestIdentity(), SliceSource(ctxTestRecords(3*streamBatchSize)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
}
