package core

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"diffaudit/internal/faults"
)

// defaultWorkers is the pool size when Pipeline.Workers is 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RecordSource is a pull-based iterator over request records — the
// streaming counterpart of a []RequestRecord. Next returns io.EOF when the
// source is exhausted; any other error aborts the stream. Sources are not
// required to be safe for concurrent use: the pipeline pulls from a single
// goroutine and fans batches out to workers.
type RecordSource interface {
	Next() (RequestRecord, error)
}

// sliceSource adapts an in-memory record slice to RecordSource.
type sliceSource struct {
	recs []RequestRecord
	i    int
}

// SliceSource returns a RecordSource over an in-memory slice.
func SliceSource(recs []RequestRecord) RecordSource {
	return &sliceSource{recs: recs}
}

func (s *sliceSource) Next() (RequestRecord, error) {
	if s.i >= len(s.recs) {
		return RequestRecord{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// multiSource concatenates sources, draining each in order.
type multiSource struct {
	srcs []RecordSource
}

// MultiSource returns a RecordSource that yields every record of each
// source in order — the streaming equivalent of appending record slices
// (e.g. one capture file per trace category feeding a single audit).
func MultiSource(srcs ...RecordSource) RecordSource {
	return &multiSource{srcs: srcs}
}

func (m *multiSource) Next() (RequestRecord, error) {
	for len(m.srcs) > 0 {
		rec, err := m.srcs[0].Next()
		if err == io.EOF {
			m.srcs = m.srcs[1:]
			continue
		}
		return rec, err
	}
	return RequestRecord{}, io.EOF
}

// Drain reads a source to its end and returns every record: how the
// facade's in-memory loaders (LoadHARFile, LoadPCAPFile) are made from the
// streaming sources.
func Drain(src RecordSource) ([]RequestRecord, error) {
	var out []RequestRecord
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// streamBatchSize is the unit of work: the number of records pulled from a
// source per batch and handed to one worker. Small enough to balance load
// across workers on skewed record mixes, large enough that the channel
// handoff never shows up in a profile.
const streamBatchSize = 256

// streamQueueDepth bounds how many filled batches may sit between the
// producer (pulling from the source) and the workers. Together with the
// batches workers are actively processing, this caps peak record residency
// at (workers + streamQueueDepth + 1) × streamBatchSize records regardless
// of how many records the source yields — the constant-memory guarantee
// the streaming ingestion exists for.
const streamQueueDepth = 4

// poisonBatch, when set, is run on each batch a worker has finished and
// cleared, over its whole capacity, before the batch is refilled: a test
// fills it with garbage records to show that no result depends on a batch
// once it is done.
var poisonBatch func([]RequestRecord)

// streamStats reports what an analysis did beside its result: the peak
// number of record batches simultaneously resident (the memory-bound tests
// assert on it) and, for a run that completes, its label-cache lookups.
type streamStats struct {
	peakBatches int32
	labels      LabelStats
}

// AnalyzeStream runs the full pipeline over a record stream: Audit under
// the background context with the identity given.
func (p *Pipeline) AnalyzeStream(id ServiceIdentity, src RecordSource) (*ServiceResult, error) {
	res, _, err := p.Audit(context.Background(), id, false, src)
	return res, err
}

// Audit runs the full pipeline over a record stream and counts the
// analysis's label-cache lookups — how a server reports what its cache
// saved a job. Every audit runs this one loop (AnalyzeRecords and
// AnalyzeStream are it under the background context), so the result is the
// same at every Workers setting and batch boundary (the equivalence tests
// assert this byte-for-byte on rendered artifacts).
//
// Records are pulled from the source in batches of streamBatchSize and fed
// to a pool of Pipeline.Workers goroutines; at most
// workers + streamQueueDepth + 1 batches are in flight at any moment, so
// peak memory is independent of stream length. The source is drained on
// the calling goroutine; workers only see completed batches.
//
// Cancellation and deadline expiry are honored at batch boundaries only: a
// batch already handed to the pool always completes, so a run that
// finishes is byte-identical to one under the background context, and a
// run that is cut short returns ctx.Err() and no result. This is what
// gives every server job a deadline without ever wedging a worker
// mid-record.
//
// With guess, only id.Name is used: the first party is the eSLD most of
// the stream's records went to, found during the same single pass, so the
// result (its Identity included) equals an audit under
// GuessIdentity(id.Name, records) without the records being held or read
// twice. Records under two personas of one name are an error
// (ServiceResult.CheckPersonas). The counts are zero when the analysis
// fails.
func (p *Pipeline) Audit(ctx context.Context, id ServiceIdentity, guess bool, src RecordSource) (*ServiceResult, LabelStats, error) {
	res, stats, err := p.analyzeStream(ctx, id, guess, src)
	if err != nil {
		return nil, LabelStats{}, err
	}
	return res, stats.labels, nil
}

// analyzeStream is the only place analysis workers start and batches
// fill, for given and guessed (see partialResult.result) identities
// alike, plus residency instrumentation.
func (p *Pipeline) analyzeStream(ctx context.Context, id ServiceIdentity, guess bool, src RecordSource) (*ServiceResult, *streamStats, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}

	// live counts batches currently resident (filled but not yet fully
	// processed); peak is its high-water mark.
	var live, peak int32
	acquire := func() {
		n := atomic.AddInt32(&live, 1)
		for {
			old := atomic.LoadInt32(&peak)
			if n <= old || atomic.CompareAndSwapInt32(&peak, old, n) {
				break
			}
		}
	}

	batches := make(chan []RequestRecord, streamQueueDepth)
	// A worker clears each batch it finishes, so a recycled batch pins no
	// request, and hands it back for the producer to refill. No more
	// batches than may be in flight are ever made, so free never blocks.
	free := make(chan []RequestRecord, workers+streamQueueDepth+1)
	// A worker's partial exists once it has been handed a batch; one that
	// never is contributes nothing to the merge.
	partials := make([]*partialResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for batch := range batches {
				if partials[w] == nil {
					partials[w] = newPartialResult(streamBatchSize * streamQueueDepth)
				}
				p.analyzeChunk(batch, partials[w])
				clear(batch)
				if poisonBatch != nil {
					poisonBatch(batch[:cap(batch)])
				}
				atomic.AddInt32(&live, -1)
				free <- batch[:0]
			}
		}(w)
	}

	var srcErr error
	func() {
		// A source that panics still releases the workers; the caller
		// may recover and carry on.
		defer close(batches)
		for srcErr == nil {
			// Batch boundary: the only place cancellation (and injected
			// decode latency) is observed, so completed runs stay
			// byte-identical to the context-free path.
			if err := ctx.Err(); err != nil {
				srcErr = err
				break
			}
			if err := faults.Inject("decode.slow"); err != nil {
				srcErr = err
				break
			}
			var batch []RequestRecord
			select {
			case batch = <-free:
			default:
				batch = make([]RequestRecord, 0, streamBatchSize)
			}
			for len(batch) < streamBatchSize {
				rec, err := src.Next()
				if err != nil {
					srcErr = err
					break
				}
				batch = append(batch, rec)
			}
			if len(batch) > 0 {
				acquire()
				batches <- batch
			}
		}
	}()
	wg.Wait()
	stats := &streamStats{peakBatches: atomic.LoadInt32(&peak)}

	if !errors.Is(srcErr, io.EOF) {
		return nil, stats, srcErr
	}

	var total *partialResult
	for _, pr := range partials {
		switch {
		case pr == nil:
		case total == nil:
			total = pr
		default:
			total.merge(pr)
		}
	}
	if total == nil {
		total = newPartialResult(0)
	}
	stats.labels = total.labels
	res, err := total.result(id, guess)
	return res, stats, err
}
