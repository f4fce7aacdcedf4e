package core

import (
	"sync/atomic"

	"diffaudit/internal/extract"
	"diffaudit/internal/flows"
)

// PartialStrings runs the pipeline body over recs into one fresh partial,
// as a worker does with a batch, and returns every string the partial
// holds once the batch is done: its FQDN index, connection IDs and raw
// keys.
func PartialStrings(p *Pipeline, recs []RequestRecord) []string {
	pr := newPartialResult(len(recs))
	p.analyzeChunk(recs, pr)
	var out []string
	for k := range pr.fqdnIdx {
		out = append(out, k)
	}
	for _, f := range pr.fqdns {
		out = append(out, f.name)
	}
	for _, m := range []map[string]bool{pr.conns, pr.rawKeys} {
		for k := range m {
			out = append(out, k)
		}
	}
	return out
}

// StoredLabelKeys returns every key the pipeline's label cache holds a
// label for.
func (p *Pipeline) StoredLabelKeys() []string { return p.labels.StoredKeys() }

// StoredKeys returns every key the cache holds a label for.
func (c *labelCache) StoredKeys() []string {
	var out []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k := range sh.entries {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	return out
}

// InFlightBatches is the most record batches an analysis with the given
// number of workers ever makes.
func InFlightBatches(workers int) int { return workers + streamQueueDepth + 1 }

// PoisonBatches makes every analysis overwrite each batch it is done with,
// over its whole capacity, with garbage records before the batch is
// refilled, and counts the batches it overwrote. The returned func restores
// the default; no analysis may be running when either is called.
func PoisonBatches() (poisoned *atomic.Int64, restore func()) {
	poisoned = new(atomic.Int64)
	garbage := RequestRecord{
		Trace: flows.Adult, Platform: flows.Web, Method: "PUT",
		URL:     "https://poison.example/p?poison_id=1&gps_lat=9",
		FQDN:    "poison.example",
		Cookies: []extract.KVPair{{Name: "poison_sid", Value: "1"}},
		Body:    []byte(`{"poison_email":"x@poison.example"}`), BodyMIME: "application/json",
		Repeat: 1000, ConnID: "poison",
	}
	poisonBatch = func(batch []RequestRecord) {
		for i := range batch {
			batch[i] = garbage
		}
		poisoned.Add(1)
	}
	return poisoned, func() { poisonBatch = nil }
}
