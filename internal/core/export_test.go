package core

import "context"

// AnalyzeUnknownRecords is AnalyzeRecordsContext under a guessed identity,
// opened to the external tests; outside them only the stream form has a
// caller.
func (p *Pipeline) AnalyzeUnknownRecords(ctx context.Context, name string, recs []RequestRecord) (*ServiceResult, error) {
	res, _, err := p.analyzeStream(ctx, ServiceIdentity{Name: name}, true, SliceSource(recs))
	return res, err
}

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

// StoredKeys returns every key the cache holds a label for.
func (c *LabelCache) StoredKeys() []string {
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
