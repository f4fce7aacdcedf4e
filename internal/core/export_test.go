package core

import "context"

// AnalyzeUnknownRecords is AnalyzeRecordsContext under a guessed identity,
// opened to the external tests; outside them only the stream form has a
// caller.
func (p *Pipeline) AnalyzeUnknownRecords(ctx context.Context, name string, recs []RequestRecord) (*ServiceResult, error) {
	res, _, err := p.analyzeStream(ctx, ServiceIdentity{Name: name}, true, SliceSource(recs))
	return res, err
}
