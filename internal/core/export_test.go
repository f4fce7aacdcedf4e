package core

import "context"

// AnalyzeUnknownRecords opens the slice entry point under a guessed
// identity to the external tests; outside them only the stream form has a
// caller.
func (p *Pipeline) AnalyzeUnknownRecords(ctx context.Context, name string, recs []RequestRecord) (*ServiceResult, error) {
	return p.analyzeRecords(ctx, ServiceIdentity{Name: name}, true, recs)
}
