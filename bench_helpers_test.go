package diffaudit_test

import (
	"encoding/json"
	"net/netip"

	"diffaudit/internal/har"
)

var (
	clientAddr = netip.MustParseAddr("10.0.0.2")
	serverAddr = netip.MustParseAddr("198.18.0.1")
)

// parseHAR decodes a whole HAR document for the pipeline benchmark.
func parseHAR(data []byte) (*har.HAR, error) {
	var h har.HAR
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, err
	}
	return &h, nil
}
