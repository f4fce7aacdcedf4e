package diffaudit_test

import "net/netip"

var (
	clientAddr = netip.MustParseAddr("10.0.0.2")
	serverAddr = netip.MustParseAddr("198.18.0.1")
)
