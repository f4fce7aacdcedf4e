package core

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"diffaudit/internal/flows"
	"diffaudit/internal/netcap/layers"
	"diffaudit/internal/netcap/reassembly"
	"diffaudit/internal/netcap/tlsx"
)

// streamAllocs is the mean number of allocations emitStreamRecords makes
// for one plain-HTTP stream — the path a decrypted stream's plaintext
// takes — checking that every request became a record.
func streamAllocs(t *testing.T, client []byte, requests int) float64 {
	t.Helper()
	dec := tlsx.NewStreamDecryptor(tlsx.NewKeyLog())
	stream := &reassembly.Stream{
		Key: layers.FlowKey{
			AddrLo: netip.MustParseAddr("10.0.0.2"), AddrHi: netip.MustParseAddr("198.18.0.1"),
			PortLo: 40000, PortHi: 80,
		},
		ClientData: client,
	}
	var n int
	allocs := testing.AllocsPerRun(20, func() {
		var stats PCAPStats
		n = len(emitStreamRecords(dec, stream, flows.Child, &stats))
	})
	if n != requests {
		t.Fatalf("%d records from %d requests", n, requests)
	}
	return allocs
}

// Allocation budget of mobile ingest: a connection costs a constant, a
// distinct request head a few allocations, and a request that repeats
// the head before it nothing.
const (
	// maxRepeatAllocs bounds how many more allocations a stream of 1000
	// byte-identical requests may make than one of 10. Its records are
	// sized from its first request, so it makes none more; under the race
	// detector some sizes cost one more.
	maxRepeatAllocs = 1
	// maxHeadAllocs bounds the allocations per request of a stream whose
	// heads all differ: the head, its headers, its URL and its cookies.
	maxHeadAllocs = 4
)

// TestStreamAllocationBudget holds emitStreamRecords to the budget above.
func TestStreamAllocationBudget(t *testing.T) {
	head := func(i int) string {
		return fmt.Sprintf("POST /v1/events?sdk=%d HTTP/1.1\r\nHost: events.example\r\nCookie: sid=abc; theme=dark\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\r\n", i)
	}
	same := func(n int) []byte {
		return []byte(strings.Repeat(head(0)+`{"user":"u1"}`, n))
	}
	small, large := streamAllocs(t, same(10), 10), streamAllocs(t, same(1000), 1000)
	if large-small > maxRepeatAllocs {
		t.Errorf("1000 identical requests allocate %.0f times, 10 allocate %.0f: %.0f more, budget %d", large, small, large-small, maxRepeatAllocs)
	}

	const n = 200
	var distinct strings.Builder
	for i := 0; i < n; i++ {
		distinct.WriteString(head(i) + `{"user":"u1"}`)
	}
	if per := (streamAllocs(t, []byte(distinct.String()), n) - small) / n; per > maxHeadAllocs {
		t.Errorf("%.2f allocations per distinct head, budget %d", per, maxHeadAllocs)
	}
}
