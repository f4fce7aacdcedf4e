package core_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"diffaudit/internal/core"
	"diffaudit/internal/faults"
	"diffaudit/internal/flows"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/synth"
)

// windowCapture is a synthetic mobile capture as pcapng bytes, with enough
// TCP streams that a cut or a fault can land between two of them.
func windowCapture(t *testing.T) []byte {
	t.Helper()
	capt, err := synth.Generate(synth.Config{Scale: 0.01}).Service("Roblox").EmitPCAP(flows.Child)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pcapio.WritePcapng(&buf, capt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newWindowSource(t *testing.T, ctx context.Context, data []byte) *core.PCAPSource {
	t.Helper()
	rd, err := pcapio.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return core.NewPCAPSource(ctx, rd, nil, flows.Child)
}

// drainWindow reads a source to its end, returning its records and stats.
func drainWindow(t *testing.T, src *core.PCAPSource) ([]core.RequestRecord, core.PCAPStats) {
	t.Helper()
	recs, err := core.Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	return recs, src.Stats()
}

// TestPCAPSourceOrderIndependentOfSchedule: records and stats come out in
// stream order whatever order the decodes finish in. The first stream's
// decode is held back so every later one finishes first, and the result
// must equal a run on one CPU with nothing held.
func TestPCAPSourceOrderIndependentOfSchedule(t *testing.T) {
	defer faults.Reset()
	data := windowCapture(t)

	prev := runtime.GOMAXPROCS(1)
	wantRecs, wantStats := drainWindow(t, newWindowSource(t, context.Background(), data))
	runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	faults.Set("pcap.stream", faults.Plan{Delay: 50 * time.Millisecond})
	gotRecs, gotStats := drainWindow(t, newWindowSource(t, context.Background(), data))

	if len(wantRecs) == 0 || wantStats.OpaqueStreams == 0 {
		t.Fatalf("capture too thin to test ordering: %d records, stats %+v", len(wantRecs), wantStats)
	}
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Error("records differ from the one-CPU run")
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("stats = %+v, one-CPU run %+v", gotStats, wantStats)
	}
}

// TestPCAPStreamPanicSurfacesOnNext: a panic inside one stream's decode
// reaches the goroutine calling Next. An error at the same point fails the
// source with it, and the failure sticks.
func TestPCAPStreamPanicSurfacesOnNext(t *testing.T) {
	defer faults.Reset()
	data := windowCapture(t)

	faults.Set("pcap.stream", faults.Plan{Panic: "decoder blew up", On: 3})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		core.Drain(newWindowSource(t, context.Background(), data))
	}()
	if msg, _ := recovered.(string); !strings.Contains(msg, "decoder blew up") {
		t.Errorf("recovered %v, want the decode's panic", recovered)
	}

	boom := errors.New("injected stream failure")
	faults.Set("pcap.stream", faults.Plan{Err: boom, On: 2})
	src := newWindowSource(t, context.Background(), data)
	if _, err := core.Drain(src); !errors.Is(err, boom) {
		t.Errorf("Drain = %v, want the injected error", err)
	}
	if _, err := src.Next(); !errors.Is(err, boom) {
		t.Errorf("Next after the failure = %v, want the injected error to stick", err)
	}
}

// TestPCAPSourceContextCancel: a context cancelled mid-capture stops the
// source with ctx.Err() before its next stream.
func TestPCAPSourceContextCancel(t *testing.T) {
	data := windowCapture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := newWindowSource(t, ctx, data)
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	var err error
	for err == nil {
		_, err = src.Next()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Next = %v, want Canceled", err)
	}
}
