package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
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
// TCP streams to fill the decode window several times over.
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

// waitGoroutines waits for the goroutine count to fall back to base: the
// decodes a source dispatched have all ended.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the source", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
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

// TestPCAPStreamPanicSurfacesOnNext: a panic inside one stream's decode is
// raised again on the goroutine calling Next, carrying the decoding
// goroutine's stack, and the source stays failed after it; the decodes
// still in flight end. An error at the same point fails the source with it.
func TestPCAPStreamPanicSurfacesOnNext(t *testing.T) {
	defer faults.Reset()
	data := windowCapture(t)
	base := runtime.NumGoroutine()

	faults.Set("pcap.stream", faults.Plan{Panic: "decoder blew up", On: 3})
	src := newWindowSource(t, context.Background(), data)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		core.Drain(src)
	}()
	msg, _ := recovered.(string)
	for _, want := range []string{"decoder blew up", "stream decode goroutine", "goroutine "} {
		if !strings.Contains(msg, want) {
			t.Errorf("recovered %v, want it to contain %q", recovered, want)
		}
	}
	if _, err := src.Next(); err == nil || err == io.EOF {
		t.Errorf("Next after the panic = %v, want the failure to stick", err)
	}
	waitGoroutines(t, base)

	boom := errors.New("injected stream failure")
	faults.Set("pcap.stream", faults.Plan{Err: boom, On: 2})
	if _, err := core.Drain(newWindowSource(t, context.Background(), data)); !errors.Is(err, boom) {
		t.Errorf("Drain = %v, want the injected error", err)
	}
	waitGoroutines(t, base)
}

// slowDecodes makes every stream decode take a while, so decodes are still
// running when a test cuts its source short.
func slowDecodes() {
	faults.Set("pcap.stream", faults.Plan{Delay: 20 * time.Millisecond, Count: -1})
}

// checkDecodesOutlivedConsumer requires that more decodes ran than the one
// stream the test consumed: the window was in flight when it was cut short.
func checkDecodesOutlivedConsumer(t *testing.T) {
	t.Helper()
	if n := faults.Calls("pcap.stream"); n < 2 {
		t.Errorf("%d stream decodes ran, want the window's worth", n)
	}
}

// TestPCAPDecodeWindowContextCancel: a context cancelled while decodes are
// in flight stops the source with ctx.Err(), and every decode it had
// dispatched ends.
func TestPCAPDecodeWindowContextCancel(t *testing.T) {
	defer faults.Reset()
	data := windowCapture(t)
	base := runtime.NumGoroutine()

	slowDecodes()
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
	waitGoroutines(t, base)
	checkDecodesOutlivedConsumer(t)
}

// TestPCAPDecodeWindowContextClose: a file source closed early, with
// decodes in flight, leaves no goroutine behind.
func TestPCAPDecodeWindowContextClose(t *testing.T) {
	defer faults.Reset()
	path := filepath.Join(t.TempDir(), "child.pcapng")
	if err := os.WriteFile(path, windowCapture(t), 0o644); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	slowDecodes()
	fs, err := core.OpenPCAPFileSource(context.Background(), path, nil, flows.Child)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Next(); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	waitGoroutines(t, base)
	checkDecodesOutlivedConsumer(t)
}
