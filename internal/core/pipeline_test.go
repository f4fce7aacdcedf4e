package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"diffaudit/internal/core"
	"diffaudit/internal/extract"
	"diffaudit/internal/flows"
)

func testID() core.ServiceIdentity {
	return core.ServiceIdentity{
		Name:            "TestSvc",
		FirstPartyESLDs: []string{"svc.example"},
	}
}

func TestAnalyzeRecordsEmpty(t *testing.T) {
	res := core.NewPipeline().AnalyzeRecords(testID(), nil)
	if res.Packets != 0 || res.TCPFlows != 0 || len(res.Domains) != 0 {
		t.Errorf("empty analysis: %+v", res)
	}
	for _, tc := range flows.BuiltinPersonas() {
		if res.ByTrace[tc] == nil || res.ByTrace[tc].Len() != 0 {
			t.Errorf("trace %v not initialized empty", tc)
		}
	}
}

// TestAnalyzeRecordsOnePersonaPerName: records under two handles of one
// persona name are an error from the streaming entry points and a panic
// from AnalyzeRecords, identical records or not.
func TestAnalyzeRecordsOnePersonaPerName(t *testing.T) {
	info := flows.PersonaInfo{Name: "Twin Kid", AgeKnown: true, AgeMin: 5, AgeMax: 9}
	kid, _ := flows.NewPersona(info)
	same, _ := flows.NewPersona(info)
	info.Attrs = map[string]string{"region": "EU"}
	tagged, _ := flows.NewPersona(info)
	for _, twin := range []flows.Persona{same, tagged} {
		recs := []core.RequestRecord{
			{Trace: kid, URL: "https://api.svc.example/v1?user_id=u1", FQDN: "api.svc.example"},
			{Trace: twin, URL: "https://api.svc.example/v1?user_id=u2", FQDN: "api.svc.example"},
		}
		if _, err := core.NewPipeline().AnalyzeStream(testID(), core.SliceSource(recs)); err == nil {
			t.Errorf("AnalyzeStream took two Twin Kid personas (%+v)", twin.Info())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AnalyzeRecords took two Twin Kid personas (%+v)", twin.Info())
				}
			}()
			core.NewPipeline().AnalyzeRecords(testID(), recs)
		}()
	}
}

func TestAnalyzeRecordsBasics(t *testing.T) {
	recs := []core.RequestRecord{
		{
			Trace: flows.Child, Platform: flows.Web, Method: "POST",
			URL: "https://api.svc.example/v1?language=en", FQDN: "api.svc.example",
			BodyMIME: "application/json", Body: []byte(`{"user_id":"u1"}`),
			Repeat: 3, ConnID: "c1",
		},
		{
			Trace: flows.Child, Platform: flows.Mobile, Method: "POST",
			URL: "https://api.svc.example/v1", FQDN: "api.svc.example",
			Cookies: []extract.KVPair{{Name: "advertising_id", Value: "aa-bb"}},
			Repeat:  2, ConnID: "c2",
		},
		// Same connection reused: one TCP flow.
		{
			Trace: flows.Child, Platform: flows.Web, Method: "GET",
			URL: "https://api.svc.example/v2", FQDN: "api.svc.example",
			Repeat: 1, ConnID: "c1",
		},
	}
	res := core.NewPipeline().AnalyzeRecords(testID(), recs)
	if res.Packets != 6 {
		t.Errorf("packets = %d, want 6 (repeat-weighted)", res.Packets)
	}
	if res.TCPFlows != 2 {
		t.Errorf("tcp flows = %d, want 2 (c1 reused)", res.TCPFlows)
	}
	if len(res.Domains) != 1 || !res.Domains["api.svc.example"] {
		t.Errorf("domains = %v", res.Domains)
	}
	if !res.ESLDs["svc.example"] {
		t.Errorf("eslds = %v", res.ESLDs)
	}
	set := res.ByTrace[flows.Child]
	var haveLang, haveAlias, haveAdID bool
	for _, f := range set.Flows() {
		switch f.Category.Name {
		case "Language":
			haveLang = true
			if !set.Platforms(f).Has(flows.Web) {
				t.Error("query-sourced flow should be web")
			}
		case "Aliases":
			haveAlias = true
		case "Device Software Identifiers":
			haveAdID = true
			if !set.Platforms(f).Has(flows.Mobile) {
				t.Error("cookie-sourced flow should be mobile")
			}
		}
	}
	if !haveLang || !haveAlias || !haveAdID {
		t.Errorf("flows missing: lang=%v alias=%v adid=%v (%d flows)",
			haveLang, haveAlias, haveAdID, set.Len())
	}
}

func TestAnalyzeRecordsEmptyFQDNSkipped(t *testing.T) {
	recs := []core.RequestRecord{{
		Trace: flows.Adult, Platform: flows.Web, Method: "GET",
		URL: "", FQDN: "", Repeat: 5,
	}}
	res := core.NewPipeline().AnalyzeRecords(testID(), recs)
	if res.Packets != 5 {
		t.Errorf("packets = %d (still counted)", res.Packets)
	}
	if len(res.Domains) != 0 {
		t.Errorf("empty FQDN entered domains: %v", res.Domains)
	}
}

func TestMergedView(t *testing.T) {
	recs := []core.RequestRecord{
		{Trace: flows.Child, Platform: flows.Web, URL: "https://a.svc.example/?age=12", FQDN: "a.svc.example"},
		{Trace: flows.Adult, Platform: flows.Web, URL: "https://a.svc.example/?gender=f", FQDN: "a.svc.example"},
	}
	res := core.NewPipeline().AnalyzeRecords(testID(), recs)
	// A result's persona sets share its table, so their union is a direct
	// key union over it.
	all := res.ByTrace[flows.Child].Table().NewSet(0)
	for _, p := range res.Personas() {
		all.Merge(res.ByTrace[p])
	}
	if all.Len() != 2 {
		t.Errorf("merged flows = %d", all.Len())
	}
	if n := res.ByTrace[flows.Child].Len(); n != 1 {
		t.Errorf("child flows = %d", n)
	}
}

func TestTotalsAcrossServices(t *testing.T) {
	pipe := core.NewPipeline()
	a := pipe.AnalyzeRecords(testID(), []core.RequestRecord{
		{Trace: flows.Adult, Platform: flows.Web, URL: "https://shared.example/?age=1", FQDN: "shared.example", Repeat: 2, ConnID: "x"},
	})
	b := pipe.AnalyzeRecords(core.ServiceIdentity{Name: "Other", FirstPartyESLDs: []string{"other.example"}},
		[]core.RequestRecord{
			{Trace: flows.Adult, Platform: flows.Web, URL: "https://shared.example/?age=1", FQDN: "shared.example", Repeat: 3, ConnID: "y"},
		})
	tot := core.Totals([]*core.ServiceResult{a, b})
	if tot.Domains != 1 {
		t.Errorf("shared domain double-counted: %d", tot.Domains)
	}
	if tot.Packets != 5 || tot.TCPFlows != 2 {
		t.Errorf("totals = %+v", tot)
	}
	if tot.UniqueRawKeys != 1 {
		t.Errorf("raw keys = %d", tot.UniqueRawKeys)
	}
}

// TestRawKeysOwnTheirBytes: whatever outlives a record's batch holds
// copies, not substrings of the requests it was cut from. A query key is a
// substring of the URL, a JSON key of the body and a form key of the
// body's string copy; a record's FQDN and connection ID may be cut from
// its request head (here, from its URL). A result kept until eviction, a
// partial kept until the capture ends, or a label cache kept for a
// server's life would otherwise pin every such URL and body. No raw key,
// domain, eSLD, partial's FQDN index entry or connection ID, and no key
// the label cache stores, may point into a record's URL or body; and 32
// records of 128 KiB each, dropped after the audit, must leave under 1 MiB
// live beside the result and the pipeline's cache.
func TestRawKeysOwnTheirBytes(t *testing.T) {
	const n = 32
	pad := strings.Repeat("a", 64<<10)
	mkRecs := func() []core.RequestRecord {
		recs := make([]core.RequestRecord, 0, 2*n)
		for i := 0; i < n; i++ {
			host := fmt.Sprintf("api%d.svc.example", i)
			url := fmt.Sprintf("https://%s/v1?user_id_%d=u&pad=%s&conn=c%d", host, i, pad, i)
			conn := url[strings.LastIndexByte(url, '=')+1:]
			recs = append(recs, core.RequestRecord{
				Trace: flows.Child, Platform: flows.Web, Method: "POST",
				URL: url, FQDN: url[len("https://") : len("https://")+len(host)], ConnID: conn,
				BodyMIME: "application/x-www-form-urlencoded",
				Body:     []byte(fmt.Sprintf("session_%d=s&pad=%s", i, pad)),
			}, core.RequestRecord{
				Trace: flows.Child, Platform: flows.Mobile, Method: "POST", FQDN: "api.svc.example",
				URL:      "https://api.svc.example/v2",
				BodyMIME: "application/json",
				Body:     []byte(fmt.Sprintf(`{"email_%d":"e","pad":%q}`, i, pad)),
			})
		}
		return recs
	}
	within := func(p unsafe.Pointer, base unsafe.Pointer, n int) bool {
		return n > 0 && uintptr(p) >= uintptr(base) && uintptr(p) < uintptr(base)+uintptr(n)
	}

	recs := mkRecs()
	pipe := core.NewPipeline()
	res := pipe.AnalyzeRecords(testID(), recs)
	if len(res.RawKeys) < 3*n {
		t.Fatalf("%d raw keys, want at least %d", len(res.RawKeys), 3*n)
	}
	if res.TCPFlows != n || len(res.Domains) != n+1 {
		t.Fatalf("%d connections and %d domains, want %d and %d", res.TCPFlows, len(res.Domains), n, n+1)
	}
	held := core.PartialStrings(core.NewPipeline(), recs)
	for _, m := range []map[string]bool{res.RawKeys, res.Domains, res.ESLDs} {
		for k := range m {
			held = append(held, k)
		}
	}
	held = append(held, pipe.StoredLabelKeys()...)
	for _, k := range held {
		p := unsafe.Pointer(unsafe.StringData(k))
		for i := range recs {
			if within(p, unsafe.Pointer(unsafe.StringData(recs[i].URL)), len(recs[i].URL)) ||
				within(p, unsafe.Pointer(unsafe.SliceData(recs[i].Body)), len(recs[i].Body)) {
				t.Fatalf("%q points into record %d", k, i)
			}
		}
	}

	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	keptPipe := core.NewPipeline()
	kept := keptPipe.AnalyzeRecords(testID(), mkRecs())
	after := liveHeap()
	if after > before && after-before > 1<<20 {
		t.Errorf("a result of %d raw keys keeps %d KiB live; its requests were %d KiB",
			len(kept.RawKeys), (after-before)>>10, 2*n*len(pad)>>10)
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(keptPipe)
}
