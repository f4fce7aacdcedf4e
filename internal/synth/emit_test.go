package synth

import (
	"bytes"
	"reflect"
	"testing"

	"diffaudit/internal/core"
	"diffaudit/internal/flows"
	"diffaudit/internal/har"
	"diffaudit/internal/netcap/pcapio"
	"diffaudit/internal/netcap/tlsx"
)

func TestEmitHARStructure(t *testing.T) {
	ds := Generate(Config{Scale: 0.002})
	st := ds.Service("Duolingo")
	h := st.EmitHAR(flows.Child)
	if h.Log.Version != "1.2" || len(h.Log.Pages) != 1 {
		t.Fatalf("har header: %+v", h.Log.Version)
	}
	wantEntries := 0
	for _, r := range st.Requests {
		if r.Trace == flows.Child && r.Platform == flows.Web {
			wantEntries += r.Repeat
		}
	}
	if got := len(h.Log.Entries); got != wantEntries {
		t.Errorf("entries = %d, want %d (one per repeat)", got, wantEntries)
	}
	for _, e := range h.Log.Entries {
		if e.Request.Host() == "" {
			t.Fatal("entry without host")
		}
		if e.Request.Method != "POST" {
			t.Fatalf("method = %q", e.Request.Method)
		}
	}
}

func TestEmitHARDeterministic(t *testing.T) {
	ds := Generate(Config{Scale: 0.002})
	st := ds.Service("TikTok")
	a, _ := st.EmitHAR(flows.Adult).Marshal()
	b, _ := st.EmitHAR(flows.Adult).Marshal()
	if !bytes.Equal(a, b) {
		t.Error("HAR emission not deterministic")
	}
}

func TestEmitPCAPDeterministicAndKeyed(t *testing.T) {
	ds := Generate(Config{Scale: 0.002})
	st := ds.Service("Roblox")
	c1, err := st.EmitPCAP(flows.LoggedOut)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := st.EmitPCAP(flows.LoggedOut)
	var b1, b2 bytes.Buffer
	if err := pcapio.WritePcapng(&b1, c1); err != nil {
		t.Fatal(err)
	}
	_ = pcapio.WritePcapng(&b2, c2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("PCAP emission not deterministic")
	}
	if len(c1.Secrets) != 1 {
		t.Fatalf("secrets blocks = %d", len(c1.Secrets))
	}
	kl, err := tlsx.ParseKeyLog(c1.Secrets[0])
	if err != nil {
		t.Fatal(err)
	}
	if kl.Len() == 0 {
		t.Error("empty key log")
	}
}

func TestEmitPCAPMixesTLSVersions(t *testing.T) {
	ds := Generate(Config{Scale: 0.002})
	st := ds.Service("Quizlet")
	capt, err := st.EmitPCAP(flows.Adult)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := tlsx.ParseKeyLog(capt.Secrets[0])
	if err != nil {
		t.Fatal(err)
	}
	// The key log must contain both TLS 1.3 traffic secrets and TLS 1.2
	// master secrets.
	text := string(capt.Secrets[0])
	if !bytes.Contains([]byte(text), []byte(tlsx.LabelClientTraffic)) {
		t.Error("no TLS 1.3 secrets in key log")
	}
	if !bytes.Contains([]byte(text), []byte(tlsx.LabelClientRandom)) {
		t.Error("no TLS 1.2 master secrets in key log")
	}
	_ = kl
}

func TestIdentityMatchesSpec(t *testing.T) {
	ds := Generate(Config{Scale: 0.002})
	for _, st := range ds.Services {
		id := st.Identity()
		if id.Name != st.Spec.Name || id.Owner != st.Spec.Owner {
			t.Errorf("identity mismatch for %s: %+v", st.Spec.Name, id)
		}
		if len(id.FirstPartyESLDs) != len(st.Spec.FirstPartyESLDs) {
			t.Errorf("%s first-party eSLDs mismatch", st.Spec.Name)
		}
	}
}

// TestUserEmissionFlowsIdentical pins the population-generation contract:
// a per-user start time changes the capture bytes (timestamps) but never
// the audited flows — every synthetic user of a service audits to the
// same grid as the canonical capture.
func TestUserEmissionFlowsIdentical(t *testing.T) {
	ds := Generate(Config{Scale: 0.002})
	st := ds.Service("Quizlet")

	if !UserStart(0).Equal(baseTime) {
		t.Fatal("user 0 must start at the canonical baseTime")
	}
	if UserStart(7).Equal(baseTime) || !UserStart(7).Equal(UserStart(7)) {
		t.Fatal("user starts must be distinct from baseTime and reproducible")
	}

	base, _ := st.EmitHAR(flows.Child).Marshal()
	alt, _ := st.EmitHARAt(flows.Child, UserStart(7)).Marshal()
	if bytes.Equal(base, alt) {
		t.Fatal("per-user capture bytes should differ")
	}

	audit := func(data []byte) interface{} {
		src := core.NewHARSource(har.NewStreamDecoder(bytes.NewReader(data)), flows.Child, flows.Web)
		res, err := core.NewPipeline().AnalyzeStream(st.Identity(), src)
		if err != nil {
			t.Fatal(err)
		}
		return res.ByTrace[flows.Child].GroupGrid()
	}
	if !reflect.DeepEqual(audit(base), audit(alt)) {
		t.Error("per-user capture audits to a different grid")
	}
}
