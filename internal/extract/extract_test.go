package extract

import (
	"bytes"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/url"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// keySet is the set of keys AppendKeys mines from req.
func keySet(req RequestView) map[string]bool {
	out := map[string]bool{}
	for _, k := range AppendKeys(nil, req) {
		out[k] = true
	}
	return out
}

func keysBySource(kvs []KV, src Source) map[string]bool {
	out := map[string]bool{}
	for _, kv := range kvs {
		if kv.Source == src {
			out[kv.Key] = true
		}
	}
	return out
}

// referenceKeys is the multiset appendKeys must return at depth: the
// reference's non-header keys.
func referenceKeys(req RequestView, headers []KVPair, depth int) []string {
	var out []string
	for _, kv := range Extract(req, headers, depth) {
		if kv.Source != SourceHeader {
			out = append(out, kv.Key)
		}
	}
	return out
}

func sameMultiset(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// diffReference compares appendKeys with the reference at depth for text
// sent as a JSON body and as a query value, and describes the first
// difference.
func diffReference(text string, depth int) string {
	for _, req := range []RequestView{
		{URL: "https://x.example/a", BodyMIME: "application/json", Body: []byte(text)},
		{URL: "https://x.example/a?p=" + url.QueryEscape(text)},
	} {
		got, want := appendKeys(nil, req, depth), referenceKeys(req, nil, depth)
		if !sameMultiset(got, want) {
			return fmt.Sprintf("depth %d on %.200q (url %.60q): appendKeys %q, reference %q", depth, text, req.URL, got, want)
		}
	}
	return ""
}

// pinned are the cases where a one-pass scan is easiest to get wrong. want
// is the body's keys.
var pinned = []struct {
	name string
	body string
	want []string
}{
	{"duplicate key, earlier value an object", `{"a":{"x":1},"a":2}`, []string{"a"}},
	{"duplicate key, later value walked", `{"a":1,"a":{"y":{"z":2}}}`, []string{"a", "y", "z"}},
	{"duplicate key in a nested object", `{"o":{"k":{"gone":1},"k":"{\"in\":1}"},"p":1}`, []string{"o", "k", "in", "p"}},
	{"duplicate key inside embedded JSON", `{"e":"{\"k\":1,\"k\":2}","f":1}`, []string{"e", "k", "f"}},
	{"duplicate key past the depth bound", strings.Repeat(`{"a":`, maxDepth+1) + `{"k":1,"k":2}` + strings.Repeat("}", maxDepth+1), strings.Fields(strings.Repeat("a ", maxDepth+1))},
	{"duplicate keys interleaved, three copies", `{"a":{"x":1},"b":{"y":1},"a":{"z":1},"c":1,"a":[{"w":1}],"b":2}`, []string{"a", "w", "c", "b"}},
	{"last of many copies of a key kept", `{` + strings.Repeat(`"a":{"x":1},"b":{"y":1},"c":{"z":1},`, 40) + `"a":{"kept":1}}`, []string{"a", "kept", "b", "y", "c", "z"}},
	{"duplicate keys in each object of an array", `[{"k":{"x":1},"k":{"y":1}},{"k":1,"k":{"z":1}}]`, []string{"k", "y", "k", "z"}},
	{"one key in sibling objects counts twice", `[{"k":1},{"k":2}]`, []string{"k", "k"}},
	{"nesting 10000 decodes", `{"deep":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, []string{"deep"}},
	{"nesting 10001 does not", `{"deep":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, nil},
	{"top-level array", `[{"a":{"b":1}},[{"c":{"d":1}}],"{\"s\":1}"]`, []string{"a", "b", "c", "d"}},
	{"trailing junk after the first value", `{"a":1} trailing {"b":`, []string{"a"}},
	{"second document ignored", `{"a":1}{"b":2}`, []string{"a"}},
	{"escapes in keys", "{\"\\u0061\\u00e9\":1,\"line\\nkey\":2,\"\\ud83d\\ude00\":3,\"\\ud800x\":4,\"\\/\":5}", []string{"a\u00e9", "line\nkey", "\U0001F600", "\uFFFDx", "/"}},
	{"escaped and raw spellings of one key", "{\"caf\\u00e9\":{\"gone\":1},\"caf\u00e9\":2}", []string{"caf\u00e9"}},
	{"invalid UTF-8 in keys", "{\"\xff\":1,\"ok\xc3\":2}", []string{"\uFFFD", "ok\uFFFD"}},
	{"invalid UTF-8 keys that decode alike", "{\"\xff\":{\"gone\":1},\"\xfe\":{\"x\":1}}", []string{"\uFFFD", "x"}},
	{"JSON-looking string in an array is not walked", `{"list":["{\"inner\":1}"],"obj":"{\"inner2\":1}"}`, []string{"list", "obj", "inner2"}},
	{"embedded JSON with a syntax error", `{"a":"{\"x\":}","b":1}`, []string{"a", "b"}},
	{"embedded JSON after Unicode space", "{\"s\":\"\u00a0{\\\"x\\\":1}\",\"t\":\" {\\\"y\\\":1} \"}", []string{"s", "t", "y"}},
	{"embedded JSON with trailing junk", `{"s":"{\"x\":1} junk}"}`, []string{"s", "x"}},
	{"escaped string values", `{"u":"http:\/\/x.example\/p?q=1","n":"café {}","e":"é{\"x\":1}","j":"{\"k\":1}","t":"\t{\"y\":1}","v":"\u0020\u007b\"m\":1}","l":"\n{\"o\":1}","r":"\r[{\"w\":1}]","f":"\f{\"g\":1}","q":"\"{\"h\":1}"}`, []string{"u", "n", "e", "j", "k", "t", "y", "v", "m", "l", "o", "r", "w", "f", "q"}},
	{"raw control byte in a value", "{\"a\":\"x\x1fy\"}", nil},
	{"DEL is not a control byte", "{\"a\x7f\":1}", []string{"a\x7f"}},
	{"raw control byte in a key", "{\"a\tb\":1}", nil},
	{"number -0.5E-3", `{"n":-0.5E-3}`, []string{"n"}},
	{"number 01", `{"n":01}`, nil},
	{"number 1.", `{"n":1.}`, nil},
	{"number 1e+", `{"n":1e+}`, nil},
	{"literal tru", `{"n":tru}`, nil},
	{"bad escape", `{"a\x":1}`, nil},
	{"short unicode escape", `{"\u12":1}`, nil},
	{"trailing comma", `{"a":1,}`, nil},
	{"unterminated", `{"a":1`, nil},
	{"top-level string", `"{\"a\":1}"`, nil},
	{"whitespace only", " \n\t", nil},
}

func TestAppendKeysPinned(t *testing.T) {
	for _, c := range pinned {
		req := RequestView{URL: "https://x.example/a", BodyMIME: "application/json", Body: []byte(c.body)}
		if got := AppendKeys(nil, req); !sameMultiset(got, c.want) {
			t.Errorf("%s: keys %q, want %q", c.name, got, c.want)
		}
		for depth := 0; depth < 12; depth++ {
			if d := diffReference(c.body, depth); d != "" {
				t.Errorf("%s: %s", c.name, d)
			}
		}
	}
}

func TestAppendKeysKeepsDst(t *testing.T) {
	dst := []string{"before"}
	dst = AppendKeys(dst, RequestView{URL: "https://x/?a=1", BodyMIME: "application/json", Body: []byte(`{"b":1,"c":}`)})
	if !slices.Equal(dst, []string{"before", "a"}) {
		t.Errorf("dst = %q: a body that fails to decode must take back only its own keys", dst)
	}
}

func TestExtractQuery(t *testing.T) {
	req := RequestView{
		URL: "https://ads.pubmatic.com/AdServer?adid=XYZ&gdpr_consent=1&lat=34.1&empty=&os=android#frag",
	}
	got := keySet(req)
	for _, want := range []string{"adid", "gdpr_consent", "lat", "empty", "os"} {
		if !got[want] {
			t.Errorf("query key %q missing (got %v)", want, got)
		}
	}
	if got["frag"] {
		t.Error("fragment leaked into query keys")
	}
}

func TestExtractQueryEscapes(t *testing.T) {
	got := keySet(RequestView{URL: "https://x.com/p?user%5Fid=1&bad%zz=2"})
	if !got["user_id"] {
		t.Errorf("escaped key not decoded: %v", got)
	}
	if !got["bad%zz"] {
		t.Errorf("undecodable key not kept raw: %v", got)
	}
}

// Headers are mined by the reference only; AppendKeys has no header input.
func TestExtractHeadersAndCookies(t *testing.T) {
	req := RequestView{
		URL: "https://www.roblox.com/games",
		Cookies: []KVPair{
			{"RBXSessionTracker", "sid123"},
			{"GuestData", "UserID=-1"},
			{"", "nameless"},
		},
	}
	headers := []KVPair{
		{"User-Agent", "Mozilla/5.0"},
		{"Referer", "https://www.roblox.com/"},
		{"Content-Length", "42"},
		{"Cookie", "ignored-here"},
		{":authority", "www.roblox.com"},
	}
	h := keysBySource(Extract(req, headers, maxDepth), SourceHeader)
	if !h["User-Agent"] || !h["Referer"] {
		t.Errorf("headers missing: %v", h)
	}
	if h["Content-Length"] {
		t.Error("standard header not skipped")
	}
	if h["Cookie"] || h[":authority"] {
		t.Error("cookie/pseudo headers leaked")
	}
	got := AppendKeys(nil, req)
	if !sameMultiset(got, []string{"RBXSessionTracker", "GuestData"}) {
		t.Errorf("cookie keys = %q", got)
	}
}

func TestExtractJSONBodyNested(t *testing.T) {
	body := `{
	  "user": {"username": "kid1", "age": 12, "email": "k@x.com"},
	  "device": {"os": "Android", "hw": {"model": "Pixel 6", "imei": "35-2099"}},
	  "events": [{"event_name": "lesson_start", "ts": 1696258845}],
	  "blob": "{\"inner_adid\":\"abc\",\"depth2\":{\"gps_lat\":1.5}}"
	}`
	req := RequestView{URL: "https://excess.duolingo.com/batch", BodyMIME: "application/json", Body: []byte(body)}
	got := keySet(req)
	for _, want := range []string{
		"username", "age", "email", "os", "model", "imei",
		"event_name", "ts", "inner_adid", "gps_lat", "depth2",
	} {
		if !got[want] {
			t.Errorf("nested key %q missing", want)
		}
	}
	// The reference's paths are dotted.
	var foundPath bool
	for _, kv := range Extract(req, nil, maxDepth) {
		if kv.Path == "device.hw.imei" {
			foundPath = true
		}
	}
	if !foundPath {
		t.Error("dotted path device.hw.imei missing")
	}
}

func TestExtractFormBody(t *testing.T) {
	req := RequestView{
		URL:      "https://www.minecraft.net/login",
		BodyMIME: "application/x-www-form-urlencoded",
		Body:     []byte("username=steve&password=hunter2&remember=1&&meta=%7B%22k%22%3A1%7D"),
	}
	got := AppendKeys(nil, req)
	if !sameMultiset(got, []string{"username", "password", "remember", "meta", "k"}) {
		t.Errorf("form keys = %q", got)
	}
}

func TestExtractJSONInQueryValue(t *testing.T) {
	got := keySet(RequestView{URL: `https://t.co/p?payload={"device_id":"d1","loc":{"city":"irvine"}}`})
	if !got["device_id"] || !got["city"] || !got["payload"] {
		t.Errorf("json-in-query keys missing: %v", got)
	}
}

func TestMaxDepthBound(t *testing.T) {
	// Build JSON nested 20 deep; defaults stop at depth 8.
	inner := `{"leaf":1}`
	for i := 0; i < 20; i++ {
		inner = `{"level` + string(rune('a'+i%26)) + `":` + inner + `}`
	}
	req := RequestView{URL: "https://x.com/a", BodyMIME: "application/json", Body: []byte(inner)}
	got := keySet(req)
	if got["leaf"] {
		t.Error("depth bound not enforced")
	}
	if len(got) == 0 {
		t.Error("outer levels should still be extracted")
	}
}

func TestMalformedBodiesIgnored(t *testing.T) {
	for _, body := range []string{"{not json", "<xml/>", "\x00\x01\x02", ""} {
		req := RequestView{URL: "https://x.com/a", BodyMIME: "application/json", Body: []byte(body)}
		if got := AppendKeys(nil, req); len(got) != 0 {
			t.Errorf("body %q extracted %q", body, got)
		}
	}
}

func TestArrayOfObjects(t *testing.T) {
	body := `[{"batch_event":"click"},{"batch_event":"scroll","extra_field":1}]`
	req := RequestView{URL: "https://x.com/a", BodyMIME: "application/json", Body: []byte(body)}
	got := AppendKeys(nil, req)
	if !sameMultiset(got, []string{"batch_event", "batch_event", "extra_field"}) {
		t.Errorf("array keys = %q", got)
	}
}

func TestUniqueKeys(t *testing.T) {
	kvs := []KV{{Key: "b"}, {Key: "a"}, {Key: "b"}, {Key: "c"}}
	got := UniqueKeys(kvs)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("UniqueKeys = %v", got)
	}
}

func TestSourceString(t *testing.T) {
	names := map[Source]string{
		SourceQuery: "query", SourceHeader: "header",
		SourceCookie: "cookie", SourceBody: "body", Source(9): "unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestValueClipping(t *testing.T) {
	long := strings.Repeat("v", 500)
	req := RequestView{URL: "https://x.com/?k=" + long}
	for _, kv := range Extract(req, nil, maxDepth) {
		if len(kv.Value) > 120 {
			t.Errorf("value not clipped: %d bytes", len(kv.Value))
		}
	}
}

// Property: every key present in a flat JSON object is extracted exactly.
func TestFlatJSONKeysExtracted(t *testing.T) {
	f := func(keys []string) bool {
		obj := map[string]int{}
		valid := map[string]bool{}
		for i, k := range keys {
			k = strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' {
					return r
				}
				return -1
			}, k)
			if k == "" {
				continue
			}
			obj[k] = i
			valid[k] = true
		}
		body, err := json.Marshal(obj)
		if err != nil {
			return false
		}
		req := RequestView{URL: "https://x.com/a", BodyMIME: "application/json", Body: body}
		got := keySet(req)
		if len(got) != len(valid) {
			return false
		}
		for k := range valid {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExtractMultipart(t *testing.T) {
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	_ = w.WriteField("username", "kid1")
	_ = w.WriteField("avatar_meta", `{"gps_lat":33.6,"device_id":"d-11"}`)
	fw, _ := w.CreateFormFile("upload", "a.png")
	_, _ = fw.Write([]byte{0x89, 0x50})
	w.Close()

	req := RequestView{
		URL:      "https://api.example/upload",
		BodyMIME: w.FormDataContentType(),
		Body:     buf.Bytes(),
	}
	got := keySet(req)
	for _, want := range []string{"username", "avatar_meta", "upload", "gps_lat", "device_id"} {
		if !got[want] {
			t.Errorf("multipart key %q missing (got %v)", want, got)
		}
	}
	// Corrupt boundary: no keys, no crash.
	bad := RequestView{URL: "https://x/", BodyMIME: "multipart/form-data", Body: buf.Bytes()}
	if got := AppendKeys(nil, bad); len(got) != 0 {
		t.Errorf("boundary-less multipart extracted %q", got)
	}
}

// Browsers pick mixed-case boundaries; the boundary must not be lowercased
// along with the media type.
func TestExtractMultipartMixedCaseBoundary(t *testing.T) {
	const boundary = "----WebKitFormBoundary7MA4YWxkTrZu0gW"
	body := "--" + boundary + "\r\n" +
		`Content-Disposition: form-data; name="child_age"` + "\r\n\r\n12\r\n" +
		"--" + boundary + "\r\n" +
		`Content-Disposition: form-data; name="meta"` + "\r\n\r\n" + `{"device_id":"d-1"}` + "\r\n" +
		"--" + boundary + "--\r\n"
	req := RequestView{
		URL:      "https://api.example/upload",
		BodyMIME: "Multipart/Form-Data; boundary=" + boundary,
		Body:     []byte(body),
	}
	want := []string{"child_age", "meta", "device_id"}
	if got := AppendKeys(nil, req); !sameMultiset(got, want) {
		t.Errorf("keys = %q, want %q", got, want)
	}
	if got := referenceKeys(req, nil, maxDepth); !sameMultiset(got, want) {
		t.Errorf("reference keys = %q, want %q", got, want)
	}
}
