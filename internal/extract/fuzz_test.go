package extract

import "testing"

// FuzzAppendKeys checks the one-pass scanner against the reference
// decode-and-walk on arbitrary text, sent both as a JSON body and as a
// query value: no panic, and the same keys as a multiset, for every
// nesting depth from 0 to 11.
func FuzzAppendKeys(f *testing.F) {
	for _, c := range pinned {
		f.Add(c.body, uint8(maxDepth))
	}
	f.Add(`{"user":{"id":1,"tags":["a",{"k":"{\"x\":[1,2]}"}]},"q":"[{\"y\":null}]"}`, uint8(2))
	f.Fuzz(func(t *testing.T, text string, depth uint8) {
		if d := diffReference(text, int(depth%12)); d != "" {
			t.Fatal(d)
		}
	})
}
