package extract

import "testing"

// FuzzAppendKeys checks the one-pass scanner against the reference
// decode-and-walk on arbitrary text, sent both as a JSON body and as a
// query value: no panic, and the same keys as a multiset, for every
// MaxDepth from 0 (the default) to 11, with and without FlatOnly.
func FuzzAppendKeys(f *testing.F) {
	for _, c := range pinned {
		f.Add(c.body, uint8(c.opts.MaxDepth), c.opts.FlatOnly)
	}
	f.Add(`{"user":{"id":1,"tags":["a",{"k":"{\"x\":[1,2]}"}]},"q":"[{\"y\":null}]"}`, uint8(2), false)
	f.Fuzz(func(t *testing.T, text string, depth uint8, flat bool) {
		if d := diffReference(text, Options{MaxDepth: int(depth % 12), FlatOnly: flat}); d != "" {
			t.Fatal(d)
		}
	})
}
