package extract

import (
	"slices"
	"strings"

	"diffaudit/internal/jsonscan"
)

// scanner mines the keys of JSON documents in one pass over their bytes,
// building no tree, on the shared tokenizer. It emits exactly the keys of
// the reference reading, encoding/json's Decode of the first value followed
// by a walk of the decoded tree, as a multiset.
type scanner struct {
	jsonscan.Scanner
	maxDepth int
	keys     []string
}

// document appends the keys of the first JSON value in data, walked from
// depth; bytes after that value are ignored. A syntax error anywhere in the
// value takes back every key it appended.
func (s *scanner) document(data []byte, depth int) {
	outer, start := s.Scanner, len(s.keys)
	s.Scanner = jsonscan.New(data)
	if c := s.Peek(); c == '{' || c == '[' {
		s.value(depth)
	}
	if s.Failed() {
		s.keys = s.keys[:start]
	}
	s.Scanner = outer
}

// value scans one value. A container at a depth within maxDepth emits its
// keys; any other value is only checked.
func (s *scanner) value(d int) {
	switch c := s.Peek(); {
	case d <= s.maxDepth && c == '{':
		s.object(d)
	case d <= s.maxDepth && c == '[':
		s.array(d)
	default:
		s.Value()
	}
}

// object scans an emitting object: it appends its member keys and walks
// its values one level down.
func (s *scanner) object(d int) {
	s.Open()
	var buf [16]int
	own := buf[:0] // where in keys the member keys are
	for more := !s.Skip('}'); more && !s.Failed(); more = s.More('}') {
		start, end, plain := s.Str()
		if !s.Failed() {
			own = append(own, len(s.keys))
			s.keys = append(s.keys, s.Unquote(start, end, plain))
		}
		if !s.Skip(':') {
			s.Fail()
		} else if s.Peek() == '"' {
			s.embedded(d + 1)
		} else {
			s.value(d + 1)
		}
	}
	if !s.Failed() {
		s.dropDuplicates(own)
	}
	s.Close()
}

// array scans an emitting array: it walks its container items one level
// down; string items are not walked.
func (s *scanner) array(d int) {
	s.Open()
	for more := !s.Skip(']'); more && !s.Failed(); more = s.More(']') {
		s.value(d + 1)
	}
	s.Close()
}

// embedded scans a string member value the walk descends into: one that
// looks like JSON once decoded is mined as a document of its own at d.
func (s *scanner) embedded(d int) {
	start, end, plain := s.Str()
	if s.Failed() || d > s.maxDepth {
		return
	}
	raw := s.Raw(start, end)
	switch {
	case plain:
		if bytesLookLikeJSON(raw) {
			s.document(raw, d)
		}
	// Decoded, a string yields keys only if it opens with a bracket after
	// JSON whitespace. Raw, that first byte is a bracket, a space, or an
	// escape that can stand for one: \t, \n, \r or \u.
	case len(raw) > 0 && (raw[0] == '{' || raw[0] == '[' || raw[0] == ' ' || raw[0] == '\\' && strings.IndexByte("tnru", raw[1]) >= 0):
		if v := s.Unquote(start, end, false); !s.Failed() && looksLikeJSON(v) {
			s.document([]byte(v), d)
		}
	}
}

// dropDuplicates keeps, of the members of a closing object whose keys
// repeat, only the last, as a decoded map does: one copy of the key, and
// the keys under its last value. own holds, in document order, where each
// member's key sits in keys; the keys mined under its value follow it, up
// to the next member's key or, for the last member, the end of keys.
func (s *scanner) dropDuplicates(own []int) {
	slices.SortFunc(own, func(a, b int) int {
		if c := strings.Compare(s.keys[a], s.keys[b]); c != 0 {
			return c
		}
		return a - b
	})
	var drop []int
	for i := 1; i < len(own); i++ {
		if s.keys[own[i]] == s.keys[own[i-1]] {
			drop = append(drop, own[i-1])
		}
	}
	if drop == nil {
		return
	}
	slices.Sort(own)
	slices.Sort(drop)
	w := own[0]
	for i, start := range own {
		end := len(s.keys)
		if i+1 < len(own) {
			end = own[i+1]
		}
		if len(drop) > 0 && drop[0] == start {
			drop = drop[1:]
		} else {
			w += copy(s.keys[w:], s.keys[start:end])
		}
	}
	s.keys = s.keys[:w]
}
