package extract

import (
	"encoding/json"
	"slices"
	"strings"
)

// maxNesting is encoding/json's nesting limit: a document with more
// containers open at once does not decode.
const maxNesting = 10000

// scanner mines the keys of JSON documents in one pass over their bytes,
// building no tree. It emits exactly the keys of the reference reading,
// encoding/json's Decode of the first value followed by a walk of the
// decoded tree, as a multiset.
type scanner struct {
	doc
	opts Options
	keys []string
}

// doc is the scan state of one document.
type doc struct {
	data   []byte
	pos    int
	nest   int  // containers open
	failed bool // a syntax error stopped the scan
}

// document appends the keys of the first JSON value in data, walked from
// depth; bytes after that value are ignored. A syntax error anywhere in the
// value takes back every key it appended.
func (s *scanner) document(data []byte, depth int) {
	outer, start := s.doc, len(s.keys)
	s.doc = doc{data: data}
	if c := s.peek(); c == '{' || c == '[' {
		s.value(depth, true)
	}
	if s.failed {
		s.keys = s.keys[:start]
	}
	s.doc = outer
}

// value scans one value. A container walked at a depth within MaxDepth
// emits its keys.
func (s *scanner) value(d int, walk bool) {
	switch c := s.peek(); {
	case c == '{':
		s.object(d, walk && d <= s.opts.MaxDepth)
	case c == '[':
		s.array(d, walk && d <= s.opts.MaxDepth)
	case c == '"':
		s.str()
	case c == '-' || '0' <= c && c <= '9':
		s.number()
	default:
		s.literal()
	}
}

// object scans an object. An emitting one appends its member keys and,
// unless FlatOnly, walks its values one level down.
func (s *scanner) object(d int, emit bool) {
	s.open()
	var buf [16]int
	own, kids := buf[:0], emit && !s.opts.FlatOnly // own: where in keys the member keys are
	for more := !s.skip('}'); more && !s.failed; more = s.next('}') {
		start, end, plain := s.str()
		if emit && !s.failed {
			own = append(own, len(s.keys))
			s.keys = append(s.keys, s.unquote(start, end, plain))
		}
		if !s.skip(':') {
			s.fail()
		} else if kids && s.peek() == '"' {
			s.embedded(d + 1)
		} else {
			s.value(d+1, kids)
		}
	}
	if emit && !s.failed {
		s.dropDuplicates(own)
	}
	s.nest--
}

// array scans an array. An emitting one walks its container items one
// level down; string items are not walked.
func (s *scanner) array(d int, emit bool) {
	s.open()
	for more := !s.skip(']'); more && !s.failed; more = s.next(']') {
		s.value(d+1, emit)
	}
	s.nest--
}

// embedded scans a string member value the walk descends into: one that
// looks like JSON once decoded is mined as a document of its own at d.
func (s *scanner) embedded(d int) {
	start, end, plain := s.str()
	if s.failed || d > s.opts.MaxDepth {
		return
	}
	raw := s.data[start:end]
	switch {
	case plain:
		if bytesLookLikeJSON(raw) {
			s.document(raw, d)
		}
	// Decoded, a string yields keys only if it opens with a bracket after
	// JSON whitespace. Raw, that first byte is a bracket, a space, or an
	// escape that can stand for one: \t, \n, \r or \u.
	case len(raw) > 0 && (raw[0] == '{' || raw[0] == '[' || raw[0] == ' ' || raw[0] == '\\' && strings.IndexByte("tnru", raw[1]) >= 0):
		if v := s.unquote(start, end, false); !s.failed && looksLikeJSON(v) {
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

// str scans a string token and returns the bounds of its content and
// whether that content is already its decoding: no escape, no byte above
// ASCII.
func (s *scanner) str() (start, end int, plain bool) {
	if s.peek() != '"' {
		s.fail()
		return 0, 0, false
	}
	start, plain = s.pos+1, true
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return start, i, plain
		case c < 0x20:
			s.fail()
			return 0, 0, false
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			if i++; s.at(i) == 'u' {
				for n := 0; n < 4; n++ {
					if i++; !isHex(s.at(i)) {
						s.fail()
						return 0, 0, false
					}
				}
			} else if strings.IndexByte(`"\/bfnrt`, s.at(i)) < 0 {
				s.fail()
				return 0, 0, false
			}
		}
	}
	s.fail()
	return 0, 0, false
}

// unquote returns the content of the string token data[start-1:end+1]. A
// token that is not plain is decoded by encoding/json itself, so invalid
// UTF-8 and lone surrogates become U+FFFD exactly as the decoder has them.
func (s *scanner) unquote(start, end int, plain bool) string {
	if plain {
		return string(s.data[start:end])
	}
	var v string
	if json.Unmarshal(s.data[start-1:end+1], &v) != nil {
		s.fail()
	}
	return v
}

// number scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *scanner) number() {
	i := s.pos
	if s.at(i) == '-' {
		i++
	}
	if s.at(i) == '0' {
		i++
	} else if i = s.digits(i); i == -1 {
		s.fail()
		return
	}
	if s.at(i) == '.' {
		if i = s.digits(i + 1); i == -1 {
			s.fail()
			return
		}
	}
	if c := s.at(i); c == 'e' || c == 'E' {
		if i++; s.at(i) == '+' || s.at(i) == '-' {
			i++
		}
		if i = s.digits(i); i == -1 {
			s.fail()
			return
		}
	}
	s.pos = i
}

// literal scans true, false or null.
func (s *scanner) literal() {
	for _, lit := range [...]string{"true", "false", "null"} {
		if end := s.pos + len(lit); end <= len(s.data) && string(s.data[s.pos:end]) == lit {
			s.pos = end
			return
		}
	}
	s.fail()
}

// open consumes a container's opening bracket.
func (s *scanner) open() {
	s.pos++
	if s.nest++; s.nest > maxNesting {
		s.fail()
	}
}

// next consumes the separator after a container member: true for a comma,
// false for the closing bracket, and false with the scan stopped for
// anything else.
func (s *scanner) next(closing byte) bool {
	if s.skip(',') {
		return true
	}
	if !s.skip(closing) {
		s.fail()
	}
	return false
}

// skip consumes c if it is the next byte after whitespace.
func (s *scanner) skip(c byte) bool {
	if s.peek() == c {
		s.pos++
		return true
	}
	return false
}

// peek skips whitespace and returns the next byte, 0 at the end of data.
func (s *scanner) peek() byte {
	for ; s.pos < len(s.data); s.pos++ {
		if c := s.data[s.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// at returns data[i], 0 past the end.
func (s *scanner) at(i int) byte {
	if i < len(s.data) {
		return s.data[i]
	}
	return 0
}

// digits returns the index after the run of digits starting at i, -1 if
// there is none.
func (s *scanner) digits(i int) int {
	j := i
	for c := s.at(j); '0' <= c && c <= '9'; c = s.at(j) {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// fail stops the scan at a syntax error.
func (s *scanner) fail() { s.failed = true }
