package wire

import "fmt"

// Section framing: an encoding split into independently seekable chunks.
// A framed payload opens with a directory — an entry count followed by one
// (kind byte, length uvarint) pair per section — and the section bodies
// follow back to back in directory order. Offsets are implied by the
// directory (the sum of the preceding lengths), so a reader validates the
// whole split once, up front, before decoding any section.
//
// Kinds are caller-defined tags; the framing itself assigns them no
// meaning, permits duplicates (e.g. one flow-set section per persona), and
// preserves order, so a codec can evolve by appending new kinds while old
// readers skip what they do not know.

// Section is one framed chunk of an encoding.
type Section struct {
	// Kind tags the section's meaning (caller-defined).
	Kind byte
	// Data is the section body. Readers return subslices of the framed
	// input — zero-copy, valid only as long as the backing buffer.
	Data []byte
}

// WriteSections appends the section directory followed by every body.
func WriteSections(w *Writer, secs []Section) {
	w.Int(len(secs))
	for _, s := range secs {
		w.Byte(s.Kind)
		w.Int(len(s.Data))
	}
	for _, s := range secs {
		w.Raw(s.Data)
	}
}

// ReadSections parses a section directory and slices out every body
// without copying. The framed region must exactly fill the reader's
// remaining input — trailing garbage is an error, like Reader.Close.
func ReadSections(r *Reader) ([]Section, error) {
	// A directory entry is ≥ 2 bytes (kind + length uvarint).
	n := r.Count(2)
	secs := make([]Section, n)
	lengths := make([]int, n)
	total := 0
	for i := range secs {
		secs[i].Kind = r.Byte()
		lengths[i] = r.Int()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if lengths[i] > r.Remaining()-total {
			return nil, fmt.Errorf("wire: section %d length %d exceeds remaining input", i, lengths[i])
		}
		total += lengths[i]
	}
	for i := range secs {
		secs[i].Data = r.Bytes(lengths[i])
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after sections", r.Remaining())
	}
	return secs, nil
}
