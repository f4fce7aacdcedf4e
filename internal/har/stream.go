package har

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// StreamDecoder decodes a HAR document incrementally: entries are yielded
// one at a time from the underlying reader, so a multi-gigabyte capture is
// audited without ever holding more than one entry in memory. The decoder
// tolerates log fields in any order (Chrome puts version first; some
// exporters put entries first), which means version validation is deferred
// to whenever the field is actually seen — possibly the final Next call.
type StreamDecoder struct {
	dec *json.Decoder
	// state tracks the cursor position in the document.
	state   streamState
	version string
	creator Creator
	comment string
	// err sticks: once the decoder fails or finishes, it stays failed or
	// finished.
	err error
}

type streamState int

const (
	streamStart     streamState = iota // nothing consumed yet
	streamInEntries                    // positioned inside log.entries
	streamDone                         // document fully consumed
)

// NewStreamDecoder returns a decoder reading a HAR document from r.
// Call Next until it returns io.EOF.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return &StreamDecoder{dec: json.NewDecoder(r)}
}

// Version returns log.version if it has been seen yet ("" before then; the
// field may trail the entries array, in which case it is only available
// after Next returns io.EOF).
func (d *StreamDecoder) Version() string { return d.version }

// Creator returns log.creator if seen yet.
func (d *StreamDecoder) Creator() Creator { return d.creator }

// Next returns the next entry of log.entries. It returns io.EOF after the
// last entry once the rest of the document has been consumed and
// validated, or a descriptive error on malformed input.
func (d *StreamDecoder) Next() (*Entry, error) {
	if d.err != nil {
		return nil, d.err
	}
	e, err := d.next()
	if err != nil {
		d.err = err
		return nil, err
	}
	return e, nil
}

func (d *StreamDecoder) next() (*Entry, error) {
	if d.state == streamStart {
		if err := d.seekEntries(); err != nil {
			return nil, err
		}
	}
	if d.state == streamInEntries {
		if d.dec.More() {
			var e Entry
			if err := d.dec.Decode(&e); err != nil {
				return nil, fmt.Errorf("har: stream: entry: %w", err)
			}
			return &e, nil
		}
		// Consume the closing ']' of entries, then the rest of the log
		// object and document.
		if _, err := d.expectDelim(']'); err != nil {
			return nil, err
		}
		if err := d.finish(); err != nil {
			return nil, err
		}
	}
	return nil, io.EOF
}

// seekEntries walks the document to the opening '[' of log.entries,
// decoding any log metadata fields encountered on the way. A document
// whose log has no entries field at all degrades to zero entries.
func (d *StreamDecoder) seekEntries() error {
	if _, err := d.expectDelim('{'); err != nil {
		return err
	}
	for {
		key, end, err := d.nextKey()
		if err != nil {
			return err
		}
		if end {
			// Top-level object closed without a log member.
			return d.end()
		}
		if key != "log" {
			if err := d.skipValue(); err != nil {
				return err
			}
			continue
		}
		break
	}
	if _, err := d.expectDelim('{'); err != nil {
		return err
	}
	for {
		key, end, err := d.nextKey()
		if err != nil {
			return err
		}
		if end {
			// Log closed without entries: finish the document.
			return d.finishTop()
		}
		if key == "entries" {
			if _, err := d.expectDelim('['); err != nil {
				return err
			}
			d.state = streamInEntries
			return nil
		}
		if err := d.logField(key); err != nil {
			return err
		}
	}
}

// finish consumes everything after the entries array: trailing log fields,
// the log object close, and the top-level object close.
func (d *StreamDecoder) finish() error {
	for {
		key, end, err := d.nextKey()
		if err != nil {
			return err
		}
		if end {
			break
		}
		if key == "entries" {
			return fmt.Errorf("har: stream: duplicate log.entries")
		}
		if err := d.logField(key); err != nil {
			return err
		}
	}
	return d.finishTop()
}

// finishTop consumes trailing top-level members and the document close.
func (d *StreamDecoder) finishTop() error {
	for {
		_, end, err := d.nextKey()
		if err != nil {
			return err
		}
		if end {
			return d.end()
		}
		if err := d.skipValue(); err != nil {
			return err
		}
	}
}

// end finishes the document once its top-level object has closed: nothing
// but whitespace may follow, and the document checks apply.
func (d *StreamDecoder) end() error {
	d.state = streamDone
	if tok, err := d.dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("unexpected %v", tok)
		}
		return fmt.Errorf("har: stream: after the document: %w", err)
	}
	return d.validate()
}

// logField decodes one non-entries log member into the decoder's metadata.
func (d *StreamDecoder) logField(key string) error {
	var err error
	switch key {
	case "version":
		err = d.dec.Decode(&d.version)
		if err == nil && d.version != "" && !strings.HasPrefix(d.version, "1.") {
			return fmt.Errorf("har: unsupported version %q", d.version)
		}
	case "creator":
		err = d.dec.Decode(&d.creator)
	case "comment":
		err = d.dec.Decode(&d.comment)
	default:
		// pages, browser, and any extension fields: skipped, the audit
		// never reads them.
		err = d.skipValue()
	}
	if err != nil {
		return fmt.Errorf("har: stream: log.%s: %w", key, err)
	}
	return nil
}

// validate applies the document checks, once the whole document has been
// seen.
func (d *StreamDecoder) validate() error {
	if d.version == "" {
		return fmt.Errorf("har: missing log.version")
	}
	return nil
}

// nextKey reads the next object member name, or reports the enclosing
// object's closing '}'.
func (d *StreamDecoder) nextKey() (key string, end bool, err error) {
	tok, err := d.dec.Token()
	if err != nil {
		return "", false, fmt.Errorf("har: stream: %w", streamEOF(err))
	}
	switch t := tok.(type) {
	case json.Delim:
		if t == '}' {
			return "", true, nil
		}
		return "", false, fmt.Errorf("har: stream: unexpected %v", t)
	case string:
		return t, false, nil
	default:
		return "", false, fmt.Errorf("har: stream: unexpected token %v", tok)
	}
}

// expectDelim consumes one token and requires it to be the given delimiter.
func (d *StreamDecoder) expectDelim(want json.Delim) (json.Delim, error) {
	tok, err := d.dec.Token()
	if err != nil {
		return 0, fmt.Errorf("har: stream: %w", streamEOF(err))
	}
	delim, ok := tok.(json.Delim)
	if !ok || delim != want {
		return 0, fmt.Errorf("har: stream: expected %q, got %v", want, tok)
	}
	return delim, nil
}

// skipValue consumes one complete JSON value without retaining it.
func (d *StreamDecoder) skipValue() error {
	var raw json.RawMessage
	if err := d.dec.Decode(&raw); err != nil {
		return fmt.Errorf("har: stream: %w", streamEOF(err))
	}
	return nil
}

// streamEOF maps a bare io.EOF from the JSON tokenizer (truncated
// document) to an unambiguous error, so callers never mistake it for the
// decoder's own end-of-entries io.EOF.
func streamEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
