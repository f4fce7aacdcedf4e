// Package har implements the HTTP Archive (HAR) 1.2 format, the capture
// format the DiffAudit paper exports from the Chrome DevTools Network panel
// for website traces and from Proxyman for desktop-app traces. Only the
// fields the audit pipeline consumes are modeled deeply (requests); response
// fields are carried opaquely enough to round-trip. Documents are written
// with HAR.Marshal and read with the one decoder, StreamDecoder.
package har

import (
	"encoding/json"
	"os"
	"strings"
	"time"

	"diffaudit/internal/domains"
)

// HAR is the top-level HTTP Archive document.
type HAR struct {
	Log Log `json:"log"`
}

// Log is the root object of a HAR document.
type Log struct {
	Version string  `json:"version"`
	Creator Creator `json:"creator"`
	Pages   []Page  `json:"pages,omitempty"`
	Entries []Entry `json:"entries"`
	Comment string  `json:"comment,omitempty"`
}

// Creator identifies the exporting application.
type Creator struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

// Page groups entries by the page that generated them.
type Page struct {
	StartedDateTime time.Time `json:"startedDateTime"`
	ID              string    `json:"id"`
	Title           string    `json:"title"`
}

// Entry is one request/response exchange.
type Entry struct {
	Pageref         string    `json:"pageref,omitempty"`
	StartedDateTime time.Time `json:"startedDateTime"`
	Time            float64   `json:"time"` // milliseconds
	Request         Request   `json:"request"`
	Response        Response  `json:"response"`
	ServerIPAddress string    `json:"serverIPAddress,omitempty"`
	Connection      string    `json:"connection,omitempty"`
	Comment         string    `json:"comment,omitempty"`
}

// Request is the outgoing half of an exchange — the part DiffAudit audits.
type Request struct {
	Method      string    `json:"method"`
	URL         string    `json:"url"`
	HTTPVersion string    `json:"httpVersion"`
	Cookies     []Cookie  `json:"cookies"`
	Headers     []NV      `json:"headers"`
	QueryString []NV      `json:"queryString"`
	PostData    *PostData `json:"postData,omitempty"`
	HeadersSize int       `json:"headersSize"`
	BodySize    int       `json:"bodySize"`
}

// Response carries the minimum responder state for a valid document.
type Response struct {
	Status      int      `json:"status"`
	StatusText  string   `json:"statusText"`
	HTTPVersion string   `json:"httpVersion"`
	Cookies     []Cookie `json:"cookies"`
	Headers     []NV     `json:"headers"`
	Content     Content  `json:"content"`
	RedirectURL string   `json:"redirectURL"`
	HeadersSize int      `json:"headersSize"`
	BodySize    int      `json:"bodySize"`
}

// Content is the response body descriptor.
type Content struct {
	Size     int    `json:"size"`
	MimeType string `json:"mimeType"`
	Text     string `json:"text,omitempty"`
}

// NV is a name/value pair (headers, query parameters).
type NV struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Cookie is a request or response cookie.
type Cookie struct {
	Name     string `json:"name"`
	Value    string `json:"value"`
	Path     string `json:"path,omitempty"`
	Domain   string `json:"domain,omitempty"`
	HTTPOnly bool   `json:"httpOnly,omitempty"`
	Secure   bool   `json:"secure,omitempty"`
}

// PostData is the request body.
type PostData struct {
	MimeType string `json:"mimeType"`
	Params   []NV   `json:"params,omitempty"`
	Text     string `json:"text,omitempty"`
}

// New returns an empty document stamped with this library as creator.
func New() *HAR {
	return &HAR{Log: Log{
		Version: "1.2",
		Creator: Creator{Name: "diffaudit", Version: "1.0"},
	}}
}

// Marshal encodes the document as indented JSON.
func (h *HAR) Marshal() ([]byte, error) {
	return json.MarshalIndent(h, "", "  ")
}

// WriteFile writes the document to disk.
func (h *HAR) WriteFile(path string) error {
	data, err := h.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Append adds an entry to the log.
func (h *HAR) Append(e Entry) { h.Log.Entries = append(h.Log.Entries, e) }

// Host returns the request's host (lowercased, without userinfo, port or
// IPv6 brackets), derived from the URL and falling back to the Host header.
func (r *Request) Host() string {
	if h := domains.Hostname(r.URL); h != "" {
		return h
	}
	return domains.Hostname(r.Header("Host"))
}

// Header returns the first header value with the given name
// (case-insensitive), or "".
func (r *Request) Header(name string) string {
	for _, hd := range r.Headers {
		if strings.EqualFold(hd.Name, name) {
			return hd.Value
		}
	}
	return ""
}
