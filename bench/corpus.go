package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"mime/multipart"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"diffaudit"
)

// Synthetic scales of the two upload kinds. They size a job at 170–830 KB of
// HAR or 0.1–3.7 MB of pcapng: large enough that decode and analysis, not
// HTTP framing, are what a job costs, small enough for ~20 jobs a second.
const (
	webScale    = 0.01
	mobileScale = 0.3
)

const (
	kindWeb = iota
	kindMobile
	numKinds
)

var (
	kindNames = [numKinds]string{"web", "mobile"}
	kindExt   = [numKinds]string{".har", ".pcapng"}
)

// capFile is one capture of an upload: a form field (the persona) and bytes.
type capFile struct {
	field   string
	persona diffaudit.Persona
	data    []byte
	path    string // the same bytes on disk, for the in-process replay
}

// uploadSet is the four persona captures of one service and kind.
type uploadSet struct {
	svc, kind int
	files     []capFile
	tail      []byte // multipart encoding of the files and the closing boundary
}

// storedSnap is one preloaded snapshot. The result it encodes, which the
// output oracle renders expected bodies from, is decoded on first use.
type storedSnap struct {
	Svc  int                    `json:"svc"`
	Ver  int                    `json:"ver"`
	Meta diffaudit.SnapshotMeta `json:"meta"`
	res  *diffaudit.ServiceResult
}

// manifest is what the generating process hands the measuring one.
type manifest struct {
	Names    [numServices]string  `json:"names"`
	Snaps    []*storedSnap        `json:"snaps"`
	ReadCost [numServices]float64 `json:"read_cost"` // report.json bytes of each service's full audit
}

// corpus is everything a run feeds the server, derived from the seed alone.
//
// It is generated in a child process (this binary with -gen) and loaded back
// from disk. The synthetic dataset generator registers its made-up tracker
// domains in process-wide tables as a side effect; a server that is merely
// sent the captures never learns them, and classifies those destinations as
// plain third parties. The process that holds the oracle must be in the
// server's state, not the generator's, or its audits differ from the
// server's for a reason that has nothing to do with the server.
type corpus struct {
	seed     int64
	boundary string
	names    [numServices]string

	uploads [numKinds][numServices]*uploadSet
	upSlots [numKinds][numSlots]int

	snaps     [numServices][]*storedSnap
	readSlots [numSlots]int
	store     diffaudit.SnapshotStore // over the preloaded directory; replays read through it
}

func personaField(p diffaudit.Persona) string {
	return strings.ReplaceAll(strings.ToLower(p.String()), " ", "")
}

func capturePath(dir, service string, kind int, p diffaudit.Persona) string {
	return filepath.Join(dir, service+"-"+personaField(p)+kindExt[kind])
}

// A run directory holds the captures and the manifest under corpus/ and, when
// the workload reads, the preloaded data directory under data/.
func corpusDir(runDir string) string  { return filepath.Join(runDir, "corpus") }
func preloadDir(runDir string) string { return filepath.Join(runDir, "data") }

// newCorpus generates the corpus of one run of wl in a child process and
// loads it.
func newCorpus(seed int64, runDir string, wl *workloadDef) (*corpus, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	gen := exec.Command(self, "-gen", runDir, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10))
	if out, err := gen.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("corpus generator: %v\n%s", err, out)
	}
	dir, uploads, reads := corpusDir(runDir), wl.uploads, wl.reads

	c := &corpus{seed: seed, boundary: fmt.Sprintf("diffauditbench%016x", uint64(seed))}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("corpus manifest: %w", err)
	}
	c.names = m.Names
	if uploads {
		var cost [numKinds][numServices]float64
		for svc := 0; svc < numServices; svc++ {
			for kind := 0; kind < numKinds; kind++ {
				set := &uploadSet{svc: svc, kind: kind}
				for _, p := range diffaudit.BuiltinPersonas() {
					f := capFile{field: personaField(p), persona: p, path: capturePath(dir, c.names[svc], kind, p)}
					if f.data, err = os.ReadFile(f.path); err != nil {
						return nil, err
					}
					cost[kind][svc] += float64(len(f.data))
					set.files = append(set.files, f)
				}
				if set.tail, err = multipartTail(c.boundary, kind, set.files); err != nil {
					return nil, err
				}
				c.uploads[kind][svc] = set
			}
		}
		for kind := range c.upSlots {
			c.upSlots[kind], _ = sevenSlots(cost[kind])
		}
	}
	if reads {
		for svc := range c.snaps {
			c.snaps[svc] = make([]*storedSnap, numVersions)
		}
		for _, s := range m.Snaps {
			c.snaps[s.Svc][s.Ver] = s
		}
		c.readSlots, _ = sevenSlots(m.ReadCost)
		// Opened before any server runs on the directory and only ever read
		// from afterwards.
		if c.store, err = diffaudit.OpenSnapshotStore(preloadDir(runDir)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// result returns the audit result a preloaded snapshot encodes.
func (c *corpus) result(s *storedSnap) (*diffaudit.ServiceResult, error) {
	if s.res == nil {
		res, _, err := c.store.Get(strconv.FormatUint(s.Meta.Seq, 10))
		if err != nil {
			return nil, err
		}
		s.res = res
	}
	return s.res, nil
}

// generate is the child process: it writes the captures wl uploads and
// preloads the data directory wl reads from, then leaves a manifest.
func generate(runDir string, seed int64, wl *workloadDef) error {
	dir := corpusDir(runDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	web := diffaudit.GenerateDataset(webScale)
	var m manifest
	for svc, st := range web.Services {
		m.Names[svc] = st.Spec.Name
	}
	if wl.uploads {
		if err := emitUploads(dir, seed, web); err != nil {
			return err
		}
	}
	if wl.reads {
		if err := preload(preloadDir(runDir), seed, web, &m); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644)
}

// emitUploads renders the upload corpus: per service, four persona HARs from
// the web-scale dataset and four persona pcapngs (TLS secrets embedded) from
// the mobile-scale one. The seed moves every capture's clock: other
// timestamps, other bytes, the same audited flows.
func emitUploads(dir string, seed int64, web *diffaudit.Dataset) error {
	mobile := diffaudit.GenerateDataset(mobileScale)
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seed%100_000) * time.Minute)
	for svc := 0; svc < numServices; svc++ {
		name := web.Services[svc].Spec.Name
		for _, p := range diffaudit.BuiltinPersonas() {
			data, err := json.Marshal(web.Services[svc].EmitHARAt(p, start))
			if err != nil {
				return fmt.Errorf("corpus: %s/%s har: %w", name, p, err)
			}
			if err := os.WriteFile(capturePath(dir, name, kindWeb, p), data, 0o644); err != nil {
				return err
			}
			capt, err := mobile.Services[svc].EmitPCAPAt(p, start)
			if err != nil {
				return fmt.Errorf("corpus: %s/%s pcap: %w", name, p, err)
			}
			w := pcapngWriter{}
			w.header(uint16(capt.LinkType), capt.NanoRes, capt.Secrets)
			for _, pk := range capt.Packets {
				w.packet(pk.Timestamp, pk.Data, pk.OrigLen)
			}
			if err := os.WriteFile(capturePath(dir, name, kindMobile, p), w.buf.Bytes(), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// preload fills dataDir with numServices × numVersions snapshots through the
// library's own store, before any server runs on it. Version v of a service
// audits the service's records minus a seeded 3%, so v→v+1 diffs are never
// empty. About 18 MB encoded in all: it fits the server's default 64 MiB
// cache and is nine times a 2 MiB one.
func preload(dataDir string, seed int64, ds *diffaudit.Dataset, m *manifest) error {
	type item struct {
		svc, ver int
		recs     []diffaudit.RequestRecord
	}
	results := make([][]*diffaudit.ServiceResult, numServices)
	for svc := range results {
		results[svc] = make([]*diffaudit.ServiceResult, numVersions)
	}
	work := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			auditor := diffaudit.New()
			for it := range work {
				results[it.svc][it.ver] = auditor.AuditRecords(ds.Services[it.svc].Identity(), it.recs)
			}
		}()
	}
	for svc, st := range ds.Services {
		all := st.Records()
		for ver := 0; ver < numVersions; ver++ {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(svc)*1009 + int64(ver)))
			drop := map[int]bool{}
			for len(drop) < (len(all)*3+99)/100 {
				drop[rng.Intn(len(all))] = true
			}
			recs := make([]diffaudit.RequestRecord, 0, len(all)-len(drop))
			for i, r := range all {
				if !drop[i] {
					recs = append(recs, r)
				}
			}
			work <- item{svc, ver, recs}
		}
	}
	close(work)
	wg.Wait()

	st, err := diffaudit.OpenSnapshotStore(dataDir)
	if err != nil {
		return err
	}
	// Stored in a seeded order: where a snapshot sits in the store's listing
	// should not depend on its service.
	order := rand.New(rand.NewSource(seed*1_000_003 + 3)).Perm(numServices * numVersions)
	seen := map[string]bool{}
	for n, i := range order {
		s := &storedSnap{Svc: i / numVersions, Ver: i % numVersions}
		if s.Meta, err = st.Put(fmt.Sprintf("job-%d", n+1), results[s.Svc][s.Ver]); err != nil {
			return fmt.Errorf("corpus: preload: %w", err)
		}
		if seen[s.Meta.Hash] {
			return fmt.Errorf("corpus: two versions of %s encode to %.12s; a diff would be empty", m.Names[s.Svc], s.Meta.Hash)
		}
		seen[s.Meta.Hash] = true
		m.Snaps = append(m.Snaps, s)
	}
	// The cost that orders the seven-slot cycle comes from the undropped
	// audit, not from any seeded version: the seed must never decide which
	// service is doubled, or every seed would measure a different mix.
	auditor := diffaudit.New()
	for svc, st := range ds.Services {
		body, err := diffaudit.ExportJSON([]*diffaudit.ServiceResult{auditor.AuditRecords(st.Identity(), st.Records())})
		if err != nil {
			return err
		}
		m.ReadCost[svc] = float64(len(body))
	}
	return nil
}

// multipartTail encodes the file parts and the closing boundary once per
// upload set; a job's body is a per-job head (the name field) followed by
// these shared bytes.
func multipartTail(boundary string, kind int, files []capFile) ([]byte, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(boundary); err != nil {
		return nil, err
	}
	for _, f := range files {
		// The server picks the decoder by the file name's extension.
		fw, err := mw.CreateFormFile(f.field, f.field+kindExt[kind])
		if err != nil {
			return nil, err
		}
		fw.Write(f.data)
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// multipartHead is the name field of one job, in the encoding
// mime/multipart.Writer would produce for a first part.
func multipartHead(boundary, name string) string {
	return "--" + boundary + "\r\nContent-Disposition: form-data; name=\"name\"\r\n\r\n" + name + "\r\n"
}

// jobName gives every job a service name of its own, so every job stores a
// distinct snapshot and, like any service the server has no profile for,
// pays the identity-guess pass.
func (c *corpus) jobName(phase string, svc, kind, k int) string {
	return fmt.Sprintf("%s-%s-s%d-%s%05d", c.names[svc], kindNames[kind], c.seed, phase, k)
}

// pcapngWriter serialises a capture as a little-endian, single-section,
// single-interface pcapng file with its TLS key log in Decryption Secrets
// Blocks ahead of the packets (what editcap --inject-secrets writes). The
// library's writer is internal; the harness reaches the library only through
// its public facade, and the format is four block types.
type pcapngWriter struct {
	buf  bytes.Buffer
	nano bool
}

func (p *pcapngWriter) block(kind uint32, body []byte) {
	pad := (4 - len(body)%4) % 4
	total := uint32(12 + len(body) + pad)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], kind)
	binary.LittleEndian.PutUint32(hdr[4:], total)
	p.buf.Write(hdr[:])
	p.buf.Write(body)
	p.buf.Write(make([]byte, pad))
	p.buf.Write(hdr[4:8])
}

func (p *pcapngWriter) header(linkType uint16, nano bool, secrets [][]byte) {
	p.nano = nano
	le := binary.LittleEndian
	shb := make([]byte, 16)
	le.PutUint32(shb[0:], 0x1A2B3C4D) // byte-order magic
	le.PutUint16(shb[4:], 1)          // version 1.0
	for i := 8; i < 16; i++ {
		shb[i] = 0xff // section length unknown
	}
	p.block(0x0A0D0D0A, shb)

	idb := make([]byte, 8)
	le.PutUint16(idb[0:], linkType)
	le.PutUint32(idb[4:], 262144) // snaplen
	if nano {
		idb = append(idb, 9, 0, 1, 0, 9, 0, 0, 0, 0, 0, 0, 0) // if_tsresol = 10^-9, end of options
	}
	p.block(0x00000001, idb)

	for _, s := range secrets {
		dsb := make([]byte, 8, 8+len(s))
		le.PutUint32(dsb[0:], 0x544c534b) // "TLSK"
		le.PutUint32(dsb[4:], uint32(len(s)))
		p.block(0x0000000A, append(dsb, s...))
	}
}

func (p *pcapngWriter) packet(ts time.Time, data []byte, origLen int) {
	ticks := uint64(ts.UnixNano())
	if !p.nano {
		ticks /= 1000
	}
	if origLen < len(data) {
		origLen = len(data)
	}
	le := binary.LittleEndian
	body := make([]byte, 20, 20+len(data))
	le.PutUint32(body[4:], uint32(ticks>>32))
	le.PutUint32(body[8:], uint32(ticks))
	le.PutUint32(body[12:], uint32(len(data)))
	le.PutUint32(body[16:], uint32(origLen))
	p.block(0x00000006, append(body, data...))
}
