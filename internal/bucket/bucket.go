// Package bucket manages intermediate data between tasks. Each task
// writes its output partitioned into buckets (one per destination
// split); each bucket is addressable by URL so a consumer task can read
// it later, possibly from another machine.
//
// Three URL schemes mirror the data paths in §IV-B of the Mrs paper:
//
//	mem:<store>/<name>   in-memory, single-process execution modes
//	file://<path>        shared-filesystem staging (the fault-tolerant path)
//	http://host/data/<…> direct slave-to-slave serving via the built-in
//	                     HTTP server (the high-performance path)
//
// A Store owns buckets created locally. Opening a URL resolves mem and
// file buckets locally and fetches http buckets over the network. A
// store that serves over http keeps each bucket of up to
// MemBucketBytes in memory and writes only larger ones as files.
package bucket

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/hash"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// CompressExt marks a bucket file stored whole-stream flate-compressed
// in the legacy (pre-block) at-rest form. The suffix makes compressed
// buckets self-describing: any reader that sees it (local open, file://
// URL, the data server) knows to decompress, so producers and consumers
// need not agree on configuration.
const CompressExt = ".fz"

// BlockExt marks a bucket file stored in kvio block framing. The full
// at-rest suffix is BlockExt plus the block codec's extension —
// ".mrb" (identity blocks), ".mrb.fz" (deflate blocks), ".mrb.lz" —
// so the data server knows the at-rest codec without opening the file
// and can serve it verbatim to a client that accepts that codec.
const BlockExt = ".mrb"

// ColExt marks a bucket file whose blocks are columnar frames (kvio's
// second block kind: key and value columns with per-column codecs).
// Like BlockExt it composes with the codec extension — ".mrc",
// ".mrc.fz", ".mrc.lz" — so the data server knows both the at-rest
// codec and the block kind without opening the file, which is what lets
// it transcode down to row blocks for pre-columnar peers.
const ColExt = ".mrc"

// Descriptor identifies a finished bucket.
type Descriptor struct {
	// Name is the store-relative bucket name, e.g. "ds3/t2/s1".
	Name string
	// URL locates the bucket for consumers ("mem:", "file://", "http://").
	URL string
	// Records and Bytes describe the contents (framing excluded).
	Records int64
	Bytes   int64
}

// storeSeq distinguishes mem: URLs of different stores in one process.
var (
	storeSeqMu sync.Mutex
	storeSeq   int
)

// MemBucketBytes is the largest encoded bucket a serving store (one
// with a baseURL) keeps in memory. It is one kvio buffer
// (kvio.DefaultBlockSize, 64 KiB), so a bucket that fits is never
// flushed before Close; the write that would cross it moves the bucket
// to a temp file and streams the rest.
const MemBucketBytes = kvio.DefaultBlockSize

// MemStoreCap bounds the bytes one serving store holds in memory. A
// bucket that would push the store past it is written to disk instead.
const MemStoreCap = 64 << 20

// Store creates and resolves buckets.
type Store struct {
	id      int
	dir     string // if non-empty, buckets are files under dir
	baseURL string // if non-empty, file buckets advertise baseURL/<name>

	mu           sync.Mutex
	mem          map[string][]byte     // record-stream payloads for mem buckets
	held         map[string]heldBucket // serving store: small buckets by flat name
	heldBytes    int64                 // sum of held payload sizes
	memCap       int64                 // bound on heldBytes (MemStoreCap)
	spilled      bool                  // a serving-store bucket was ever written to disk
	client       *http.Client          // overrides the shared fetch client (fault injection)
	compress     bool                  // write new file buckets legacy flate-compressed
	codec        wirecodec.Codec       // if set, write new file buckets block-framed with this codec
	blockEnc     kvio.BlockEncoding    // block kind + key encoding for new file buckets
	blockSize    int                   // target uncompressed bytes per block (0 = kvio default)
	rowOnlyFetch bool                  // test hook: fetch like a pre-columnar peer
	metrics      *obs.Metrics          // wire-byte counters (nil-safe)
	memBytes     *obs.Counter          // held-bytes gauge (nil-safe)
	memBuckets   *obs.Counter          // held-buckets gauge (nil-safe)
	spills       *obs.Counter          // serving-store buckets written to disk
}

// heldBucket is a published bucket kept in a serving store's memory:
// the exact bytes its file would hold, and the at-rest form (codec and
// block kind) that file's suffix would name.
type heldBucket struct {
	data []byte
	form atRest
}

// open returns a reader over the held bytes, undoing a legacy
// whole-stream flate layer like OpenLocal does for a file.
func (h heldBucket) open() io.ReadCloser {
	rc := io.NopCloser(bytes.NewReader(h.data))
	if h.form.legacyFlate {
		return &drainReadCloser{r: deflateCodec().NewReader(rc), under: rc}
	}
	return rc
}

// NewMemStore returns a Store that keeps buckets in memory. Its
// descriptors are only meaningful within this process.
func NewMemStore() *Store {
	storeSeqMu.Lock()
	storeSeq++
	id := storeSeq
	storeSeqMu.Unlock()
	return &Store{id: id, mem: map[string][]byte{}}
}

// NewFileStore returns a Store that writes buckets as files under dir.
// If baseURL is non-empty (e.g. "http://10.0.0.7:9123/data"), finished
// buckets advertise baseURL/<name>; otherwise they advertise file://
// URLs, which is correct when dir is on a shared filesystem.
func NewFileStore(dir, baseURL string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bucket: creating store dir: %w", err)
	}
	s := &Store{dir: dir, baseURL: strings.TrimRight(baseURL, "/")}
	if s.baseURL != "" {
		s.held = map[string]heldBucket{}
		s.memCap = MemStoreCap
	}
	return s, nil
}

// Dir returns the store's directory ("" for memory stores).
func (s *Store) Dir() string { return s.dir }

// SetHTTPClient overrides the HTTP client used for remote bucket
// fetches — the hook internal/fault uses to perturb the data path.
func (s *Store) SetHTTPClient(c *http.Client) {
	s.mu.Lock()
	s.client = c
	s.mu.Unlock()
}

func (s *Store) fetchClient() *http.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client != nil {
		return s.client
	}
	return httpClient
}

// CloseIdle closes the fetch client's idle keep-alive connections.
// Call it when a node shuts down: a pooled (or dial-racing) connection
// that never carries another request otherwise counts as active on the
// peer's server until the net/http new-connection grace period expires,
// stalling its graceful Shutdown.
func (s *Store) CloseIdle() {
	s.fetchClient().CloseIdleConnections()
}

// SetCompress controls whether new file buckets are written in the
// legacy whole-stream flate form (mem buckets never are — they never
// leave the process). Already-written buckets are unaffected; readers
// handle every at-rest form regardless of this setting. SetCodec
// supersedes this: when a block codec is set it wins.
func (s *Store) SetCompress(on bool) {
	s.mu.Lock()
	s.compress = on
	s.mu.Unlock()
}

// SetCodec switches new file buckets to kvio block framing with the
// named registered codec ("identity", "deflate", "lz"). An empty name
// reverts to the legacy per-record forms. Mem buckets are unaffected:
// they never leave the process, so framing buys them nothing.
func (s *Store) SetCodec(name string) error {
	if name == "" {
		s.mu.Lock()
		s.codec = nil
		s.mu.Unlock()
		return nil
	}
	c, ok := wirecodec.Lookup(name)
	if !ok {
		return fmt.Errorf("bucket: unknown codec %q (have %s)", name, strings.Join(wirecodec.Names(), ", "))
	}
	s.mu.Lock()
	s.codec = c
	s.mu.Unlock()
	return nil
}

// SetBlockEncoding sets the block encoding for new file buckets:
// "row" (the default), "columnar" (per-block automatic key encoding),
// or a pinned "columnar-raw"/"columnar-dict"/"columnar-delta". Columnar
// framing implies block framing, so if no block codec is set new
// buckets are written as identity-codec blocks rather than falling
// back to the legacy per-record forms.
func (s *Store) SetBlockEncoding(name string) error {
	enc, err := kvio.ParseBlockEncoding(name)
	if err != nil {
		return fmt.Errorf("bucket: %w", err)
	}
	s.mu.Lock()
	s.blockEnc = enc
	s.mu.Unlock()
	return nil
}

// SetRowOnlyFetch makes the store's HTTP fetches look like they come
// from a pre-columnar peer (no block-kind advertisement), forcing
// serving peers onto the row-block transcode fallback. Test hook for
// mixed-version fleets.
func (s *Store) SetRowOnlyFetch(on bool) {
	s.mu.Lock()
	s.rowOnlyFetch = on
	s.mu.Unlock()
}

func (s *Store) rowOnlyFetchOn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rowOnlyFetch
}

// SetBlockSize sets the target uncompressed payload per block for new
// block-framed buckets; 0 restores the kvio default.
func (s *Store) SetBlockSize(n int) {
	s.mu.Lock()
	s.blockSize = n
	s.mu.Unlock()
}

func (s *Store) codecOn() (wirecodec.Codec, kvio.BlockEncoding, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.codec
	if c == nil && s.blockEnc.Columnar {
		c = wirecodec.Identity()
	}
	return c, s.blockEnc, s.blockSize
}

// SetMetrics wires the registry that receives the store's wire-byte
// and memory-tier metrics. A nil registry (the default) discards them.
// The memory-tier gauges are additive, so stores sharing one registry
// report their sum.
func (s *Store) SetMetrics(m *obs.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
	s.memBytes = m.Level(obs.MetricBucketMemBytes)
	s.memBuckets = m.Level(obs.MetricBucketMemBuckets)
	s.spills = m.Counter(obs.MetricBucketSpilled)
}

func (s *Store) compressOn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compress
}

// wireCounter returns the wire-byte counter for a URL scheme's data
// path (nil, a no-op, when metrics are not wired or the path is local).
func (s *Store) wireCounter(metric string) *obs.Counter {
	s.mu.Lock()
	m := s.metrics
	s.mu.Unlock()
	return m.Counter(metric)
}

// counting wraps rc so every wire byte lands in the per-path counter,
// the per-codec counter for codecName, and the per-block-kind counter
// for encName.
func (s *Store) counting(rc io.ReadCloser, pathMetric, codecName, encName string) io.ReadCloser {
	return &countingReadCloser{
		rc: rc,
		c:  s.wireCounter(pathMetric),
		c2: s.wireCounter(obs.MetricWireBytesCodec(codecName)),
		c3: s.wireCounter(obs.MetricWireBytesEncoding(encName)),
	}
}

// blockExtIndex finds the block-framing marker (row or columnar) in an
// at-rest path, returning the marker's length so the codec extension
// after it can be extracted.
func blockExtIndex(path string) (idx, markerLen int) {
	if i := strings.Index(path, BlockExt); i >= 0 {
		return i, len(BlockExt)
	}
	if i := strings.Index(path, ColExt); i >= 0 {
		return i, len(ColExt)
	}
	return -1, 0
}

// fileCodecName classifies an at-rest file path by the codec its wire
// bytes are compressed with, for the per-codec counters.
func fileCodecName(path string) string {
	if i, n := blockExtIndex(path); i >= 0 {
		ext := path[i+n:]
		for _, name := range wirecodec.Names() {
			if c, _ := wirecodec.Lookup(name); c.Ext() == ext {
				return name
			}
		}
		return wirecodec.IdentityName
	}
	if strings.HasSuffix(path, CompressExt) {
		return wirecodec.DeflateName
	}
	return wirecodec.IdentityName
}

// fileEncodingName classifies an at-rest file path by block kind for
// the per-encoding counters; legacy record files count as row.
func fileEncodingName(path string) string {
	if strings.Contains(path, ColExt) {
		return wirecodec.BlockKindColumnar
	}
	return wirecodec.BlockKindRow
}

// deflateCodec returns the registry's deflate codec, which owns the
// pooled flate state the legacy ".fz" at-rest form is built on.
func deflateCodec() wirecodec.Codec {
	c, ok := wirecodec.Lookup(wirecodec.DeflateName)
	if !ok {
		panic("wirecodec: deflate not registered")
	}
	return c
}

// Writer accumulates one bucket's records.
type Writer struct {
	store *Store
	name  string
	// memory path
	buf *bytes.Buffer
	// file and serving stores: the encoded stream goes to out, which
	// either holds it in memory or writes a temp file that Close renames
	// to form.path, so a bucket is only ever observed complete.
	// Duplicate task attempts (reassignment races, lease requeues) then
	// cannot expose a half-written bucket to a concurrent reader — the
	// last Close wins and both attempts produced identical content.
	out  spillWriter
	form atRest
	cw   io.WriteCloser // legacy compression layer between records and out, if on

	w      *kvio.Writer      // legacy per-record framing
	bw     *kvio.BlockWriter // block framing (when the store has a codec)
	closed bool
}

// spillWriter is the byte sink under a bucket's encoder. It holds the
// stream in buf until it would outgrow limit; the write that crosses
// the limit creates the temp file, writes the held prefix, and from
// then on streams to the file. A file store's writers have limit 0 and
// their file from Create on.
type spillWriter struct {
	dir, pattern string
	limit        int
	buf          []byte
	f            *os.File
}

func (sw *spillWriter) Write(p []byte) (int, error) {
	if sw.f == nil {
		if len(sw.buf)+len(p) <= sw.limit {
			sw.buf = append(sw.buf, p...)
			return len(p), nil
		}
		if err := sw.spill(); err != nil {
			return 0, err
		}
	}
	return sw.f.Write(p)
}

// spill moves the stream to a new temp file.
func (sw *spillWriter) spill() error {
	f, err := os.CreateTemp(sw.dir, sw.pattern)
	if err != nil {
		return err
	}
	sw.f = f
	_, err = f.Write(sw.buf)
	sw.buf = nil
	return err
}

// abort discards the stream and any temp file.
func (sw *spillWriter) abort() {
	sw.buf = nil
	if sw.f != nil {
		sw.f.Close()
		os.Remove(sw.f.Name())
	}
}

// CreateOpts carries per-bucket overrides of the store's data-plane
// defaults; zero values inherit the store settings. This is how a
// per-dataset codec or block-encoding pin (core.OpOpts) reaches the
// files a task writes.
type CreateOpts struct {
	// Codec overrides the store's block codec by registered name.
	Codec string
	// BlockEncoding overrides the store's block encoding ("row",
	// "columnar", "columnar-raw", "columnar-dict", "columnar-delta").
	BlockEncoding string
}

// Create starts a new bucket with the given store-relative name. Name
// components are sanitized into a flat, safe file name. With a block
// codec set the file is written block-framed and published with the
// BlockExt+codec (or ColExt+codec, for columnar encodings) suffix; with
// legacy compression on it is written through whole-stream flate under
// CompressExt. Record counts and payload bytes in the descriptor are
// always pre-compression.
func (s *Store) Create(name string) (*Writer, error) {
	return s.CreateOpts(name, CreateOpts{})
}

// CreateOpts is Create with per-bucket data-plane overrides.
func (s *Store) CreateOpts(name string, opts CreateOpts) (*Writer, error) {
	if name == "" {
		return nil, fmt.Errorf("bucket: empty bucket name")
	}
	if s.dir == "" {
		buf := &bytes.Buffer{}
		return &Writer{store: s, name: name, buf: buf, w: kvio.NewWriter(buf)}, nil
	}
	c, enc, blockSize := s.codecOn()
	if opts.BlockEncoding != "" {
		var err error
		if enc, err = kvio.ParseBlockEncoding(opts.BlockEncoding); err != nil {
			return nil, fmt.Errorf("bucket: %w", err)
		}
		if !enc.Columnar && opts.Codec == "" && s.dirCodec() == nil {
			c = nil // pinned back to row on a store with no codec: legacy forms
		}
	}
	if opts.Codec != "" {
		oc, ok := wirecodec.Lookup(opts.Codec)
		if !ok {
			return nil, fmt.Errorf("bucket: unknown codec %q (have %s)", opts.Codec, strings.Join(wirecodec.Names(), ", "))
		}
		c = oc
	}
	if c == nil && enc.Columnar {
		c = wirecodec.Identity()
	}
	flat := flatten(name)
	w := &Writer{store: s, name: name, form: atRest{path: filepath.Join(s.dir, flat), blockCodec: c, columnar: enc.Columnar}}
	w.out = spillWriter{dir: s.dir, pattern: "." + flat + ".tmp-*"}
	if s.held != nil {
		w.out.limit = MemBucketBytes
	} else if err := w.out.spill(); err != nil {
		return nil, fmt.Errorf("bucket: creating %s: %w", w.form.path, err)
	}
	if c != nil {
		if enc.Columnar {
			w.form.path += ColExt + c.Ext()
		} else {
			w.form.path += BlockExt + c.Ext()
		}
		w.bw = kvio.NewBlockWriterEnc(&w.out, c, blockSize, enc)
	} else if s.compressOn() {
		w.form.path += CompressExt
		w.form.legacyFlate = true
		w.cw = deflateCodec().NewWriter(&w.out)
		w.w = kvio.NewWriter(w.cw)
	} else {
		w.w = kvio.NewWriter(&w.out)
	}
	return w, nil
}

// dirCodec returns the store's configured block codec without the
// columnar-implies-blocks defaulting codecOn applies.
func (s *Store) dirCodec() wirecodec.Codec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.codec
}

// Write appends one record to the bucket.
func (w *Writer) Write(p kvio.Pair) error {
	if w.closed {
		return fmt.Errorf("bucket: write after close")
	}
	if w.bw != nil {
		return w.bw.Write(p)
	}
	return w.w.Write(p)
}

// Emit implements kvio.Emitter.
func (w *Writer) Emit(key, value []byte) error {
	return w.Write(kvio.Pair{Key: key, Value: value})
}

// Close finalizes the bucket and returns its descriptor.
func (w *Writer) Close() (Descriptor, error) {
	if w.closed {
		return Descriptor{}, fmt.Errorf("bucket: double close")
	}
	w.closed = true
	var (
		d   Descriptor
		err error
	)
	if w.bw != nil {
		d = Descriptor{Name: w.name, Records: w.bw.Count(), Bytes: w.bw.Bytes()}
		err = w.bw.Close()
		if n := w.bw.ColumnarBlocks(); n > 0 {
			w.store.wireCounter(obs.MetricBlocksColumnar).Add(n)
		}
	} else {
		d = Descriptor{Name: w.name, Records: w.w.Count(), Bytes: w.w.Bytes()}
		err = w.w.Flush()
		w.w.Release()
		if w.cw != nil {
			if cerr := w.cw.Close(); err == nil {
				err = cerr // flushes the final flate block, recycles pooled state
			}
			w.cw = nil
		}
	}
	if err != nil {
		w.out.abort()
		return Descriptor{}, err
	}
	s := w.store
	if w.buf != nil {
		s.mu.Lock()
		s.mem[w.name] = w.buf.Bytes()
		s.mu.Unlock()
		d.URL = fmt.Sprintf("mem:%d/%s", s.id, w.name)
		return d, nil
	}
	if err := s.publish(w); err != nil {
		return Descriptor{}, err
	}
	if s.baseURL != "" {
		// http URLs never carry the at-rest suffix: the data server
		// resolves the at-rest form and negotiates the wire encoding.
		d.URL = s.baseURL + "/" + url.PathEscape(flatten(w.name))
	} else {
		d.URL = "file://" + w.form.path
	}
	return d, nil
}

// publish makes a closed writer's bucket visible: held in memory when
// it never left its buffer and fits under the store's cap, otherwise
// renamed from its temp file into place.
func (s *Store) publish(w *Writer) error {
	flat := flatten(w.name)
	if w.out.f == nil && s.hold(flat, heldBucket{data: w.out.buf, form: w.form}) {
		return nil
	}
	if s.held != nil {
		s.mu.Lock()
		s.spilled = true // set before the file exists; Remove relies on it
		s.mu.Unlock()
		s.spills.Add(1)
	}
	if w.out.f == nil {
		if err := w.out.spill(); err != nil {
			w.out.abort()
			return fmt.Errorf("bucket: creating %s: %w", w.form.path, err)
		}
	}
	tmp := w.out.f.Name()
	if err := w.out.f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, w.form.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("bucket: publishing %s: %w", w.form.path, err)
	}
	if s.held != nil {
		// Last Close wins: a held copy from an earlier attempt would
		// shadow the file.
		s.mu.Lock()
		s.unholdLocked(flat)
		s.mu.Unlock()
	}
	return nil
}

// hold publishes a bucket into the memory tier unless that would push
// the store past its cap, replacing any held copy of the same name;
// it reports whether it did.
func (s *Store) hold(flat string, hb heldBucket) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held == nil {
		return false
	}
	old, had := s.held[flat]
	delta := int64(len(hb.data) - len(old.data))
	if s.heldBytes+delta > s.memCap {
		return false
	}
	s.held[flat] = hb
	s.heldBytes += delta
	s.memBytes.Add(delta)
	if !had {
		s.memBuckets.Add(1)
	}
	return true
}

// unholdLocked drops a held bucket, reporting whether one was held.
func (s *Store) unholdLocked(flat string) bool {
	hb, ok := s.held[flat]
	if !ok {
		return false
	}
	delete(s.held, flat)
	s.heldBytes -= int64(len(hb.data))
	s.memBytes.Add(-int64(len(hb.data)))
	s.memBuckets.Add(-1)
	return true
}

// lookupHeld returns the held bucket with the given flat name.
func (s *Store) lookupHeld(flat string) (heldBucket, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hb, ok := s.held[flat]
	return hb, ok
}

// Held reports how many buckets, and how many bytes, the store keeps
// in memory (always 0 for stores without a baseURL).
func (s *Store) Held() (buckets int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.held), s.heldBytes
}

// HeldJob reports how many buckets of one job's namespace the store
// keeps in memory.
func (s *Store) HeldJob(job int64) int {
	prefix := flatten(fmt.Sprintf("j%d/", job))
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for flat := range s.held {
		if strings.HasPrefix(flat, prefix) {
			n++
		}
	}
	return n
}

// Put stores a complete pair slice as a bucket in one call.
func (s *Store) Put(name string, pairs []kvio.Pair) (Descriptor, error) {
	w, err := s.Create(name)
	if err != nil {
		return Descriptor{}, err
	}
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			return Descriptor{}, err
		}
	}
	return w.Close()
}

// Remove deletes a local bucket by name; used when datasets are freed
// between iterations to bound storage.
func (s *Store) Remove(name string) error {
	if s.dir == "" {
		s.mu.Lock()
		delete(s.mem, name)
		s.mu.Unlock()
		return nil
	}
	flat := flatten(name)
	s.mu.Lock()
	s.unholdLocked(flat)
	noFiles := s.held != nil && !s.spilled // a serving store's bucket files are all spills
	s.mu.Unlock()
	if noFiles {
		return nil
	}
	// A bucket may exist in any at-rest form depending on the codec and
	// compression settings when it was written; remove every variant.
	path := filepath.Join(s.dir, flat)
	err := os.Remove(path)
	for _, suffix := range atRestSuffixes() {
		if ferr := os.Remove(path + suffix); err != nil && ferr == nil {
			err = nil
		}
	}
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// atRestSuffixes lists every non-plain at-rest suffix a bucket file can
// carry: a row-block and a columnar form per registered codec, plus the
// legacy flate form.
func atRestSuffixes() []string {
	names := wirecodec.Names()
	out := make([]string, 0, 2*len(names)+1)
	for _, name := range names {
		c, _ := wirecodec.Lookup(name)
		out = append(out, BlockExt+c.Ext(), ColExt+c.Ext())
	}
	return append(out, CompressExt)
}

// RemoveJob deletes every local bucket in one job's namespace (names
// prefixed "j<job>/", stored flattened as "j<job>_"), in either
// at-rest form. This is the slave- and master-side reclaim that runs
// when a job completes; the flattened prefix keeps "j1_" from matching
// "j10_..." because the separator is part of the prefix. Returns how
// many buckets were removed.
func (s *Store) RemoveJob(job int64) (int, error) {
	prefix := fmt.Sprintf("j%d/", job)
	if s.dir == "" {
		s.mu.Lock()
		n := 0
		for name := range s.mem {
			if strings.HasPrefix(name, prefix) {
				delete(s.mem, name)
				n++
			}
		}
		s.mu.Unlock()
		return n, nil
	}
	flat := flatten(prefix)
	n := 0
	s.mu.Lock()
	for name := range s.held {
		if strings.HasPrefix(name, flat) && s.unholdLocked(name) {
			n++
		}
	}
	s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return n, err
	}
	var firstErr error
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), flat) {
			continue
		}
		if rerr := os.Remove(filepath.Join(s.dir, e.Name())); rerr != nil && !os.IsNotExist(rerr) {
			if firstErr == nil {
				firstErr = rerr
			}
			continue
		}
		n++
	}
	return n, firstErr
}

// atRest describes one resolved at-rest bucket file.
type atRest struct {
	path        string
	blockCodec  wirecodec.Codec // non-nil: block-framed file, blocks under this codec
	columnar    bool            // block file holds columnar frames (ColExt)
	legacyFlate bool            // legacy whole-stream flate file
}

// resolveAtRest finds which at-rest form exists for the plain path:
// the plain legacy file, a block file (row or columnar, any registered
// codec's suffix), or the legacy flate file.
func resolveAtRest(path string) (atRest, error) {
	if _, err := os.Stat(path); err == nil {
		return atRest{path: path}, nil
	}
	for _, name := range wirecodec.Names() {
		c, _ := wirecodec.Lookup(name)
		if p := path + BlockExt + c.Ext(); statOK(p) {
			return atRest{path: p, blockCodec: c}, nil
		}
		if p := path + ColExt + c.Ext(); statOK(p) {
			return atRest{path: p, blockCodec: c, columnar: true}, nil
		}
	}
	if _, err := os.Stat(path + CompressExt); err == nil {
		return atRest{path: path + CompressExt, legacyFlate: true}, nil
	}
	return atRest{}, fmt.Errorf("bucket: %s: %w", path, os.ErrNotExist)
}

func statOK(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// OpenLocal returns a reader for a bucket created by this store,
// undoing any whole-stream compression. Block-framed files come back
// verbatim — block compression lives inside the framing and the stream
// is self-describing, so record consumers go through kvio.NewAnyReader.
func (s *Store) OpenLocal(name string) (io.ReadCloser, error) {
	if s.dir == "" {
		s.mu.Lock()
		data, ok := s.mem[name]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("bucket: no mem bucket %q", name)
		}
		return io.NopCloser(bytes.NewReader(data)), nil
	}
	flat := flatten(name)
	if hb, ok := s.lookupHeld(flat); ok {
		return hb.open(), nil
	}
	ar, err := resolveAtRest(filepath.Join(s.dir, flat))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(ar.path)
	if err != nil {
		return nil, err
	}
	if ar.legacyFlate {
		return &drainReadCloser{r: deflateCodec().NewReader(f), under: f}, nil
	}
	return f, nil
}

// ServeName maps an escaped bucket file name (as it appears in an http
// URL path) back to a served file path, for use by the data server.
func (s *Store) ServeName(escaped string) (string, error) {
	name, err := url.PathUnescape(escaped)
	if err != nil {
		return "", err
	}
	if strings.ContainsAny(name, "/\\") || name == "" || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("bucket: illegal bucket name %q", name)
	}
	if s.dir == "" {
		return "", fmt.Errorf("bucket: memory store cannot serve files")
	}
	return filepath.Join(s.dir, name), nil
}

// ServeData is the data server: it serves the bucket named by an
// escaped URL path element (what follows "/data/" in the URL the store
// advertises) from memory when held, otherwise from its file, through
// ServeBucket's wire negotiation either way.
func (s *Store) ServeData(w http.ResponseWriter, r *http.Request, escaped string) {
	path, err := s.ServeName(escaped)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if hb, ok := s.lookupHeld(filepath.Base(path)); ok {
		serveAtRest(w, r, hb.form, bytes.NewReader(hb.data), int64(len(hb.data)))
		return
	}
	ServeBucket(w, r, path)
}

// flatten converts a hierarchical bucket name into a safe flat file name.
func flatten(name string) string {
	r := strings.NewReplacer("/", "_", "\\", "_", "..", "_", ":", "_")
	return r.Replace(name)
}

// ---------------------------------------------------------------------------
// Opening by URL

// HTTPTimeout bounds a single bucket fetch.
const HTTPTimeout = 30 * time.Second

// DefaultTransport is the tuned transport behind the shared bucket
// fetch client. net/http's default of 2 idle connections per host
// serializes connection reuse as soon as fetches run in parallel: with
// prefetch width k, k−2 of the concurrent fetches to one slave would
// tear down and redial on every bucket. Fault-injection wrappers should
// use this as their base RoundTripper so chaos runs keep the same
// connection behavior.
var DefaultTransport = &http.Transport{
	MaxIdleConns:        64,
	MaxIdleConnsPerHost: 16,
	IdleConnTimeout:     90 * time.Second,
}

// httpClient is shared so connections are reused between fetches.
var httpClient = &http.Client{Timeout: HTTPTimeout, Transport: DefaultTransport}

// Open resolves a bucket URL. mem: URLs must belong to this store;
// file:// URLs are opened directly; http:// URLs are fetched with
// bounded retries (transient fetch failures are expected during slave
// churn and must not kill a reduce task immediately). Whole-stream
// compression (a legacy CompressExt suffix or a deflate
// Content-Encoding) is transparently undone; block-framed streams come
// back verbatim — their compression lives inside the framing, which
// kvio.NewAnyReader decodes — so wire-byte counters see the compressed
// size either way and record consumers the decoded size.
func (s *Store) Open(rawURL string) (io.ReadCloser, error) {
	switch {
	case strings.HasPrefix(rawURL, "mem:"):
		rest := strings.TrimPrefix(rawURL, "mem:")
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			return nil, fmt.Errorf("bucket: malformed mem URL %q", rawURL)
		}
		if fmt.Sprintf("%d", s.id) != rest[:slash] {
			return nil, fmt.Errorf("bucket: mem URL %q belongs to another store", rawURL)
		}
		return s.OpenLocal(rest[slash+1:])
	case strings.HasPrefix(rawURL, "file://"):
		path := strings.TrimPrefix(rawURL, "file://")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rc := s.counting(f, obs.MetricWireBytesShared, fileCodecName(path), fileEncodingName(path))
		// ".mrb.fz"/".mrc.fz" end in ".fz" too, but block files carry no
		// outer compression layer — only a bare CompressExt means legacy
		// flate.
		if i, _ := blockExtIndex(path); i < 0 && strings.HasSuffix(path, CompressExt) {
			return &drainReadCloser{r: deflateCodec().NewReader(rc), under: rc}, nil
		}
		return rc, nil
	case strings.HasPrefix(rawURL, "http://"), strings.HasPrefix(rawURL, "https://"):
		return s.openHTTP(rawURL)
	}
	return nil, fmt.Errorf("bucket: unsupported URL %q", rawURL)
}

// FetchRetries is how many times an http bucket fetch is attempted.
const FetchRetries = 5

func (s *Store) openHTTP(rawURL string) (io.ReadCloser, error) {
	client := s.fetchClient()
	var retry *fault.Backoff
	var lastErr error
	for attempt := 1; attempt <= FetchRetries; attempt++ {
		if attempt > 1 {
			// Jitter is seeded from the URL so a given fetch's retry
			// schedule is reproducible while distinct fetches
			// desynchronize (no retry storms hammering a recovering
			// slave in lockstep). Seeding costs a 312-word twister, so
			// only a retry pays it.
			if retry == nil {
				retry = fault.NewBackoff(hash.FNV1a64String(rawURL))
			}
			time.Sleep(retry.Delay(attempt - 1))
		}
		req, err := http.NewRequest(http.MethodGet, rawURL, nil)
		if err != nil {
			return nil, err
		}
		// Advertise every registered block codec so a block-serving peer
		// can send (or cheaply transcode to) the best mutual one, and
		// deflate so a legacy compressing server can send its at-rest
		// bytes verbatim. Servers that know neither header ignore both
		// and serve identity — the mixed-version fallback.
		req.Header.Set(wirecodec.RequestHeader, wirecodec.AcceptHeader())
		// Advertise both block kinds; a peer holding columnar data can
		// then send it verbatim instead of transcoding to row blocks.
		// The rowOnlyFetch hook omits the header to look pre-columnar.
		if !s.rowOnlyFetchOn() {
			req.Header.Set(wirecodec.BlockAcceptHeader, wirecodec.AcceptBlocksHeader())
		}
		req.Header.Set("Accept-Encoding", "deflate")
		resp, err := client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			lastErr = fmt.Errorf("bucket: GET %s: %s", rawURL, resp.Status)
			if resp.StatusCode == http.StatusNotFound {
				// The bucket is gone (slave died and restarted); no
				// point hammering.
				return nil, lastErr
			}
			continue
		}
		// Per-codec accounting: a block response names its codec in
		// CodecHeader; a legacy response is deflate or identity per
		// Content-Encoding.
		codecName := resp.Header.Get(wirecodec.CodecHeader)
		deflated := resp.Header.Get("Content-Encoding") == "deflate"
		if codecName == "" {
			codecName = wirecodec.IdentityName
			if deflated {
				codecName = wirecodec.DeflateName
			}
		}
		encName := resp.Header.Get(wirecodec.BlockEncHeader)
		if encName == "" {
			encName = wirecodec.BlockKindRow
		}
		rc := s.counting(resp.Body, obs.MetricWireBytesDirect, codecName, encName)
		if deflated {
			return &drainReadCloser{r: deflateCodec().NewReader(rc), under: rc}, nil
		}
		return rc, nil
	}
	return nil, lastErr
}

// countingReadCloser adds every byte read to the wire counters: the
// per-path total, the per-codec split, and the per-block-kind split.
type countingReadCloser struct {
	rc io.ReadCloser
	c  *obs.Counter
	c2 *obs.Counter
	c3 *obs.Counter
}

func (c *countingReadCloser) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	if n > 0 {
		c.c.Add(int64(n))
		c.c2.Add(int64(n))
		c.c3.Add(int64(n))
	}
	return n, err
}

func (c *countingReadCloser) Close() error { return c.rc.Close() }

// drainReadCloser decompresses a whole-stream codec layer and closes
// both layers.
type drainReadCloser struct {
	r     io.ReadCloser // the codec layer
	under io.ReadCloser
}

func (f *drainReadCloser) Read(p []byte) (int, error) { return f.r.Read(p) }

func (f *drainReadCloser) Close() error {
	// flate knows the stream ended from the final-block bit without ever
	// observing the underlying reader's EOF, so an HTTP response body
	// would look partially read and the connection would be torn down
	// instead of returned to the keep-alive pool. Drain the (normally
	// zero) remainder so the transport sees EOF and reuses the socket.
	io.CopyN(io.Discard, f.under, 512)
	if f.r != nil {
		f.r.Close() // recycles the codec's pooled state
		f.r = nil
	}
	return f.under.Close()
}

// Fetch reads an entire bucket into memory. Unlike Open, a remote fetch
// that dies mid-stream is retried whole — the caller gets either the
// complete payload or an error, which is what the parallel prefetcher
// needs (a half-delivered bucket cannot be resumed).
//
// The returned slice is freshly allocated and owned by the caller: it is
// never pooled or reused by the store, so callers may retain it
// indefinitely (the resident dataset cache depends on this).
func (s *Store) Fetch(rawURL string) ([]byte, error) {
	remote := strings.HasPrefix(rawURL, "http://") || strings.HasPrefix(rawURL, "https://")
	var retry *fault.Backoff
	var lastErr error
	for attempt := 1; attempt <= FetchRetries; attempt++ {
		if attempt > 1 {
			if retry == nil {
				retry = fault.NewBackoff(hash.FNV1a64String(rawURL) + 2)
			}
			time.Sleep(retry.Delay(attempt - 1))
		}
		rc, err := s.Open(rawURL)
		if err != nil {
			return nil, err // Open already retried transport errors
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err == nil {
			return data, nil
		}
		lastErr = fmt.Errorf("bucket: fetching %s: %w", rawURL, err)
		if !remote {
			return nil, lastErr // local reads don't heal by retrying
		}
	}
	return nil, lastErr
}

// acceptsDeflate reports whether the request allows a deflate response.
func acceptsDeflate(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if enc == "deflate" {
			return true
		}
	}
	return false
}

// ServeBucket writes the bucket file at path (as resolved by ServeName)
// to an HTTP response, negotiating the wire form per at-rest variant:
//
//   - plain legacy file: served verbatim (every client reads it).
//   - legacy flate file: verbatim with Content-Encoding: deflate when
//     the client accepts deflate (zero-CPU wire compression), otherwise
//     decompressed into the response.
//   - block file: verbatim with CodecHeader set when the client's
//     advertised codec list (RequestHeader) includes the at-rest codec;
//     transcoded block-to-block to the best mutual codec otherwise
//     (identity fallback — a client advertising only unknown codecs
//     still gets blocks it can decode); flattened to a legacy record
//     stream for clients that sent no codec advertisement at all,
//     deflate-wrapped when they accept it. Mixed-version fleets always
//     land on a form both sides speak.
func ServeBucket(w http.ResponseWriter, r *http.Request, path string) {
	ar, err := resolveAtRest(path)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	f, err := os.Open(ar.path)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		http.NotFound(w, r)
		return
	}
	serveAtRest(w, r, ar, f, fi.Size())
}

// serveAtRest writes one bucket's at-rest bytes (size bytes from body,
// in form ar) to an HTTP response in the wire form ServeBucket
// describes.
func serveAtRest(w http.ResponseWriter, r *http.Request, ar atRest, body io.Reader, size int64) {
	switch {
	case ar.blockCodec != nil:
		serveBlockBucket(w, r, ar, body, size)
	case !ar.legacyFlate:
		w.Header().Set("Content-Length", fmt.Sprint(size))
		io.Copy(w, body)
	case acceptsDeflate(r):
		w.Header().Set("Content-Encoding", "deflate")
		w.Header().Set("Content-Length", fmt.Sprint(size))
		io.Copy(w, body)
	default:
		fr := deflateCodec().NewReader(body)
		io.Copy(w, fr)
		fr.Close()
	}
}

// serveBlockBucket serves one block-framed bucket, picking the wire
// form the client can decode along both negotiation axes: the codec
// (RequestHeader) and the block kind (BlockAcceptHeader). A columnar
// bucket served to a peer that never advertised block kinds — a
// pre-columnar build — is transcoded down to row blocks, so
// mixed-version fleets keep exchanging data.
func serveBlockBucket(w http.ResponseWriter, r *http.Request, ar atRest, body io.Reader, size int64) {
	accepted := wirecodec.ParseAccept(r.Header.Get(wirecodec.RequestHeader))
	kind := wirecodec.BlockKindRow
	if ar.columnar {
		kind = wirecodec.BlockKindColumnar
	}
	kindOK := wirecodec.AcceptsBlock(r.Header.Get(wirecodec.BlockAcceptHeader), kind)
	switch {
	case kindOK && wirecodec.Accepts(accepted, ar.blockCodec.Name()):
		// Best case: the at-rest bytes are already in a codec and block
		// kind the client decodes — send them verbatim, zero CPU.
		w.Header().Set(wirecodec.CodecHeader, ar.blockCodec.Name())
		w.Header().Set(wirecodec.BlockEncHeader, kind)
		w.Header().Set("Content-Length", fmt.Sprint(size))
		io.Copy(w, body)
	case kindOK && len(accepted) > 0:
		// A block-capable client that can't decode the at-rest codec:
		// transcode block-to-block into the best mutual codec. Columnar
		// frames are recompressed column-wise without re-parsing records.
		// Unknown advertised names fall through to identity inside
		// Negotiate, so this arm is also the forward-compatibility path.
		to := wirecodec.Negotiate(accepted)
		w.Header().Set(wirecodec.CodecHeader, to.Name())
		w.Header().Set(wirecodec.BlockEncHeader, kind)
		kvio.TranscodeBlocks(w, body, to)
	case len(accepted) > 0:
		// Block-capable but row-only client (a pre-columnar build) and a
		// columnar bucket: flatten every frame into row blocks under the
		// best mutual codec — the mixed-version fallback.
		to := wirecodec.Negotiate(accepted)
		w.Header().Set(wirecodec.CodecHeader, to.Name())
		w.Header().Set(wirecodec.BlockEncHeader, wirecodec.BlockKindRow)
		kvio.TranscodeToRowBlocks(w, body, to)
	case acceptsDeflate(r):
		// Pre-block client that speaks the legacy deflate negotiation:
		// flatten blocks to a record stream under Content-Encoding.
		w.Header().Set("Content-Encoding", "deflate")
		cw := deflateCodec().NewWriter(w)
		kvio.TranscodeToRecords(cw, body)
		cw.Close()
	default:
		// Identity legacy client.
		kvio.TranscodeToRecords(w, body)
	}
}

// ReadAll opens a URL and decodes every record. Remote fetches that die
// mid-stream (connection dropped partway through the body) are retried
// whole, since a partial record stream is useless to the caller.
func (s *Store) ReadAll(rawURL string) ([]kvio.Pair, error) {
	remote := strings.HasPrefix(rawURL, "http://") || strings.HasPrefix(rawURL, "https://")
	var retry *fault.Backoff
	var lastErr error
	for attempt := 1; attempt <= FetchRetries; attempt++ {
		if attempt > 1 {
			if retry == nil {
				retry = fault.NewBackoff(hash.FNV1a64String(rawURL) + 1)
			}
			time.Sleep(retry.Delay(attempt - 1))
		}
		rc, err := s.Open(rawURL)
		if err != nil {
			return nil, err // Open already retried transport errors
		}
		// Sniffing reader: the stream may be either framing depending on
		// the producer's codec setting and the server's negotiation.
		r := kvio.NewAnyReader(rc)
		pairs, err := r.ReadAll()
		r.Release()
		rc.Close()
		if err == nil {
			return pairs, nil
		}
		lastErr = fmt.Errorf("bucket: reading %s: %w", rawURL, err)
		if !remote {
			return nil, lastErr // local reads don't heal by retrying
		}
	}
	return nil, lastErr
}

// ReadAllMulti concatenates the records of several buckets in order.
func (s *Store) ReadAllMulti(urls []string) ([]kvio.Pair, error) {
	var out []kvio.Pair
	for _, u := range urls {
		pairs, err := s.ReadAll(u)
		if err != nil {
			return nil, err
		}
		out = append(out, pairs...)
	}
	return out, nil
}
