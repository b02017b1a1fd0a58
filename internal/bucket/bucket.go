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
//
// Every bucket, in every store, is a kvio block stream: identity-codec
// row blocks unless a codec or block encoding is set. A bucket file's
// name ends in its at-rest form — BlockExt or ColExt followed by the
// codec's extension — so the data server knows the codec without
// opening the file.
package bucket

import (
	"bytes"
	"fmt"
	"io"
	"math"
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

// BlockExt marks a bucket file of row blocks. The full at-rest suffix
// is BlockExt plus the block codec's extension — ".mrb" (identity
// blocks), ".mrb.fz" (deflate blocks), ".mrb.lz" — so the data server
// can serve the file verbatim to a client that accepts its codec.
const BlockExt = ".mrb"

// ColExt marks a bucket file of columnar blocks (kvio's second block
// kind: key and value columns with per-column codecs). It composes with
// the codec extension like BlockExt: ".mrc", ".mrc.fz", ".mrc.lz".
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

	mu         sync.Mutex
	mem        map[string][]byte     // block streams of mem buckets
	held       map[string]heldBucket // serving store: small buckets by flat name
	heldBytes  int64                 // sum of held payload sizes
	memCap     int64                 // bound on heldBytes (MemStoreCap)
	spilled    bool                  // a serving-store bucket was ever written to disk
	client     *http.Client          // overrides the shared fetch client (fault injection)
	compress   bool                  // deflate new buckets' blocks when no codec is set
	codec      wirecodec.Codec       // block codec of new buckets (nil = identity, or deflate under compress)
	blockEnc   kvio.BlockEncoding    // block kind + key encoding of new buckets
	blockSize  int                   // target uncompressed bytes per block (0 = kvio default)
	metrics    *obs.Metrics          // wire-byte counters (nil-safe)
	memBytes   *obs.Counter          // held-bytes gauge (nil-safe)
	memBuckets *obs.Counter          // held-buckets gauge (nil-safe)
	spills     *obs.Counter          // serving-store buckets written to disk
}

// heldBucket is a published bucket kept in a serving store's memory:
// the exact bytes its file would hold, and the at-rest form (codec and
// block kind) that file's suffix would name.
type heldBucket struct {
	data []byte
	form atRest
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

// SetCompress makes new buckets deflate their blocks when no codec is
// set; a codec named by SetCodec or a per-bucket pin wins. Readers
// decode every codec regardless of this setting.
func (s *Store) SetCompress(on bool) {
	s.mu.Lock()
	s.compress = on
	s.mu.Unlock()
}

// SetCodec sets the registered codec ("identity", "deflate", "lz") new
// buckets compress their blocks with. An empty name restores the
// default: identity, or deflate under SetCompress.
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

// SetBlockEncoding sets the block encoding of new buckets: "row" (the
// default), "columnar" (per-block automatic key encoding), or a pinned
// "columnar-raw"/"columnar-dict"/"columnar-delta".
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

// SetBlockSize sets the target uncompressed payload per block of new
// buckets; 0 restores the kvio default.
func (s *Store) SetBlockSize(n int) {
	s.mu.Lock()
	s.blockSize = n
	s.mu.Unlock()
}

// writeSettings returns the block codec, encoding and size new buckets
// are written with.
func (s *Store) writeSettings() (wirecodec.Codec, kvio.BlockEncoding, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.codec
	if c == nil {
		c = wirecodec.Identity()
		if s.compress {
			c, _ = wirecodec.Lookup(wirecodec.DeflateName)
		}
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

// Writer accumulates one bucket's records.
type Writer struct {
	store *Store
	name  string
	// The block stream goes to out, which either holds it in memory or
	// writes a temp file that Close renames to form.path, so a bucket is
	// only ever observed complete. Duplicate task attempts (reassignment
	// races, lease requeues) then cannot expose a half-written bucket to
	// a concurrent reader — the last Close wins and both attempts
	// produced identical content.
	out    spillWriter
	form   atRest
	bw     *kvio.BlockWriter
	closed bool
}

// spillWriter is the byte sink under a bucket's encoder. It holds the
// stream in buf until it would outgrow limit; the write that crosses
// the limit creates the temp file, writes the held prefix, and from
// then on streams to the file. A file store's writers have limit 0 and
// their file from Create on; a mem store's never reach their limit.
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
// components are sanitized into a flat, safe file name, published with
// the at-rest suffix of the bucket's block kind and codec. Record
// counts and payload bytes in the descriptor are always
// pre-compression.
func (s *Store) Create(name string) (*Writer, error) {
	return s.CreateOpts(name, CreateOpts{})
}

// CreateOpts is Create with per-bucket data-plane overrides.
func (s *Store) CreateOpts(name string, opts CreateOpts) (*Writer, error) {
	if name == "" {
		return nil, fmt.Errorf("bucket: empty bucket name")
	}
	c, enc, blockSize := s.writeSettings()
	if opts.BlockEncoding != "" {
		var err error
		if enc, err = kvio.ParseBlockEncoding(opts.BlockEncoding); err != nil {
			return nil, fmt.Errorf("bucket: %w", err)
		}
	}
	if opts.Codec != "" {
		oc, ok := wirecodec.Lookup(opts.Codec)
		if !ok {
			return nil, fmt.Errorf("bucket: unknown codec %q (have %s)", opts.Codec, strings.Join(wirecodec.Names(), ", "))
		}
		c = oc
	}
	w := &Writer{store: s, name: name, form: atRest{codec: c, columnar: enc.Columnar}}
	if s.dir == "" {
		w.out.limit = math.MaxInt
	} else {
		flat := flatten(name)
		w.form.path = filepath.Join(s.dir, flat) + w.form.suffix()
		w.out = spillWriter{dir: s.dir, pattern: "." + flat + ".tmp-*"}
		if s.held != nil {
			w.out.limit = MemBucketBytes
		} else if err := w.out.spill(); err != nil {
			return nil, fmt.Errorf("bucket: creating %s: %w", w.form.path, err)
		}
	}
	w.bw = kvio.NewBlockWriterEnc(&w.out, c, blockSize, enc)
	return w, nil
}

// Write appends one record to the bucket.
func (w *Writer) Write(p kvio.Pair) error {
	if w.closed {
		return fmt.Errorf("bucket: write after close")
	}
	return w.bw.Write(p)
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
	d := Descriptor{Name: w.name, Records: w.bw.Count(), Bytes: w.bw.Bytes()}
	err := w.bw.Close()
	if n := w.bw.ColumnarBlocks(); n > 0 {
		w.store.wireCounter(obs.MetricBlocksColumnar).Add(n)
	}
	if err != nil {
		w.out.abort()
		return Descriptor{}, err
	}
	s := w.store
	if s.dir == "" {
		s.mu.Lock()
		s.mem[w.name] = w.out.buf
		s.mu.Unlock()
		d.URL = fmt.Sprintf("mem:%d/%s", s.id, w.name)
		return d, nil
	}
	if err := s.publish(w); err != nil {
		return Descriptor{}, err
	}
	if s.baseURL != "" {
		// http URLs never carry the at-rest suffix: the data server
		// resolves the at-rest form and negotiates the wire codec.
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
	// encoding it was written with; remove every variant.
	var err error
	for _, form := range atRestForms(filepath.Join(s.dir, flat)) {
		if ferr := os.Remove(form.path); ferr != nil && !os.IsNotExist(ferr) {
			err = ferr
		}
	}
	return err
}

// RemoveJob deletes every local bucket in one job's namespace (names
// prefixed "j<job>/", stored flattened as "j<job>_"), in any
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

// atRest describes one at-rest bucket file: its path, the codec its
// blocks are compressed with, and its block kind.
type atRest struct {
	path     string
	codec    wirecodec.Codec
	columnar bool // columnar blocks (ColExt), else row blocks (BlockExt)
}

// suffix is the file-name suffix naming the form.
func (a atRest) suffix() string {
	if a.columnar {
		return ColExt + a.codec.Ext()
	}
	return BlockExt + a.codec.Ext()
}

// kind is the block kind's wire name.
func (a atRest) kind() string {
	if a.columnar {
		return wirecodec.BlockKindColumnar
	}
	return wirecodec.BlockKindRow
}

// atRestForms lists the path of every at-rest form a bucket whose
// suffix-less path is path can take: row and columnar blocks under
// each registered codec.
func atRestForms(path string) []atRest {
	names := wirecodec.Names()
	out := make([]atRest, 0, 2*len(names))
	for _, name := range names {
		c, _ := wirecodec.Lookup(name)
		for _, columnar := range []bool{false, true} {
			form := atRest{codec: c, columnar: columnar}
			form.path = path + form.suffix()
			out = append(out, form)
		}
	}
	return out
}

// parseAtRest classifies a bucket file by the suffix of its base name,
// reporting false for a name that carries no at-rest suffix. Only the
// base name counts: a directory named like "run.mrc.d" says nothing
// about the files under it.
func parseAtRest(path string) (atRest, bool) {
	base := filepath.Base(path)
	for _, form := range atRestForms("") {
		if strings.HasSuffix(base, form.suffix()) {
			form.path = path
			return form, true
		}
	}
	return atRest{}, false
}

// resolveAtRest finds the bucket file for path: path itself when its
// name already carries an at-rest suffix (a file:// URL's path), else
// whichever at-rest form of the suffix-less path exists.
func resolveAtRest(path string) (atRest, error) {
	if form, ok := parseAtRest(path); ok && statOK(path) {
		return form, nil
	}
	for _, form := range atRestForms(path) {
		if statOK(form.path) {
			return form, nil
		}
	}
	return atRest{}, fmt.Errorf("bucket: %s: %w", path, os.ErrNotExist)
}

func statOK(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// OpenLocal returns a bucket created by this store as the block stream
// it was written as; decode it with kvio.NewBlockReader.
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
		return io.NopCloser(bytes.NewReader(hb.data)), nil
	}
	ar, err := resolveAtRest(filepath.Join(s.dir, flat))
	if err != nil {
		return nil, err
	}
	return os.Open(ar.path)
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
// ServeBucket's codec negotiation either way.
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

// flattener maps a hierarchical bucket name to a safe flat file name.
var flattener = strings.NewReplacer("/", "_", "\\", "_", "..", "_", ":", "_")

// flatten converts a hierarchical bucket name into a safe flat file name.
func flatten(name string) string { return flattener.Replace(name) }

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
// churn and must not kill a reduce task immediately). The stream comes
// back verbatim — its compression lives inside the block framing, which
// kvio.NewBlockReader decodes — so wire-byte counters see the
// compressed size and record consumers the decoded size.
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
		// A name with no at-rest suffix (a line-format input file) counts
		// as identity row bytes.
		form, ok := parseAtRest(path)
		if !ok {
			form.codec = wirecodec.Identity()
		}
		return s.counting(f, obs.MetricWireBytesShared, form.codec.Name(), form.kind()), nil
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
		// Advertise every registered codec so the server can send its
		// at-rest bytes verbatim, or transcode to the best mutual codec.
		req.Header.Set(wirecodec.RequestHeader, wirecodec.AcceptHeader())
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
		// Per-codec and per-block-kind accounting from the headers the
		// data server names them in.
		codecName := resp.Header.Get(wirecodec.CodecHeader)
		if codecName == "" {
			codecName = wirecodec.IdentityName
		}
		encName := resp.Header.Get(wirecodec.BlockEncHeader)
		if encName == "" {
			encName = wirecodec.BlockKindRow
		}
		return s.counting(resp.Body, obs.MetricWireBytesDirect, codecName, encName), nil
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

// ServeBucket writes the bucket file at path (as resolved by ServeName,
// with or without its at-rest suffix) to an HTTP response. The client
// advertises the codecs it decodes in RequestHeader; the at-rest bytes
// go out verbatim when it accepts their codec (or they are identity,
// which every client decodes), otherwise transcoded block-to-block to
// the best mutual codec. CodecHeader and BlockEncHeader name what was
// sent. A bucket that cannot be read, or whose blocks fail to decode
// for a transcode, is answered 404, like a lost one.
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
// in form ar) to an HTTP response as ServeBucket describes.
func serveAtRest(w http.ResponseWriter, r *http.Request, ar atRest, body io.Reader, size int64) {
	accepted := wirecodec.ParseAccept(r.Header.Get(wirecodec.RequestHeader))
	to := ar.codec
	if !wirecodec.Accepts(accepted, to.Name()) {
		to = wirecodec.Negotiate(accepted) // identity when nothing is mutual
	}
	if to.Name() != ar.codec.Name() {
		// Transcode in memory, so a block that fails to decode turns
		// into an error answer instead of a truncated 200. Columnar
		// frames are recompressed column-wise without re-parsing
		// records. Fleet peers advertise every codec and never get here.
		var buf bytes.Buffer
		if err := kvio.TranscodeBlocks(&buf, body, to); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		body, size = &buf, int64(buf.Len())
	}
	w.Header().Set(wirecodec.CodecHeader, to.Name())
	w.Header().Set(wirecodec.BlockEncHeader, ar.kind())
	w.Header().Set("Content-Length", fmt.Sprint(size))
	io.Copy(w, body)
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
		r, err := kvio.NewBlockReader(rc)
		var pairs []kvio.Pair
		if err == nil {
			pairs, err = r.ReadAll()
			r.Release()
		}
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
