// Package shuffle implements the sort-and-group stage between map and
// reduce: records are accumulated, sorted by key, optionally combined
// (the "local reduce" optimization from the original MapReduce paper,
// used by both the Mrs and Hadoop WordCount measurements in §V), and
// delivered as (key, values) groups. Buffers that exceed a spill
// threshold are sorted and written to temporary run files, which are
// k-way merged on read — the classic external sort, so a reduce split
// can exceed memory.
//
// Record bytes are stored in a chunked arena: buffering n records costs
// O(n · recordSize / chunkSize) allocations instead of 2n, and a spill
// releases the whole slab at once. When a combiner is configured the
// sorter additionally groups records by key in a hash table as they
// arrive, deferring the comparison sort to the (much smaller) set of
// distinct keys; values within a key keep insertion order, so the
// delivered groups are byte-identical to the sort-everything path.
package shuffle

import (
	"bytes"
	"cmp"
	"container/heap"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"repro/internal/kvio"
)

// CombineFunc merges the values of a single key into (usually fewer)
// values. It must be associative and commutative in the values for the
// final answer to be independent of spill boundaries; this mirrors the
// requirement on MapReduce combiners.
type CombineFunc func(key []byte, values [][]byte) ([][]byte, error)

// Options configures a Sorter.
type Options struct {
	// SpillBytes is the approximate in-memory payload limit before a
	// sorted run is spilled to disk. Zero means never spill.
	SpillBytes int64
	// TempDir is where run files are created. Empty means os.TempDir().
	TempDir string
	// Combine, if non-nil, is applied to each key group as runs are
	// spilled and again during the final merge.
	Combine CombineFunc
}

// Arena chunk sizes. The first chunk is small so a sorter holding a
// dozen records (every PSO reduce) neither allocates nor zeroes a
// large slab; each further chunk doubles, up to a cap large enough that
// chunk allocations are rare against typical record sizes and small
// enough that a mostly-empty final chunk wastes little.
const (
	arenaMinChunk = 4 << 10
	arenaMaxChunk = 256 << 10
)

// arena is a chunked bump allocator for record bytes. Old chunks stay
// alive only while slices returned by copy reference them; reset reuses
// the current chunk for the next fill.
type arena struct {
	buf  []byte // current chunk: len = bytes used, cap = chunk size
	next int    // size of the next chunk (0 = arenaMinChunk)
}

// copy appends b to the arena and returns the arena-owned copy.
func (a *arena) copy(b []byte) []byte {
	if len(b) > cap(a.buf)-len(a.buf) {
		size := max(a.next, arenaMinChunk)
		a.next = min(2*size, arenaMaxChunk)
		if len(b) > size {
			size = len(b) // oversized records get a dedicated chunk
		}
		a.buf = make([]byte, 0, size)
	}
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n:len(a.buf):len(a.buf)]
}

// reset forgets everything allocated, reusing the current chunk. The
// caller must have dropped every slice copy returned since the last
// reset.
func (a *arena) reset() { a.buf = a.buf[:0] }

// hashGroup is one distinct key and its values in insertion order; the
// combiner path accumulates these instead of flat pairs.
type hashGroup struct {
	key    []byte
	values [][]byte
}

// Sorter accumulates pairs and then yields key groups in sorted order.
// Usage: Add*, then Groups (exactly once), then Close.
//
// Two in-memory forms exist: a flat pair buffer that is stably sorted
// on demand (buf) and a hash-grouped form with one entry per distinct
// key (groups). A combiner always uses groups. Without a combiner the
// forms never coexist: columnar input prefers groups (the key column
// makes grouping cheap), and row input arriving afterwards flattens
// the groups back into buf. Both forms deliver byte-identical output —
// per-key value order is insertion order either way, and cross-key
// order is irrelevant because keys are emitted sorted.
type Sorter struct {
	opts    Options
	ar      arena
	buf     []kvio.Pair    // sort path (no combiner)
	groups  []hashGroup    // grouped path: one entry per distinct key
	idx     map[string]int // grouped path: key -> index into groups
	dictIdx []int          // AddColumnar scratch: dict entry -> group index
	bufSize int64
	runs    []string // spilled run file paths
	closed  bool

	// stats
	added   int64
	spills  int
	spilled int64
}

// NewSorter returns an empty Sorter.
func NewSorter(opts Options) *Sorter {
	return &Sorter{opts: opts}
}

// Add buffers one record, spilling if the memory threshold is crossed.
// The pair's bytes are copied into the sorter's arena, so the caller
// may reuse the slices immediately (e.g. from kvio.Reader.ReadShared).
func (s *Sorter) Add(p kvio.Pair) error {
	if s.closed {
		return fmt.Errorf("shuffle: Add after Close")
	}
	if s.opts.Combine != nil {
		s.addHash(p, false)
	} else {
		s.flattenGroups()
		s.buf = append(s.buf, kvio.Pair{Key: s.ar.copy(p.Key), Value: s.ar.copy(p.Value)})
		s.bufSize += int64(len(p.Key) + len(p.Value))
	}
	s.added++
	return s.maybeSpill()
}

// AddBlock adopts a decoded record block whose ownership has been
// transferred to the sorter (kvio.BlockReader.NextBlock's contract) and
// buffers every record in it by aliasing into the block buffer — the
// zero-copy handoff from the block data plane: one decode, no
// per-record arena copies. The block is retained until the next spill
// or Close drops the references. recs is the block header's record
// count and is verified against the scan; pass -1 to skip the check.
// Returns the summed key+value payload bytes the block contributed,
// which is what callers charge to their raw-byte input accounting.
func (s *Sorter) AddBlock(block []byte, recs int) (int64, error) {
	if s.closed {
		return 0, fmt.Errorf("shuffle: AddBlock after Close")
	}
	if s.opts.Combine == nil {
		s.flattenGroups()
	}
	var payload int64
	n, err := kvio.ScanRecords(block, func(key, value []byte) error {
		payload += int64(len(key) + len(value))
		p := kvio.Pair{Key: key, Value: value}
		if s.opts.Combine != nil {
			s.addHash(p, true)
		} else {
			s.buf = append(s.buf, p)
			s.bufSize += int64(len(key) + len(value))
		}
		s.added++
		return nil
	})
	if err != nil {
		return payload, err
	}
	if recs >= 0 && n != recs {
		return payload, fmt.Errorf("shuffle: block scanned %d records, header said %d", n, recs)
	}
	return payload, s.maybeSpill()
}

// AddColumnar adopts a decoded columnar block (ownership transferred by
// kvio.BlockReader.NextAny) and buffers every record by aliasing the
// block's column buffers: sorting and grouping work runs against the
// key column, and value bytes are never copied or compared. It prefers
// the hash-grouped form even without a combiner — one group per
// distinct key is exactly what repetitive shuffle keys collapse to.
// Dictionary-encoded blocks take a fast path: each dict entry resolves
// to its group once per block, after which every record costs an index
// lookup and an append, with no per-record hashing or key comparisons.
// Returns the summed key+value payload bytes the block contributed.
func (s *Sorter) AddColumnar(cb *kvio.ColumnarBlock) (int64, error) {
	if s.closed {
		return 0, fmt.Errorf("shuffle: AddColumnar after Close")
	}
	n := cb.Len()
	payload := cb.PayloadBytes()
	if s.opts.Combine == nil && len(s.buf) > 0 {
		// Row input got here first; keep the single-form invariant and
		// stay flat.
		for i := 0; i < n; i++ {
			s.buf = append(s.buf, kvio.Pair{Key: cb.Key(i), Value: cb.Value(i)})
		}
		s.bufSize += payload
		s.added += int64(n)
		return payload, s.maybeSpill()
	}
	if dn := cb.DictLen(); dn >= 0 {
		dg := s.dictIdx[:0]
		for j := 0; j < dn; j++ {
			dg = append(dg, s.groupIndex(cb.DictKey(j), true))
		}
		s.dictIdx = dg
		for i := 0; i < n; i++ {
			v := cb.Value(i)
			g := &s.groups[dg[cb.DictIndex(i)]]
			g.values = append(g.values, v)
			s.bufSize += int64(len(v))
		}
	} else {
		for i := 0; i < n; i++ {
			s.addHash(kvio.Pair{Key: cb.Key(i), Value: cb.Value(i)}, true)
		}
	}
	s.added += int64(n)
	return payload, s.maybeSpill()
}

// maybeSpill spills the in-memory buffer when it crosses the threshold.
func (s *Sorter) maybeSpill() error {
	if s.opts.SpillBytes > 0 && s.bufSize >= s.opts.SpillBytes {
		return s.spill()
	}
	return nil
}

// flattenGroups converts the hash-grouped form back into flat pairs so
// row-framed input can share the buffer. Only reachable on mixed
// framing without a combiner. Per-key value order is preserved; the
// extra key references are charged to bufSize the way the flat path
// would have counted them.
func (s *Sorter) flattenGroups() {
	if len(s.groups) == 0 {
		return
	}
	for i := range s.groups {
		g := &s.groups[i]
		for _, v := range g.values {
			s.buf = append(s.buf, kvio.Pair{Key: g.key, Value: v})
		}
		s.bufSize += int64((len(g.values) - 1) * len(g.key))
	}
	clear(s.groups)
	s.groups = s.groups[:0]
	if s.idx != nil {
		clear(s.idx)
	}
}

// groupIndex returns the index of key's hash group, creating an empty
// one on first sight. The map lookup with a string(key) conversion is
// allocation free for existing keys; only the first record of a
// distinct key pays for the map entry. owned means the key bytes
// already belong to the sorter (an adopted block) and need no arena
// copy.
func (s *Sorter) groupIndex(key []byte, owned bool) int {
	if s.idx == nil {
		s.idx = make(map[string]int, 1+len(s.groups))
		for i := range s.groups {
			s.idx[string(s.groups[i].key)] = i
		}
	}
	if i, ok := s.idx[string(key)]; ok {
		return i
	}
	if !owned {
		key = s.ar.copy(key)
	}
	s.groups = append(s.groups, hashGroup{key: key})
	s.idx[string(key)] = len(s.groups) - 1
	s.bufSize += int64(len(key))
	return len(s.groups) - 1
}

// addHash accumulates p into the hash-grouped form. owned means p's
// bytes already belong to the sorter (an adopted block).
func (s *Sorter) addHash(p kvio.Pair, owned bool) {
	i := s.groupIndex(p.Key, owned)
	value := p.Value
	if !owned {
		value = s.ar.copy(value)
	}
	g := &s.groups[i]
	g.values = append(g.values, value)
	s.bufSize += int64(len(value))
}

// AddStream drains a record stream into the sorter. Records are read
// through the reader's shared buffer — Add copies them anyway.
func (s *Sorter) AddStream(r *kvio.Reader) error {
	for {
		p, err := r.ReadShared()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := s.Add(p); err != nil {
			return err
		}
	}
}

// Added returns the number of records added.
func (s *Sorter) Added() int64 { return s.added }

// Spills returns how many run files were written.
func (s *Sorter) Spills() int { return s.spills }

// forEachMemGroup yields the in-memory content as combined key groups
// in ascending key order. It does not disturb the hash index: the
// grouped path sorts an index permutation, not the groups themselves.
func (s *Sorter) forEachMemGroup(fn func(key []byte, values [][]byte) error) error {
	if s.opts.Combine != nil || len(s.groups) > 0 {
		order := make([]int, len(s.groups))
		for i := range order {
			order[i] = i
		}
		// Keys are distinct by construction, so the unstable sort is
		// deterministic.
		sort.Slice(order, func(a, b int) bool {
			return bytes.Compare(s.groups[order[a]].key, s.groups[order[b]].key) < 0
		})
		for _, i := range order {
			g := &s.groups[i]
			vals, err := s.combine(g.key, g.values)
			if err != nil {
				return err
			}
			if err := fn(g.key, vals); err != nil {
				return err
			}
		}
		return nil
	}
	return forEachGroup(s.buf, func(key []byte, values [][]byte) error {
		values, err := s.combine(key, values)
		if err != nil {
			return err
		}
		return fn(key, values)
	})
}

// spill sorts, combines, and writes the current buffer as a run file.
func (s *Sorter) spill() error {
	if len(s.buf) == 0 && len(s.groups) == 0 {
		return nil
	}
	f, err := os.CreateTemp(s.opts.TempDir, "mrs-spill-*.run")
	if err != nil {
		return fmt.Errorf("shuffle: creating spill file: %w", err)
	}
	w := kvio.NewWriter(f)
	err = s.forEachMemGroup(func(key []byte, values [][]byte) error {
		for _, v := range values {
			if werr := w.Write(kvio.Pair{Key: key, Value: v}); werr != nil {
				return werr
			}
		}
		return nil
	})
	if err == nil {
		err = w.Flush()
	}
	w.Release()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	s.runs = append(s.runs, f.Name())
	s.spills++
	s.spilled += s.bufSize
	// Drop every reference into the arena before reusing it.
	clear(s.buf)
	s.buf = s.buf[:0]
	clear(s.groups)
	s.groups = s.groups[:0]
	if s.idx != nil {
		clear(s.idx)
	}
	s.ar.reset()
	s.bufSize = 0
	return nil
}

func (s *Sorter) combine(key []byte, values [][]byte) ([][]byte, error) {
	if s.opts.Combine == nil {
		return values, nil
	}
	return s.opts.Combine(key, values)
}

// Groups yields each key with all of its values, keys in ascending
// order, by calling fn. Returning a non-nil error from fn aborts the
// iteration. The key and value slices are only valid during the call.
func (s *Sorter) Groups(fn func(key []byte, values [][]byte) error) error {
	if s.closed {
		return fmt.Errorf("shuffle: Groups after Close")
	}
	if len(s.runs) == 0 {
		return s.forEachMemGroup(fn)
	}
	// Spill the remainder so everything is in sorted runs, then merge.
	if err := s.spill(); err != nil {
		return err
	}
	return s.mergeRuns(fn)
}

// Close removes any spill files and releases buffers. It is safe to
// call multiple times.
func (s *Sorter) Close() error {
	s.closed = true
	var first error
	for _, path := range s.runs {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	s.runs = nil
	s.buf = nil
	s.groups = nil
	s.idx = nil
	s.ar = arena{}
	return first
}

// forEachGroup walks pairs in ascending key order and invokes fn once
// per distinct key with its values in insertion order — the order a
// stable sort gives, which keeps value order deterministic across
// implementations (the Mrs debugging story: serial == parallel output).
// It sorts an index permutation, ties broken by index, rather than the
// pairs themselves: it swaps 4-byte indices instead of 48-byte pairs
// and, holding no pointers, pays no GC write barriers.
func forEachGroup(pairs []kvio.Pair, fn func(key []byte, values [][]byte) error) error {
	order := make([]int32, len(pairs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := bytes.Compare(pairs[a].Key, pairs[b].Key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	var values [][]byte
	for i := 0; i < len(order); {
		key := pairs[order[i]].Key
		values = values[:0]
		j := i
		for ; j < len(order) && bytes.Equal(pairs[order[j]].Key, key); j++ {
			values = append(values, pairs[order[j]].Value)
		}
		if err := fn(key, values); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// ---------------------------------------------------------------------------
// k-way merge of run files

type runHead struct {
	pair kvio.Pair
	r    *kvio.Reader
	f    *os.File
	seq  int // tie-break: earlier runs first, preserving stability
}

func (rh *runHead) close() {
	rh.r.Release()
	rh.f.Close()
}

type runHeap []*runHead

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].pair.Key, h[j].pair.Key)
	if c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runHead)) }
func (h *runHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h runHeap) top() *runHead { return h[0] }
func (h *runHeap) closeAll() {
	for _, rh := range *h {
		rh.close()
	}
}

func (s *Sorter) mergeRuns(fn func(key []byte, values [][]byte) error) error {
	var h runHeap
	defer h.closeAll()
	for seq, path := range s.runs {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("shuffle: opening run: %w", err)
		}
		rh := &runHead{r: kvio.NewReader(f), f: f, seq: seq}
		p, err := rh.r.Read()
		if err == io.EOF {
			rh.close()
			continue
		}
		if err != nil {
			rh.close()
			return err
		}
		rh.pair = p
		h = append(h, rh)
	}
	heap.Init(&h)

	var (
		curKey  []byte
		haveKey bool // distinguishes "no current group" from the empty key
		values  [][]byte
	)
	flush := func() error {
		if !haveKey {
			return nil
		}
		vals, err := s.combine(curKey, values)
		if err != nil {
			return err
		}
		if err := fn(curKey, vals); err != nil {
			return err
		}
		haveKey = false
		values = values[:0]
		return nil
	}
	for h.Len() > 0 {
		rh := h.top()
		if haveKey && !bytes.Equal(rh.pair.Key, curKey) {
			if err := flush(); err != nil {
				return err
			}
		}
		if !haveKey {
			curKey = append(curKey[:0], rh.pair.Key...)
			haveKey = true
		}
		values = append(values, rh.pair.Value)
		p, err := rh.r.Read()
		if err == io.EOF {
			rh.close()
			heap.Pop(&h) // exhausted runs leave the heap, so closeAll skips them
			continue
		} else if err != nil {
			return err
		} else {
			rh.pair = p
			heap.Fix(&h, 0)
		}
	}
	return flush()
}
