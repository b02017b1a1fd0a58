package kvio

// Columnar block framing: the second block kind carried inside a
// BlockMagic stream. A row block stores its records as one interleaved
// record-framed run; a columnar block splits them into two independent
// column segments — all keys, then all values — each compressed under
// its own codec and protected by its own CRC:
//
//	uvarint colMarker    block-kind sentinel (> MaxBlockLen, see below)
//	uvarint records      record count
//	uvarint keyEnc       key column encoding (KeyEncRaw/Dict/Delta)
//	colSeg  key column   uvarint rawLen | uvarint nameLen|name |
//	                     uvarint payloadLen | crc32 (4 bytes LE)
//	colSeg  value column same shape
//	key payload          keyEnc-encoded keys, codec-compressed
//	value payload        uvarint valueLen|value per record, compressed
//
// The sentinel is MaxBlockLen+1, above every valid row-block record
// count, so the reader recognizes the exact value and switches
// layouts. Both kinds can interleave freely in one stream under the
// same magic.
//
// The key column supports three encodings:
//
//	raw   uvarint keyLen|key per record
//	dict  uvarint dictN | dictN × (uvarint len|bytes) |
//	      records × uvarint index — entries in first-appearance order
//	delta uvarint sharedPrefixLen | uvarint suffixLen | suffix per
//	      record (front coding against the previous key)
//
// dict is the shuffle workhorse: scientific workloads emit few distinct
// keys, and a dict block lets the sorter group records by dictionary
// slot — one key comparison per distinct key per block instead of one
// per record.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/wirecodec"
)

// colMarker is the block-kind sentinel: the first header uvarint of a
// columnar block. It exceeds MaxBlockLen, so it can never be mistaken
// for a row block's record count.
const colMarker = MaxBlockLen + 1

// Key column encodings, as stored in the columnar block header.
const (
	KeyEncAuto  = -1 // writer-side only: pick per block, never stored
	KeyEncRaw   = 0
	KeyEncDict  = 1
	KeyEncDelta = 2
)

// Block encoding names accepted by ParseBlockEncoding and carried in
// per-op overrides and flags.
const (
	EncRow           = "row"
	EncColumnar      = "columnar" // auto key encoding per block
	EncColumnarRaw   = "columnar-raw"
	EncColumnarDict  = "columnar-dict"
	EncColumnarDelta = "columnar-delta"
)

// BlockEncoding selects which block kind a BlockWriter emits and, for
// columnar blocks, how the key column is encoded. The zero value is row
// framing.
type BlockEncoding struct {
	Columnar bool
	KeyEnc   int // KeyEncAuto/Raw/Dict/Delta; meaningful when Columnar
}

// ParseBlockEncoding maps a wire/flag name to a BlockEncoding. The
// empty string and "row" select row framing; "columnar" selects
// columnar blocks with a per-block automatic key encoding; the
// "columnar-raw/-dict/-delta" forms pin the key encoding.
func ParseBlockEncoding(name string) (BlockEncoding, error) {
	switch name {
	case "", EncRow:
		return BlockEncoding{}, nil
	case EncColumnar:
		return BlockEncoding{Columnar: true, KeyEnc: KeyEncAuto}, nil
	case EncColumnarRaw:
		return BlockEncoding{Columnar: true, KeyEnc: KeyEncRaw}, nil
	case EncColumnarDict:
		return BlockEncoding{Columnar: true, KeyEnc: KeyEncDict}, nil
	case EncColumnarDelta:
		return BlockEncoding{Columnar: true, KeyEnc: KeyEncDelta}, nil
	}
	return BlockEncoding{}, fmt.Errorf("kvio: unknown block encoding %q (have %s, %s, %s, %s, %s)",
		name, EncRow, EncColumnar, EncColumnarRaw, EncColumnarDict, EncColumnarDelta)
}

// String renders the encoding in ParseBlockEncoding's vocabulary.
func (e BlockEncoding) String() string {
	if !e.Columnar {
		return EncRow
	}
	switch e.KeyEnc {
	case KeyEncRaw:
		return EncColumnarRaw
	case KeyEncDict:
		return EncColumnarDict
	case KeyEncDelta:
		return EncColumnarDelta
	}
	return EncColumnar
}

// ---------------------------------------------------------------------------
// Decoded columnar blocks

// ColumnarBlock is one decoded columnar block. Keys and values are
// views into buffers owned by the block (ownership transfers to the
// consumer with the block, per BlockReader.NextAny), so the shuffle
// sorter can adopt a block and alias records out of it without copies.
// Value bytes are never parsed beyond their length prefixes: the value
// column is walked once for offsets at decode time and the payload
// bytes themselves move only when a group is emitted or spilled.
type ColumnarBlock struct {
	keyEnc  int
	keys    [][]byte // per-record key views (raw, delta)
	dict    [][]byte // dict: entries in first-appearance order
	idx     []uint32 // dict: per-record entry index
	vals    [][]byte // per-record value views
	payload int64    // summed key+value bytes (no framing)
}

// Len returns the record count.
func (cb *ColumnarBlock) Len() int { return len(cb.vals) }

// KeyEncoding returns the block's key column encoding.
func (cb *ColumnarBlock) KeyEncoding() int { return cb.keyEnc }

// Key returns record i's key (a view into block-owned memory).
func (cb *ColumnarBlock) Key(i int) []byte {
	if cb.dict != nil {
		return cb.dict[cb.idx[i]]
	}
	return cb.keys[i]
}

// Value returns record i's value (a view into block-owned memory).
func (cb *ColumnarBlock) Value(i int) []byte { return cb.vals[i] }

// PayloadBytes returns the summed key+value payload bytes, the figure
// input accounting charges for the block.
func (cb *ColumnarBlock) PayloadBytes() int64 { return cb.payload }

// DictLen returns the dictionary size for a dict-encoded block and -1
// for any other key encoding. A non-negative result enables the
// sorter's group-per-dictionary-slot fast path.
func (cb *ColumnarBlock) DictLen() int {
	if cb.dict == nil {
		return -1
	}
	return len(cb.dict)
}

// DictKey returns dictionary entry j of a dict-encoded block.
func (cb *ColumnarBlock) DictKey(j int) []byte { return cb.dict[j] }

// DictIndex returns record i's dictionary slot in a dict-encoded block.
func (cb *ColumnarBlock) DictIndex(i int) int { return int(cb.idx[i]) }

// AppendRows re-frames the block's records in the interleaved row form
// (uvarint keyLen|key|uvarint valueLen|value) onto dst — the flatten
// path for consumers that take row blocks only.
func (cb *ColumnarBlock) AppendRows(dst []byte) []byte {
	for i := range cb.vals {
		key, value := cb.Key(i), cb.vals[i]
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = append(dst, key...)
		dst = binary.AppendUvarint(dst, uint64(len(value)))
		dst = append(dst, value...)
	}
	return dst
}

// decodeColumnar builds a ColumnarBlock from the decompressed column
// payloads. keyRaw and valRaw ownership transfers to the block; raw and
// dict key views alias keyRaw directly, so only delta encoding copies
// key bytes (front coding must materialize each full key once).
func decodeColumnar(recs, keyEnc int, keyRaw, valRaw []byte) (*ColumnarBlock, error) {
	cb := &ColumnarBlock{keyEnc: keyEnc}

	// Value column: one varint walk to record the views; value bytes are
	// not touched.
	cb.vals = make([][]byte, recs)
	data := valRaw
	for i := range cb.vals {
		vlen, n := binary.Uvarint(data)
		if n <= 0 || vlen > MaxRecordLen || uint64(len(data)-n) < vlen {
			return nil, fmt.Errorf("%w: value column truncated at record %d", ErrBlockCorrupt, i)
		}
		cb.vals[i] = data[n : n+int(vlen)]
		cb.payload += int64(vlen)
		data = data[n+int(vlen):]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d bytes beyond last value", ErrBlockCorrupt, len(data))
	}

	switch keyEnc {
	case KeyEncRaw:
		cb.keys = make([][]byte, recs)
		data = keyRaw
		for i := range cb.keys {
			klen, n := binary.Uvarint(data)
			if n <= 0 || klen > MaxRecordLen || uint64(len(data)-n) < klen {
				return nil, fmt.Errorf("%w: key column truncated at record %d", ErrBlockCorrupt, i)
			}
			cb.keys[i] = data[n : n+int(klen)]
			cb.payload += int64(klen)
			data = data[n+int(klen):]
		}
		if len(data) != 0 {
			return nil, fmt.Errorf("%w: %d bytes beyond last key", ErrBlockCorrupt, len(data))
		}
	case KeyEncDict:
		data = keyRaw
		dictN, n := binary.Uvarint(data)
		if n <= 0 || dictN > uint64(MaxBlockLen) {
			return nil, fmt.Errorf("%w: bad dictionary size", ErrBlockCorrupt)
		}
		data = data[n:]
		cb.dict = make([][]byte, dictN)
		for j := range cb.dict {
			klen, n := binary.Uvarint(data)
			if n <= 0 || klen > MaxRecordLen || uint64(len(data)-n) < klen {
				return nil, fmt.Errorf("%w: dictionary truncated at entry %d", ErrBlockCorrupt, j)
			}
			cb.dict[j] = data[n : n+int(klen)]
			data = data[n+int(klen):]
		}
		cb.idx = make([]uint32, recs)
		for i := range cb.idx {
			ix, n := binary.Uvarint(data)
			if n <= 0 || ix >= dictN {
				return nil, fmt.Errorf("%w: bad dictionary index at record %d", ErrBlockCorrupt, i)
			}
			cb.idx[i] = uint32(ix)
			cb.payload += int64(len(cb.dict[ix]))
			data = data[n:]
		}
		if len(data) != 0 {
			return nil, fmt.Errorf("%w: %d bytes beyond last index", ErrBlockCorrupt, len(data))
		}
	case KeyEncDelta:
		// Front coding can only be decoded forward, and the decoded size
		// is not in the header: size it with a first pass so the key
		// buffer is a single exact allocation (appends mid-decode would
		// strand earlier views in stale arrays).
		total := uint64(0)
		data = keyRaw
		for i := 0; i < recs; i++ {
			shared, n := binary.Uvarint(data)
			if n <= 0 {
				return nil, fmt.Errorf("%w: key column truncated at record %d", ErrBlockCorrupt, i)
			}
			data = data[n:]
			suffix, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < suffix {
				return nil, fmt.Errorf("%w: key column truncated at record %d", ErrBlockCorrupt, i)
			}
			data = data[n+int(suffix):]
			total += shared + suffix
			if shared+suffix > MaxRecordLen || total > uint64(MaxBlockLen) {
				return nil, fmt.Errorf("%w: delta keys decode beyond bounds", ErrBlockCorrupt)
			}
		}
		if len(data) != 0 {
			return nil, fmt.Errorf("%w: %d bytes beyond last key", ErrBlockCorrupt, len(data))
		}
		buf := make([]byte, 0, total)
		cb.keys = make([][]byte, recs)
		var prev []byte
		data = keyRaw
		for i := range cb.keys {
			shared, n := binary.Uvarint(data)
			data = data[n:]
			suffix, n := binary.Uvarint(data)
			data = data[n:]
			if shared > uint64(len(prev)) {
				return nil, fmt.Errorf("%w: delta prefix %d exceeds previous key at record %d", ErrBlockCorrupt, shared, i)
			}
			start := len(buf)
			buf = append(buf, prev[:shared]...)
			buf = append(buf, data[:suffix]...)
			data = data[suffix:]
			prev = buf[start:len(buf):len(buf)]
			cb.keys[i] = prev
			cb.payload += int64(len(prev))
		}
	default:
		return nil, fmt.Errorf("%w: unknown key encoding %d", ErrBlockCorrupt, keyEnc)
	}
	return cb, nil
}

// ---------------------------------------------------------------------------
// Key column encoding (writer side)

// chooseKeyEnc picks the cheapest key encoding for one block's keys:
// dict when the distinct-key count is at most half the records and the
// table pays for itself, delta when front coding saves at least 1/16 of
// the raw column, raw otherwise. Deterministic in the key sequence, so
// re-executed task attempts emit identical bytes.
func chooseKeyEnc(keys [][]byte, seen map[string]uint32) int {
	rawBytes := 0
	for _, k := range keys {
		rawBytes += uvarintLen(uint64(len(k))) + len(k)
	}
	clear(seen)
	dictBytes := 0
	for _, k := range keys {
		if _, ok := seen[string(k)]; !ok {
			seen[string(k)] = uint32(len(seen))
			dictBytes += uvarintLen(uint64(len(k))) + len(k)
		}
	}
	if 2*len(seen) <= len(keys) && dictBytes+len(keys) < rawBytes {
		return KeyEncDict
	}
	deltaBytes := 0
	var prev []byte
	for _, k := range keys {
		shared := commonPrefix(prev, k)
		deltaBytes += uvarintLen(uint64(shared)) + uvarintLen(uint64(len(k)-shared)) + len(k) - shared
		prev = k
	}
	if 16*deltaBytes <= 15*rawBytes {
		return KeyEncDelta
	}
	return KeyEncRaw
}

// encodeKeyColumn appends the keyEnc encoding of keys to dst. seen is
// the writer's reusable dictionary scratch (dict encoding only).
func encodeKeyColumn(dst []byte, keyEnc int, keys [][]byte, seen map[string]uint32) []byte {
	switch keyEnc {
	case KeyEncDict:
		clear(seen)
		order := make([][]byte, 0, 16)
		for _, k := range keys {
			if _, ok := seen[string(k)]; !ok {
				seen[string(k)] = uint32(len(seen))
				order = append(order, k)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(order)))
		for _, k := range order {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(seen[string(k)]))
		}
	case KeyEncDelta:
		var prev []byte
		for _, k := range keys {
			shared := commonPrefix(prev, k)
			dst = binary.AppendUvarint(dst, uint64(shared))
			dst = binary.AppendUvarint(dst, uint64(len(k)-shared))
			dst = append(dst, k[shared:]...)
			prev = k
		}
	default: // KeyEncRaw
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
	}
	return dst
}

// commonPrefix returns the length of the longest common prefix of a
// and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ---------------------------------------------------------------------------
// Columnar emit (BlockWriter)

// emitColumnar writes one columnar block from a pending record-framed
// record run: the run is split into a key list and a value column, the
// key column is encoded per the writer's (or the per-block automatic)
// key encoding, and each column is compressed and checksummed
// independently.
func (w *BlockWriter) emitColumnar(raw []byte, recs int) error {
	if err := w.writeMagic(); err != nil {
		return err
	}
	if recs == 0 {
		return nil
	}
	keys := w.colKeys[:0]
	val := w.colVal[:0]
	for data := raw; len(data) > 0; {
		key, value, used, err := scanOne(data)
		if err != nil {
			return err
		}
		keys = append(keys, key)
		val = binary.AppendUvarint(val, uint64(len(value)))
		val = append(val, value...)
		data = data[used:]
	}
	w.colKeys, w.colVal = keys, val
	if w.colSeen == nil {
		w.colSeen = make(map[string]uint32)
	}
	keyEnc := w.enc.KeyEnc
	if keyEnc == KeyEncAuto {
		keyEnc = chooseKeyEnc(keys, w.colSeen)
	}
	w.colKey = encodeKeyColumn(w.colKey[:0], keyEnc, keys, w.colSeen)
	return w.emitColumns(recs, keyEnc, w.colKey, val)
}

// compressColumn returns the stored form of one raw column under the
// writer's codec, falling back to identity when compression does not
// shrink it — each column carries its own codec name, so the choice is
// per column per block.
func (w *BlockWriter) compressColumn(raw []byte, scratch *bytes.Buffer) ([]byte, string, error) {
	name := w.codec.Name()
	if name == wirecodec.IdentityName {
		return raw, wirecodec.IdentityName, nil
	}
	scratch.Reset()
	cw := w.codec.NewWriter(scratch)
	if _, err := cw.Write(raw); err != nil {
		cw.Close()
		return nil, "", err
	}
	if err := cw.Close(); err != nil {
		return nil, "", err
	}
	if scratch.Len() >= len(raw) {
		return raw, wirecodec.IdentityName, nil
	}
	return scratch.Bytes(), name, nil
}

// emitColumns writes one columnar block from already-encoded raw
// columns; the shared tail of emitColumnar and WriteColumnarRaw.
func (w *BlockWriter) emitColumns(recs, keyEnc int, keyCol, valCol []byte) error {
	if err := w.writeMagic(); err != nil {
		return err
	}
	if recs == 0 {
		return nil
	}
	keyPayload, keyName, err := w.compressColumn(keyCol, &w.comp)
	if err != nil {
		return err
	}
	valPayload, valName, err := w.compressColumn(valCol, &w.compCol)
	if err != nil {
		return err
	}
	var hdr [9*binary.MaxVarintLen64 + 2*64 + 8]byte
	n := binary.PutUvarint(hdr[:], uint64(colMarker))
	n += binary.PutUvarint(hdr[n:], uint64(recs))
	n += binary.PutUvarint(hdr[n:], uint64(keyEnc))
	seg := func(rawLen int, name string, payload []byte) {
		n += binary.PutUvarint(hdr[n:], uint64(rawLen))
		n += binary.PutUvarint(hdr[n:], uint64(len(name)))
		n += copy(hdr[n:], name)
		n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
		binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(payload))
		n += 4
	}
	seg(len(keyCol), keyName, keyPayload)
	seg(len(valCol), valName, valPayload)
	if _, err := w.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(keyPayload); err != nil {
		return err
	}
	if _, err := w.w.Write(valPayload); err != nil {
		return err
	}
	w.colBlocks++
	return nil
}

// WriteColumnarRaw emits one columnar block from its raw (decompressed
// but still key-encoded) column bytes, flushing pending per-record
// writes first. This is the columnar transcoding path: re-compressing a
// block under a different codec moves whole columns and never re-parses
// records or re-derives the key encoding.
func (w *BlockWriter) WriteColumnarRaw(recs, keyEnc int, keyCol, valCol []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.err = w.emitBlock(); w.err != nil {
		return w.err
	}
	if w.err = w.emitColumns(recs, keyEnc, keyCol, valCol); w.err != nil {
		return w.err
	}
	w.n += int64(recs)
	w.bytes += int64(len(keyCol) + len(valCol)) // includes column framing; close enough for accounting
	return nil
}

// ColumnarBlocks returns how many columnar blocks the writer emitted,
// feeding the mrs_shuffle_blocks_columnar_total counter.
func (w *BlockWriter) ColumnarBlocks() int64 { return w.colBlocks }
