package kvio

// Block framing: the format of every bucket. A block stream is
//
//	magic | block*
//
// where each block is
//
//	uvarint records      record count (0 allowed)
//	uvarint rawLen       uncompressed payload bytes
//	uvarint nameLen|name compression codec wire name (internal/wirecodec)
//	uvarint payloadLen   stored payload bytes
//	crc32   (4 bytes LE) IEEE CRC of the stored payload
//	payload              codec-compressed record run
//
// and the payload decompresses to `records` records in the per-record
// framing of kvio.go (uvarint keyLen|key|uvarint valueLen|value). This
// is the row block kind; the same stream can also carry columnar blocks
// (colblock.go), discriminated per block by a sentinel first uvarint,
// which store keys and values as independently compressed and
// checksummed column segments.
// Compression and integrity checking run once per ~BlockSize bytes
// instead of once per record, the header makes every block
// self-describing (a reader needs no out-of-band codec agreement), and
// a decoded block can be handed to the shuffle sorter as one arena slab
// (Sorter.AddBlock) without copying record bytes again.
//
// The magic's first five bytes decode as a uvarint key length far
// above MaxRecordLen, so a per-record Reader handed a block stream by
// mistake fails with ErrBlockStream instead of misparsing it.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/wirecodec"
)

// BlockMagic prefixes every block-framed stream.
var BlockMagic = [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x1F, 0x01}

// DefaultBlockSize is the target uncompressed payload per block.
// 64 KiB amortizes codec and CRC setup over many records while keeping
// the decode working set inside L2.
const DefaultBlockSize = 64 << 10

// MaxBlockLen bounds a single block's raw and stored payload,
// protecting readers from corrupted or adversarial headers.
const MaxBlockLen = 1 << 27

// Block-framing errors. ErrBlockChecksum means the stored payload did
// not match its header CRC; ErrBlockCorrupt covers every other
// malformed stream: a bad header or payload, a missing magic, or a
// stream that ends mid-block (errTorn, which is also an
// io.ErrUnexpectedEOF).
var (
	ErrBlockChecksum = errors.New("kvio: block checksum mismatch")
	ErrBlockCorrupt  = errors.New("kvio: corrupt block")
	errTorn          = fmt.Errorf("%w: stream ends mid-block (%w)", ErrBlockCorrupt, io.ErrUnexpectedEOF)
)

// ---------------------------------------------------------------------------
// BlockWriter

// BlockWriter serializes pairs into a block-framed stream. Records
// accumulate uncompressed until the target block size is reached, then
// the whole run is compressed, checksummed, and emitted as one block.
// Close (or Flush) emits the final partial block.
type BlockWriter struct {
	w         io.Writer
	codec     wirecodec.Codec
	blockSize int
	enc       BlockEncoding // block kind emitted by Write (row or columnar)

	raw     []byte  // pending records in per-record framing
	pending *[]byte // pool handle raw came from, returned by Close
	recs    int     // records pending in raw
	comp    bytes.Buffer
	wrote   bool // magic emitted

	// columnar emit scratch (colblock.go)
	colKeys   [][]byte
	colVal    []byte
	colKey    []byte
	colSeen   map[string]uint32
	compCol   bytes.Buffer
	colBlocks int64

	n     int64 // records written (total)
	bytes int64 // payload bytes written (keys+values, no framing)
	err   error
}

// pendingPool recycles BlockWriter pending-record buffers. A writer is
// made per bucket, and a fresh blockSize-sized buffer each time would be
// by far the largest allocation a small bucket costs. Buffers grown past
// maxPooledPending by an outsized record are left to the GC.
var pendingPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledPending = 4 << 20

// NewBlockWriter returns a BlockWriter on w compressing each block with
// codec (nil = identity). blockSize <= 0 selects DefaultBlockSize.
func NewBlockWriter(w io.Writer, codec wirecodec.Codec, blockSize int) *BlockWriter {
	return NewBlockWriterEnc(w, codec, blockSize, BlockEncoding{})
}

// NewBlockWriterEnc is NewBlockWriter with an explicit block encoding:
// the zero BlockEncoding emits row blocks, a Columnar encoding emits
// columnar blocks (colblock.go) from the same Write/Flush surface.
func NewBlockWriterEnc(w io.Writer, codec wirecodec.Codec, blockSize int, enc BlockEncoding) *BlockWriter {
	if codec == nil {
		codec = wirecodec.Identity()
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	pending := pendingPool.Get().(*[]byte)
	if cap(*pending) < blockSize+1024 {
		*pending = make([]byte, 0, blockSize+1024)
	}
	return &BlockWriter{w: w, codec: codec, blockSize: blockSize, enc: enc, raw: (*pending)[:0], pending: pending}
}

// Write appends one record to the pending block, emitting a block when
// the target size is reached.
func (w *BlockWriter) Write(p Pair) error {
	if w.err != nil {
		return w.err
	}
	w.raw = binary.AppendUvarint(w.raw, uint64(len(p.Key)))
	w.raw = append(w.raw, p.Key...)
	w.raw = binary.AppendUvarint(w.raw, uint64(len(p.Value)))
	w.raw = append(w.raw, p.Value...)
	w.recs++
	w.n++
	w.bytes += int64(len(p.Key) + len(p.Value))
	if len(w.raw) >= w.blockSize {
		w.err = w.emitBlock()
	}
	return w.err
}

// writeMagic emits the stream prefix once.
func (w *BlockWriter) writeMagic() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	_, err := w.w.Write(BlockMagic[:])
	return err
}

// emit compresses, checksums, and writes one block of raw record
// bytes, in the writer's configured block kind.
func (w *BlockWriter) emit(raw []byte, recs int) error {
	if w.enc.Columnar {
		return w.emitColumnar(raw, recs)
	}
	if recs == 0 {
		return w.writeMagic()
	}
	name := w.codec.Name()
	payload := raw
	if name != wirecodec.IdentityName {
		w.comp.Reset()
		cw := w.codec.NewWriter(&w.comp)
		if _, err := cw.Write(raw); err != nil {
			cw.Close()
			return err
		}
		if err := cw.Close(); err != nil {
			return err
		}
		payload = w.comp.Bytes()
	}
	var hdr [len(BlockMagic) + 4*binary.MaxVarintLen64 + 64]byte
	n := 0
	if !w.wrote {
		// The first block carries the stream magic in its header write.
		n = copy(hdr[:], BlockMagic[:])
		w.wrote = true
	}
	n += binary.PutUvarint(hdr[n:], uint64(recs))
	n += binary.PutUvarint(hdr[n:], uint64(len(raw)))
	n += binary.PutUvarint(hdr[n:], uint64(len(name)))
	n += copy(hdr[n:], name)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(payload))
	n += 4
	if _, err := w.w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// emitBlock writes the pending records as one block.
func (w *BlockWriter) emitBlock() error {
	err := w.emit(w.raw, w.recs)
	w.raw = w.raw[:0]
	w.recs = 0
	return err
}

// WriteBlock emits a pre-framed record run (records in per-record framing,
// e.g. a payload handed over by BlockReader.NextBlock) as one block,
// flushing any pending per-record writes first so order is preserved.
// This is the transcoding path: a server re-encoding an at-rest block
// file under a different codec never parses individual records.
func (w *BlockWriter) WriteBlock(payload []byte, recs int) error {
	if w.err != nil {
		return w.err
	}
	if w.err = w.emitBlock(); w.err != nil {
		return w.err
	}
	if w.err = w.emit(payload, recs); w.err != nil {
		return w.err
	}
	w.n += int64(recs)
	w.bytes += int64(len(payload)) // includes record framing; close enough for accounting
	return nil
}

// Flush emits the pending partial block (and the stream magic, so even
// an empty stream is well-formed block framing).
func (w *BlockWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.emitBlock()
	return w.err
}

// Close flushes and recycles the pending buffer; the writer must not
// be used afterwards.
func (w *BlockWriter) Close() error {
	err := w.Flush()
	if w.pending != nil {
		if cap(w.raw) <= maxPooledPending {
			*w.pending = w.raw[:0]
			pendingPool.Put(w.pending)
		}
		w.raw, w.pending = nil, nil
	}
	if w.err == nil {
		w.err = ErrReleased
	}
	return err
}

// Count returns the number of records written so far.
func (w *BlockWriter) Count() int64 { return w.n }

// Bytes returns the payload bytes written so far (pre-compression).
func (w *BlockWriter) Bytes() int64 { return w.bytes }

// ---------------------------------------------------------------------------
// BlockReader

// BlockReader parses a block-framed stream. It verifies each block's
// CRC before decompressing, resolves the block's codec from the
// wirecodec registry, and serves records either one at a time (Read /
// ReadShared) or a whole decoded block at once (NextBlock, the
// zero-copy path into the shuffle sorter).
type BlockReader struct {
	br       *bufio.Reader // from the shared pool
	block    []byte
	off      int
	recsLeft int
	payload  []byte // compressed-payload scratch
	n        int64
	rawBytes int64
	err      error
}

// NewBlockReader returns a BlockReader on r, consuming and verifying
// the stream magic.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	got, err := br.Peek(len(BlockMagic))
	if err != nil || !bytes.Equal(got, BlockMagic[:]) {
		br.Reset(nil)
		readerPool.Put(br)
		if err != nil && err != io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("%w: missing block magic", ErrBlockCorrupt)
	}
	br.Discard(len(BlockMagic))
	return &BlockReader{br: br}, nil
}

// Release returns pooled state. Safe to call more than once.
func (r *BlockReader) Release() {
	if r.br != nil {
		r.br.Reset(nil)
		readerPool.Put(r.br)
	}
	r.br = nil
	r.block = nil
	r.payload = nil
	if r.err == nil {
		r.err = ErrReleased
	}
}

// Count returns the number of records read so far.
func (r *BlockReader) Count() int64 { return r.n }

// RawBytes returns the decoded (pre-compression) payload bytes
// consumed so far, including blocks handed off via NextBlock.
func (r *BlockReader) RawBytes() int64 { return r.rawBytes }

// colSegHdr is one column segment's header within a columnar block.
type colSegHdr struct {
	rawLen     int
	codec      wirecodec.Codec
	payloadLen int
	crc        uint32
}

// blockHdr is one parsed block header of either kind. A row block uses
// seg alone (its single payload); a columnar block uses key and val.
type blockHdr struct {
	columnar bool
	recs     int
	keyEnc   int
	seg      colSegHdr // row payload
	key, val colSegHdr // columnar columns
}

// rawColumns is a columnar block's decompressed-but-still-key-encoded
// column bytes, the unit the column transcoding path moves.
type rawColumns struct {
	keyEnc   int
	key, val []byte
}

// uvarint reads one header uvarint. It returns io.EOF only when the
// stream ends before its first byte; a stream that ends inside it is
// torn, and one running past 64 bits is corrupt.
func (r *BlockReader) uvarint() (uint64, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = errTorn
			}
			return 0, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: header uvarint overflows 64 bits", ErrBlockCorrupt)
}

// u reads one bounds-checked uvarint inside a block header, where the
// stream must not end.
func (r *BlockReader) u() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, noEOF(err)
	}
	if v > MaxBlockLen {
		return 0, fmt.Errorf("%w: length %d exceeds MaxBlockLen", ErrBlockCorrupt, v)
	}
	return int(v), nil
}

// readSeg parses one column-segment header (rawLen, codec, payloadLen,
// CRC) — also the shape of a row block header after its record count.
func (r *BlockReader) readSeg() (s colSegHdr, err error) {
	if s.rawLen, err = r.u(); err != nil {
		return
	}
	nameLen, err := r.u()
	if err != nil {
		return
	}
	if nameLen > 64 {
		err = fmt.Errorf("%w: codec name length %d", ErrBlockCorrupt, nameLen)
		return
	}
	var nameBuf [64]byte
	if _, err = io.ReadFull(r.br, nameBuf[:nameLen]); err != nil {
		err = noEOF(err)
		return
	}
	name := string(nameBuf[:nameLen])
	var ok bool
	if s.codec, ok = wirecodec.Lookup(name); !ok {
		err = fmt.Errorf("%w: unknown codec %q", ErrBlockCorrupt, name)
		return
	}
	if s.payloadLen, err = r.u(); err != nil {
		return
	}
	var crcBuf [4]byte
	if _, err = io.ReadFull(r.br, crcBuf[:]); err != nil {
		err = noEOF(err)
		return
	}
	s.crc = binary.LittleEndian.Uint32(crcBuf[:])
	return
}

// readHeader parses one block header of either kind. The first uvarint
// discriminates: the colMarker sentinel (deliberately above MaxBlockLen)
// introduces a columnar block, anything within bounds is a row block's
// record count.
// An io.EOF before the first header byte is the clean end of stream.
func (r *BlockReader) readHeader() (h blockHdr, err error) {
	first, err := r.uvarint()
	if err != nil {
		return
	}
	if first == colMarker {
		h.columnar = true
		if h.recs, err = r.u(); err != nil {
			return
		}
		if h.keyEnc, err = r.u(); err != nil {
			return
		}
		if h.keyEnc > KeyEncDelta {
			err = fmt.Errorf("%w: unknown key encoding %d", ErrBlockCorrupt, h.keyEnc)
			return
		}
		if h.key, err = r.readSeg(); err != nil {
			return
		}
		h.val, err = r.readSeg()
		return
	}
	if first > MaxBlockLen {
		err = fmt.Errorf("%w: length %d exceeds MaxBlockLen", ErrBlockCorrupt, first)
		return
	}
	h.recs = int(first)
	h.seg, err = r.readSeg()
	return
}

// decodeSeg reads one segment's stored payload, verifies its CRC, and
// decodes it into dst (grown as needed; pass nil for a fresh,
// caller-owned allocation).
func (r *BlockReader) decodeSeg(s colSegHdr, what string, dst []byte) ([]byte, error) {
	identity := s.codec.Name() == wirecodec.IdentityName
	if identity && s.payloadLen != s.rawLen {
		return nil, fmt.Errorf("%w: %s identity payload %d != raw %d", ErrBlockCorrupt, what, s.payloadLen, s.rawLen)
	}
	if cap(dst) < s.rawLen {
		dst = make([]byte, s.rawLen)
	}
	dst = dst[:s.rawLen]
	if identity {
		// Identity stores the raw bytes verbatim: read and CRC them in
		// place, no staging.
		if _, err := io.ReadFull(r.br, dst); err != nil {
			return nil, noEOF(err)
		}
		if crc32.ChecksumIEEE(dst) != s.crc {
			return nil, fmt.Errorf("%w (%s)", ErrBlockChecksum, what)
		}
		return dst, nil
	}
	if cap(r.payload) < s.payloadLen {
		r.payload = make([]byte, s.payloadLen)
	}
	payload := r.payload[:s.payloadLen]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, noEOF(err)
	}
	if crc32.ChecksumIEEE(payload) != s.crc {
		return nil, fmt.Errorf("%w (%s)", ErrBlockChecksum, what)
	}
	cr := s.codec.NewReader(bytes.NewReader(payload))
	_, err := io.ReadFull(cr, dst)
	if err == nil {
		// The payload must decode to exactly rawLen bytes.
		var one [1]byte
		if n, _ := cr.Read(one[:]); n != 0 {
			err = fmt.Errorf("%w: %s payload longer than header rawLen", ErrBlockCorrupt, what)
		}
	}
	cr.Close()
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: %s payload shorter than header rawLen", ErrBlockCorrupt, what)
		}
		if !errors.Is(err, ErrBlockCorrupt) {
			// The payload is in memory: any codec error is a bad payload.
			err = fmt.Errorf("%w: %s payload: %w", ErrBlockCorrupt, what, err)
		}
		return nil, err
	}
	return dst, nil
}

// nextRaw reads the next non-empty block and returns its decompressed
// content without record parsing: a row block's record-framed payload
// (decoded into dst, grown as needed), or a columnar block's raw column
// bytes (always freshly allocated, ownership to the caller). io.EOF
// means a clean end of stream.
func (r *BlockReader) nextRaw(dst []byte) ([]byte, *rawColumns, int, error) {
	for {
		h, err := r.readHeader()
		if err != nil {
			return nil, nil, 0, err
		}
		if h.columnar {
			if h.recs == 0 && h.key.rawLen == 0 && h.val.rawLen == 0 &&
				h.key.payloadLen == 0 && h.val.payloadLen == 0 {
				continue // empty block: legal, carries nothing
			}
			key, err := r.decodeSeg(h.key, "key column", nil)
			if err != nil {
				return nil, nil, 0, err
			}
			val, err := r.decodeSeg(h.val, "value column", nil)
			if err != nil {
				return nil, nil, 0, err
			}
			r.rawBytes += int64(h.key.rawLen + h.val.rawLen)
			return nil, &rawColumns{keyEnc: h.keyEnc, key: key, val: val}, h.recs, nil
		}
		if h.recs == 0 && h.seg.rawLen == 0 && h.seg.payloadLen == 0 {
			continue // empty block: legal, carries nothing
		}
		dst, err = r.decodeSeg(h.seg, "block", dst)
		if err != nil {
			return nil, nil, 0, err
		}
		r.rawBytes += int64(h.seg.rawLen)
		return dst, nil, h.recs, nil
	}
}

// NextAny returns the next decoded block in its native kind: a row
// block's record-framed payload in rows, or a columnar block in cb
// (exactly one is non-nil). Ownership of the returned data transfers to
// the caller — this is the zero-copy handoff into the shuffle sorter,
// which adopts row payloads via AddBlock and columnar blocks via
// AddColumnar. io.EOF signals a clean end of stream.
func (r *BlockReader) NextAny() (rows []byte, cb *ColumnarBlock, recs int, err error) {
	if r.err != nil {
		return nil, nil, 0, r.err
	}
	if r.off != len(r.block) {
		return nil, nil, 0, fmt.Errorf("kvio: NextAny mid-block")
	}
	rows, rc, recs, err := r.nextRaw(nil)
	if err != nil {
		r.err = err
		return nil, nil, 0, err
	}
	if rc != nil {
		if cb, err = decodeColumnar(recs, rc.keyEnc, rc.key, rc.val); err != nil {
			r.err = err
			return nil, nil, 0, err
		}
	}
	r.n += int64(recs)
	return rows, cb, recs, nil
}

// NextBlock returns the next block as a decoded record-framed payload
// and its record count, transferring ownership of the returned slice to
// the caller (it is never reused by the reader). Columnar blocks are
// flattened to row form — consumers that can exploit the columnar
// layout should use NextAny instead. It must not be mixed with
// Read/ReadShared on a partially consumed block. io.EOF signals a clean
// end of stream.
func (r *BlockReader) NextBlock() ([]byte, int, error) {
	rows, cb, recs, err := r.NextAny()
	if err != nil {
		return nil, 0, err
	}
	if cb != nil {
		rows = cb.AppendRows(nil)
	}
	return rows, recs, nil
}

// advance ensures the current block has at least one unread record.
func (r *BlockReader) advance() error {
	for r.recsLeft == 0 {
		if r.off != len(r.block) {
			return fmt.Errorf("%w: %d payload bytes beyond last record", ErrBlockCorrupt, len(r.block)-r.off)
		}
		block, rc, recs, err := r.nextRaw(r.block)
		if err != nil {
			return err
		}
		if rc != nil {
			cb, err := decodeColumnar(recs, rc.keyEnc, rc.key, rc.val)
			if err != nil {
				return err
			}
			block = cb.AppendRows(r.block[:0]) // reuse the row buffer's capacity
		}
		r.block, r.recsLeft, r.off = block, recs, 0
	}
	return nil
}

// next parses one record out of the current block, returning slices
// into the block buffer (valid until the next read call).
func (r *BlockReader) next() (Pair, error) {
	if r.err != nil {
		return Pair{}, r.err
	}
	if err := r.advance(); err != nil {
		r.err = err
		return Pair{}, err
	}
	rest := r.block[r.off:]
	key, value, used, err := scanOne(rest)
	if err != nil {
		r.err = err
		return Pair{}, err
	}
	r.off += used
	r.recsLeft--
	r.n++
	return Pair{Key: key, Value: value}, nil
}

// ReadShared returns the next record; the slices alias the reader's
// block buffer and are valid only until the next read call.
func (r *BlockReader) ReadShared() (Pair, error) { return r.next() }

// Read returns the next record as freshly allocated slices.
func (r *BlockReader) Read() (Pair, error) {
	p, err := r.next()
	if err != nil {
		return Pair{}, err
	}
	return p.Clone(), nil
}

// ReadAll drains the stream into a slice.
func (r *BlockReader) ReadAll() ([]Pair, error) {
	var out []Pair
	for {
		p, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// noEOF maps a stream end inside a block to errTorn.
func noEOF(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTorn
	}
	return err
}

// ---------------------------------------------------------------------------
// Record scanning within a decoded block

// scanOne parses one framed record at the head of data, returning
// subslices (no copies) and the bytes consumed.
func scanOne(data []byte) (key, value []byte, used int, err error) {
	klen, n := binary.Uvarint(data)
	if n <= 0 || klen > MaxRecordLen {
		return nil, nil, 0, fmt.Errorf("%w: bad key length", ErrBlockCorrupt)
	}
	used = n
	if uint64(len(data)-used) < klen {
		return nil, nil, 0, fmt.Errorf("%w: truncated key", ErrBlockCorrupt)
	}
	key = data[used : used+int(klen)]
	used += int(klen)
	vlen, n := binary.Uvarint(data[used:])
	if n <= 0 || vlen > MaxRecordLen {
		return nil, nil, 0, fmt.Errorf("%w: bad value length", ErrBlockCorrupt)
	}
	used += n
	if uint64(len(data)-used) < vlen {
		return nil, nil, 0, fmt.Errorf("%w: truncated value", ErrBlockCorrupt)
	}
	value = data[used : used+int(vlen)]
	used += int(vlen)
	return key, value, used, nil
}

// ScanRecords walks every record in a decoded block payload, passing
// subslices of data to fn (no copies). It is the parse half of the
// zero-copy handoff: shuffle.Sorter.AddBlock adopts the block buffer
// and scans pairs out of it in place.
func ScanRecords(data []byte, fn func(key, value []byte) error) (int, error) {
	recs := 0
	for len(data) > 0 {
		key, value, used, err := scanOne(data)
		if err != nil {
			return recs, err
		}
		data = data[used:]
		recs++
		if err := fn(key, value); err != nil {
			return recs, err
		}
	}
	return recs, nil
}

// TranscodeBlocks rewrites a block stream from src onto dst with every
// block re-compressed under codec c, block boundaries, kinds, and
// record counts preserved. Row payloads move block-at-a-time and
// columnar blocks move column-at-a-time — neither path parses records
// or re-derives a key encoding.
func TranscodeBlocks(dst io.Writer, src io.Reader, c wirecodec.Codec) error {
	br, err := NewBlockReader(src)
	if err != nil {
		return err
	}
	defer br.Release()
	bw := NewBlockWriter(dst, c, 0)
	for {
		payload, rc, recs, err := br.nextRaw(nil)
		if err == io.EOF {
			return bw.Close()
		}
		if err != nil {
			return err
		}
		if rc != nil {
			err = bw.WriteColumnarRaw(recs, rc.keyEnc, rc.key, rc.val)
		} else {
			err = bw.WriteBlock(payload, recs)
		}
		if err != nil {
			return err
		}
	}
}
