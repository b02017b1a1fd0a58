package kvio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wirecodec"
)

// columnarStream builds a columnar block stream of pairs with the named
// codec, block size, and key encoding (KeyEncAuto for per-block choice).
func columnarStream(t testing.TB, pairs []Pair, codecName string, blockSize, keyEnc int) []byte {
	t.Helper()
	c, ok := wirecodec.Lookup(codecName)
	if !ok {
		t.Fatalf("codec %q not registered", codecName)
	}
	var buf bytes.Buffer
	w := NewBlockWriterEnc(&buf, c, blockSize, BlockEncoding{Columnar: true, KeyEnc: keyEnc})
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// repetitivePairs emits n records over few distinct keys — the shuffle
// shape dictionary encoding exists for.
func repetitivePairs(n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = StrPair("key-"+strconv.Itoa(i%37), "v"+strconv.Itoa(i))
	}
	return out
}

func keyEncName(enc int) string {
	switch enc {
	case KeyEncAuto:
		return "auto"
	case KeyEncRaw:
		return "raw"
	case KeyEncDict:
		return "dict"
	case KeyEncDelta:
		return "delta"
	}
	return "?"
}

func TestColumnarRoundTripAllCodecsAllKeyEncodings(t *testing.T) {
	for _, mk := range []struct {
		name  string
		pairs []Pair
	}{
		{"distinct", testPairs(3000)},
		{"repetitive", repetitivePairs(3000)},
		{"empty-kv", []Pair{StrPair("", ""), StrPair("k", ""), StrPair("", "v")}},
	} {
		for _, codecName := range wirecodec.Names() {
			for _, keyEnc := range []int{KeyEncAuto, KeyEncRaw, KeyEncDict, KeyEncDelta} {
				for _, blockSize := range []int{1, 700, DefaultBlockSize} {
					name := mk.name + "/" + codecName + "/" + keyEncName(keyEnc) + "/bs=" + strconv.Itoa(blockSize)
					t.Run(name, func(t *testing.T) {
						wire := columnarStream(t, mk.pairs, codecName, blockSize, keyEnc)
						r, err := NewBlockReader(bytes.NewReader(wire))
						if err != nil {
							t.Fatal(err)
						}
						defer r.Release()
						got, err := r.ReadAll()
						if err != nil {
							t.Fatal(err)
						}
						if !pairsEqual(mk.pairs, got) {
							t.Fatalf("round trip mismatch: %d in, %d out", len(mk.pairs), len(got))
						}
					})
				}
			}
		}
	}
}

func TestColumnarNextAnyYieldsColumnarBlocks(t *testing.T) {
	pairs := repetitivePairs(2000)
	wire := columnarStream(t, pairs, wirecodec.LZName, 2048, KeyEncDict)
	r, err := NewBlockReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	i := 0
	for {
		rows, cb, recs, err := r.NextAny()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rows != nil || cb == nil {
			t.Fatalf("NextAny on columnar stream returned rows=%v cb=%v", rows != nil, cb != nil)
		}
		if cb.Len() != recs {
			t.Fatalf("cb.Len() = %d, recs = %d", cb.Len(), recs)
		}
		if cb.KeyEncoding() != KeyEncDict {
			t.Fatalf("key encoding = %d, want dict", cb.KeyEncoding())
		}
		if cb.DictLen() < 0 {
			t.Fatal("DictLen < 0 on a dict block")
		}
		var payload int64
		for j := 0; j < cb.Len(); j++ {
			p := pairs[i]
			if !bytes.Equal(cb.Key(j), p.Key) || !bytes.Equal(cb.Value(j), p.Value) {
				t.Fatalf("record %d mismatch: (%q,%q) want %v", i, cb.Key(j), cb.Value(j), p)
			}
			if !bytes.Equal(cb.DictKey(cb.DictIndex(j)), p.Key) {
				t.Fatalf("dict accessor mismatch at record %d", i)
			}
			payload += int64(len(p.Key) + len(p.Value))
			i++
		}
		if cb.PayloadBytes() != payload {
			t.Fatalf("PayloadBytes = %d, want %d", cb.PayloadBytes(), payload)
		}
	}
	if i != len(pairs) {
		t.Fatalf("drained %d records, want %d", i, len(pairs))
	}
}

func TestColumnarAutoKeyEncoding(t *testing.T) {
	// Repetitive keys must pick dict; sorted keys sharing long prefixes
	// must pick delta; incompressible distinct keys fall back to raw.
	long := make([]Pair, 200)
	for i := range long {
		long[i] = StrPair("a-very-long-shared-key-prefix/"+strconv.Itoa(100000+i), "v")
	}
	distinct := make([]Pair, 200)
	for i := range distinct {
		distinct[i] = StrPair(string([]byte{byte(i), byte(i * 7), byte(i * 13)}), "v")
	}
	for _, mk := range []struct {
		name  string
		pairs []Pair
		want  int
	}{
		{"repetitive->dict", repetitivePairs(500), KeyEncDict},
		{"front-codable->delta", long, KeyEncDelta},
		{"distinct->raw", distinct, KeyEncRaw},
	} {
		t.Run(mk.name, func(t *testing.T) {
			wire := columnarStream(t, mk.pairs, wirecodec.IdentityName, 0, KeyEncAuto)
			r, err := NewBlockReader(bytes.NewReader(wire))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Release()
			_, cb, _, err := r.NextAny()
			if err != nil {
				t.Fatal(err)
			}
			if cb.KeyEncoding() != mk.want {
				t.Fatalf("auto chose encoding %s, want %s", keyEncName(cb.KeyEncoding()), keyEncName(mk.want))
			}
		})
	}
}

func TestColumnarNextBlockFlattens(t *testing.T) {
	pairs := repetitivePairs(800)
	wire := columnarStream(t, pairs, wirecodec.DeflateName, 1024, KeyEncAuto)
	r, err := NewBlockReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	var got []Pair
	for {
		payload, recs, err := r.NextBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n, err := ScanRecords(payload, func(key, value []byte) error {
			got = append(got, Pair{Key: key, Value: value}.Clone())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != recs {
			t.Fatalf("flattened block scanned %d records, header said %d", n, recs)
		}
	}
	if !pairsEqual(pairs, got) {
		t.Fatal("NextBlock flatten mismatch")
	}
}

func TestColumnarMixedKindStream(t *testing.T) {
	// Row and columnar blocks interleave freely under one magic: a
	// columnar writer accepts pre-framed row payloads (the transcode
	// surface) without disturbing its own pending records.
	var buf bytes.Buffer
	w := NewBlockWriterEnc(&buf, wirecodec.Identity(), 0, BlockEncoding{Columnar: true, KeyEnc: KeyEncDict})
	var want []Pair
	add := func(p Pair) {
		want = append(want, p)
	}
	for i := 0; i < 10; i++ {
		p := StrPair("col-"+strconv.Itoa(i%3), "v"+strconv.Itoa(i))
		add(p)
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	rowPairs := testPairs(10)
	rowPayload := Marshal(rowPairs)
	for _, p := range rowPairs {
		add(p)
	}
	if err := w.WriteBlock(rowPayload, len(rowPairs)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p := StrPair("tail-"+strconv.Itoa(i%3), "w"+strconv.Itoa(i))
		add(p)
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(want, got) {
		t.Fatalf("mixed-kind stream mismatch: %d in, %d out", len(want), len(got))
	}
}

func TestTranscodeBlocksPreservesColumnarKind(t *testing.T) {
	pairs := repetitivePairs(1500)
	src := columnarStream(t, pairs, wirecodec.IdentityName, 2048, KeyEncDict)
	lz, _ := wirecodec.Lookup(wirecodec.LZName)
	var out bytes.Buffer
	if err := TranscodeBlocks(&out, bytes.NewReader(src), lz); err != nil {
		t.Fatal(err)
	}
	r, err := NewBlockReader(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	var got []Pair
	blocks := 0
	for {
		rows, cb, _, err := r.NextAny()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rows != nil || cb == nil {
			t.Fatal("transcode flattened a columnar block")
		}
		if cb.KeyEncoding() != KeyEncDict {
			t.Fatalf("transcode changed key encoding to %s", keyEncName(cb.KeyEncoding()))
		}
		for i := 0; i < cb.Len(); i++ {
			got = append(got, Pair{Key: cb.Key(i), Value: cb.Value(i)}.Clone())
		}
		blocks++
	}
	if !pairsEqual(pairs, got) {
		t.Fatal("transcoded columnar stream mis-decodes")
	}
	if blocks == 0 {
		t.Fatal("no blocks seen")
	}
}

// columnarIdentityLayout computes the offsets of the key and value
// payloads of a single-block identity columnar stream, so corruption
// tests can target one column at a time.
func columnarIdentityLayout(t *testing.T, wire []byte, keys, vals [][]byte, keyEnc int) (keyOff, keyLen, valOff, valLen int) {
	t.Helper()
	keyLen = 0
	switch keyEnc {
	case KeyEncRaw:
		for _, k := range keys {
			keyLen += uvarintLen(uint64(len(k))) + len(k)
		}
	default:
		t.Fatalf("layout helper only supports raw key encoding")
	}
	for _, v := range vals {
		valLen += uvarintLen(uint64(len(v))) + len(v)
	}
	valOff = len(wire) - valLen
	keyOff = valOff - keyLen
	if keyOff < len(BlockMagic) {
		t.Fatalf("layout arithmetic broken: keyOff=%d", keyOff)
	}
	return
}

func TestColumnarPerColumnCRC(t *testing.T) {
	pairs := testPairs(50)
	keys := make([][]byte, len(pairs))
	vals := make([][]byte, len(pairs))
	for i, p := range pairs {
		keys[i], vals[i] = p.Key, p.Value
	}
	wire := columnarStream(t, pairs, wirecodec.IdentityName, 0, KeyEncRaw)
	keyOff, _, valOff, _ := columnarIdentityLayout(t, wire, keys, vals, KeyEncRaw)
	for _, mk := range []struct {
		name string
		off  int
	}{
		{"key column", keyOff},
		{"value column", valOff},
	} {
		t.Run(mk.name, func(t *testing.T) {
			bad := append([]byte(nil), wire...)
			bad[mk.off] ^= 0x5A
			r, err := NewBlockReader(bytes.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Release()
			_, err = r.ReadAll()
			if !errors.Is(err, ErrBlockChecksum) {
				t.Fatalf("corrupt %s: got %v, want ErrBlockChecksum", mk.name, err)
			}
			if !strings.Contains(err.Error(), mk.name) {
				t.Fatalf("checksum error does not name the column: %v", err)
			}
		})
	}
}

func TestColumnarTruncatedStream(t *testing.T) {
	pairs := testPairs(200)
	wire := columnarStream(t, pairs, wirecodec.LZName, 0, KeyEncRaw)
	for _, cut := range []int{len(BlockMagic) + 1, len(BlockMagic) + 8, len(wire) / 2, len(wire) - 1} {
		r, err := NewBlockReader(bytes.NewReader(wire[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.ReadAll()
		if err == nil || err == io.EOF {
			t.Fatalf("truncated at %d: no error", cut)
		}
		r.Release()
	}
}

func TestColumnarRejectsBadDeltaPrefix(t *testing.T) {
	// A delta record claiming a shared prefix longer than the previous
	// key must be rejected, not read out of bounds.
	keyCol := binary.AppendUvarint(nil, 5) // shared=5 with no previous key
	keyCol = binary.AppendUvarint(keyCol, 0)
	valCol := binary.AppendUvarint(nil, 0) // one empty value
	var buf bytes.Buffer
	w := NewBlockWriter(&buf, nil, 0)
	if err := w.WriteColumnarRaw(1, KeyEncDelta, keyCol, valCol); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if _, err := r.ReadAll(); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("bad delta prefix: got %v, want ErrBlockCorrupt", err)
	}
}

func TestColumnarWriterCounters(t *testing.T) {
	pairs := repetitivePairs(500)
	var buf bytes.Buffer
	w := NewBlockWriterEnc(&buf, wirecodec.Identity(), 1024, BlockEncoding{Columnar: true, KeyEnc: KeyEncAuto})
	var payload int64
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		payload += int64(len(p.Key) + len(p.Value))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(pairs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(pairs))
	}
	if w.Bytes() != payload {
		t.Fatalf("Bytes = %d, want %d", w.Bytes(), payload)
	}
	if w.ColumnarBlocks() == 0 {
		t.Fatal("ColumnarBlocks = 0 after columnar writes")
	}
}

func TestParseBlockEncoding(t *testing.T) {
	for name, want := range map[string]BlockEncoding{
		"":               {},
		EncRow:           {},
		EncColumnar:      {Columnar: true, KeyEnc: KeyEncAuto},
		EncColumnarRaw:   {Columnar: true, KeyEnc: KeyEncRaw},
		EncColumnarDict:  {Columnar: true, KeyEnc: KeyEncDict},
		EncColumnarDelta: {Columnar: true, KeyEnc: KeyEncDelta},
	} {
		got, err := ParseBlockEncoding(name)
		if err != nil || got != want {
			t.Fatalf("ParseBlockEncoding(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseBlockEncoding("zebra"); err == nil {
		t.Fatal("unknown encoding accepted")
	}
}
