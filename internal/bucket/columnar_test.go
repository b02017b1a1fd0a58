package bucket

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

func TestColumnarBucketRoundTripLocal(t *testing.T) {
	for _, codecName := range wirecodec.Names() {
		t.Run(codecName, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewFileStore(dir, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetCodec(codecName); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBlockEncoding(kvio.EncColumnarDict); err != nil {
				t.Fatal(err)
			}
			in := compressiblePairs()
			d, err := s.Put("ds1/t0/s0", in)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := wirecodec.Lookup(codecName)
			wantSuffix := ColExt + c.Ext()
			if !strings.HasSuffix(d.URL, wantSuffix) {
				t.Fatalf("columnar file URL %q should carry %s", d.URL, wantSuffix)
			}
			if d.Bytes != payloadBytes(in) || d.Records != int64(len(in)) {
				t.Errorf("descriptor %d records / %d bytes, want %d / %d",
					d.Records, d.Bytes, len(in), payloadBytes(in))
			}
			got, err := s.ReadAll(d.URL)
			if err != nil {
				t.Fatal(err)
			}
			if !pairsEqual(got, in) {
				t.Fatal("columnar round trip via URL lost data")
			}
		})
	}
}

// TestColumnarImpliesBlocks: columnar framing with no block codec set
// writes identity-codec columnar blocks.
func TestColumnarImpliesBlocks(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	m := obs.NewMetrics()
	s.SetMetrics(m)
	if err := s.SetBlockEncoding(kvio.EncColumnar); err != nil {
		t.Fatal(err)
	}
	in := compressiblePairs()
	d, err := s.Put("ds1/t0/s0", in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(d.URL, ColExt) {
		t.Fatalf("URL %q should end in bare %s (identity columnar blocks)", d.URL, ColExt)
	}
	got, err := s.ReadAll(d.URL)
	if err != nil || !pairsEqual(got, in) {
		t.Fatalf("identity columnar round trip: %v", err)
	}
	if n := m.Get(obs.MetricBlocksColumnar); n == 0 {
		t.Error("writing a columnar bucket incremented no columnar-block counter")
	}
}

func TestSetBlockEncodingRejectsUnknown(t *testing.T) {
	s := NewMemStore()
	if err := s.SetBlockEncoding("zebra"); err == nil {
		t.Fatal("SetBlockEncoding accepted an unknown encoding")
	}
	if err := s.SetBlockEncoding(""); err != nil {
		t.Fatalf("SetBlockEncoding(\"\") should mean row: %v", err)
	}
}

// TestCreateOptsOverrides: per-bucket codec and encoding pins win over
// the store defaults in both directions.
func TestCreateOptsOverrides(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	in := compressiblePairs()

	// Plain store, bucket pinned columnar+lz.
	w, err := s.CreateOpts("ds1/t0/s0", CreateOpts{Codec: wirecodec.LZName, BlockEncoding: kvio.EncColumnarDelta})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range in {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	d, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := ColExt + wirecodec.LZExt; !strings.HasSuffix(d.URL, want) {
		t.Fatalf("pinned bucket URL %q should carry %s", d.URL, want)
	}
	if got, err := s.ReadAll(d.URL); err != nil || !pairsEqual(got, in) {
		t.Fatalf("pinned columnar bucket round trip: %v", err)
	}

	// Columnar store, bucket pinned back to row: identity row blocks.
	if err := s.SetBlockEncoding(kvio.EncColumnar); err != nil {
		t.Fatal(err)
	}
	w2, err := s.CreateOpts("ds1/t0/s1", CreateOpts{BlockEncoding: kvio.EncRow})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := w2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(d2.URL, "_s1"+BlockExt) {
		t.Fatalf("row-pinned bucket URL %q should end in bare %s", d2.URL, BlockExt)
	}

	if _, err := s.CreateOpts("ds1/t0/s2", CreateOpts{Codec: "zstd-from-the-future"}); err == nil {
		t.Fatal("CreateOpts accepted an unknown codec")
	}
	if _, err := s.CreateOpts("ds1/t0/s3", CreateOpts{BlockEncoding: "zebra"}); err == nil {
		t.Fatal("CreateOpts accepted an unknown encoding")
	}
}

func TestRemoveColumnarBucket(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	if err := s.SetCodec(wirecodec.LZName); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBlockEncoding(kvio.EncColumnar); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("ds1/t0/s0", compressiblePairs()); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("ds1/t0/s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenLocal("ds1/t0/s0"); err == nil {
		t.Fatal("columnar bucket survived Remove")
	}
}

// columnarServer is a file store serving lz columnar buckets of in.
func columnarServer(t *testing.T, in []kvio.Pair) (*Store, string, func()) {
	t.Helper()
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	if err := server.SetCodec(wirecodec.LZName); err != nil {
		t.Fatal(err)
	}
	if err := server.SetBlockEncoding(kvio.EncColumnarDict); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	srv := serveStore(server)
	return server, srv.URL + "/data/ds1_t0_s0", srv.Close
}

// TestColumnarBucketServedVerbatim: a client that decodes the at-rest
// codec gets the columnar file bytes untouched, with the codec and
// block kind named in the response headers, and a store client counts
// every wire byte as columnar.
func TestColumnarBucketServedVerbatim(t *testing.T) {
	in := compressiblePairs()
	server, url, done := columnarServer(t, in)
	defer done()

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(wirecodec.RequestHeader, wirecodec.AcceptHeader())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(wirecodec.CodecHeader); got != wirecodec.LZName {
		t.Errorf("CodecHeader = %q, want %q", got, wirecodec.LZName)
	}
	if got := resp.Header.Get(wirecodec.BlockEncHeader); got != wirecodec.BlockKindColumnar {
		t.Errorf("BlockEncHeader = %q, want columnar", got)
	}
	atRestBytes, err := os.ReadFile(server.Dir() + "/ds1_t0_s0" + ColExt + wirecodec.LZExt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, atRestBytes) {
		t.Error("verbatim response differs from the at-rest file")
	}
	if got := decodeBlocks(t, bytes.NewReader(body)); !pairsEqual(got, in) {
		t.Fatal("verbatim columnar body mis-decodes")
	}

	m := obs.NewMetrics()
	client := NewMemStore()
	client.SetMetrics(m)
	got, err := client.ReadAll(url)
	if err != nil || !pairsEqual(got, in) {
		t.Fatalf("columnar fetch: %v", err)
	}
	if n := m.Get(obs.MetricWireBytesEncoding(wirecodec.BlockKindColumnar)); n == 0 || n != m.Get(obs.MetricWireBytesDirect) {
		t.Errorf("columnar wire bytes = %d, want all %d direct bytes", n, m.Get(obs.MetricWireBytesDirect))
	}
	if n := m.Get(obs.MetricBlocksColumnar); n != 0 {
		t.Errorf("mem client wrote no buckets but counted %d columnar blocks", n)
	}
}
