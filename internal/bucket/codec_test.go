package bucket

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

func TestBlockBucketRoundTripLocal(t *testing.T) {
	for _, name := range wirecodec.Names() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewFileStore(dir, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetCodec(name); err != nil {
				t.Fatal(err)
			}
			in := compressiblePairs()
			d, err := s.Put("ds1/t0/s0", in)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := wirecodec.Lookup(name)
			wantSuffix := BlockExt + c.Ext()
			if !strings.HasSuffix(d.URL, wantSuffix) {
				t.Fatalf("block file URL %q should carry %s", d.URL, wantSuffix)
			}
			if d.Bytes != payloadBytes(in) || d.Records != int64(len(in)) {
				t.Errorf("descriptor %d records / %d bytes, want %d / %d",
					d.Records, d.Bytes, len(in), payloadBytes(in))
			}
			if name != wirecodec.IdentityName {
				fi, err := os.Stat(strings.TrimPrefix(d.URL, "file://"))
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() >= d.Bytes {
					t.Errorf("%s at-rest size %d not smaller than payload %d", name, fi.Size(), d.Bytes)
				}
			}
			// Via the URL and via OpenLocal.
			got, err := s.ReadAll(d.URL)
			if err != nil {
				t.Fatal(err)
			}
			if !pairsEqual(got, in) {
				t.Fatal("block round trip via URL lost data")
			}
			rc, err := s.OpenLocal("ds1/t0/s0")
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			if got := decodeBlocks(t, rc); !pairsEqual(got, in) {
				t.Fatal("block round trip via OpenLocal lost data")
			}
		})
	}
}

// decodeBlocks reads a whole bucket block stream.
func decodeBlocks(t testing.TB, r io.Reader) []kvio.Pair {
	t.Helper()
	br, err := kvio.NewBlockReader(r)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Release()
	pairs, err := br.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func TestSetCodecRejectsUnknown(t *testing.T) {
	s := NewMemStore()
	if err := s.SetCodec("zstd-from-the-future"); err == nil {
		t.Fatal("SetCodec accepted an unregistered codec")
	}
	if err := s.SetCodec(""); err != nil {
		t.Fatalf("SetCodec(\"\") should clear the codec: %v", err)
	}
}

func TestRemoveBlockBucket(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	for _, name := range wirecodec.Names() {
		if err := s.SetCodec(name); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("ds1/t0/s0", compressiblePairs()); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove("ds1/t0/s0"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := s.OpenLocal("ds1/t0/s0"); err == nil {
			t.Fatalf("%s bucket survived Remove", name)
		}
	}
}

// TestBlockBucketServedVerbatim: a client advertising the at-rest codec
// gets the file bytes untouched — the zero-CPU path — with the codec
// named in the response header, and the wire counters see the
// compressed size split per codec.
func TestBlockBucketServedVerbatim(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	if err := server.SetCodec(wirecodec.LZName); err != nil {
		t.Fatal(err)
	}
	in := compressiblePairs()
	if _, err := server.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	srv := serveStore(server)
	defer srv.Close()
	url := srv.URL + "/data/ds1_t0_s0"

	// Raw HTTP first: response must name the codec and match the file.
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
	atRestBytes, err := os.ReadFile(dir + "/ds1_t0_s0" + BlockExt + wirecodec.LZExt)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(atRestBytes) {
		t.Error("verbatim response differs from the at-rest file")
	}

	// Through the store client: decoded records and per-codec counters.
	m := obs.NewMetrics()
	client := NewMemStore()
	client.SetMetrics(m)
	got, err := client.ReadAll(url)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, in) {
		t.Fatal("block HTTP round trip lost data")
	}
	wire := m.Get(obs.MetricWireBytesDirect)
	perCodec := m.Get(obs.MetricWireBytesCodec(wirecodec.LZName))
	if wire == 0 || wire >= payloadBytes(in) {
		t.Errorf("wire bytes = %d, want 0 < wire < raw %d", wire, payloadBytes(in))
	}
	if perCodec != wire {
		t.Errorf("per-codec wire bytes = %d, want %d (all bytes moved under lz)", perCodec, wire)
	}
}

// TestNegotiationUnknownCodecFallsBackToIdentity: a client advertising
// only a codec this server has never heard of still gets blocks —
// identity-encoded — and decodes the byte-identical record sequence.
func TestNegotiationUnknownCodecFallsBackToIdentity(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	if err := server.SetCodec(wirecodec.LZName); err != nil {
		t.Fatal(err)
	}
	in := compressiblePairs()
	if _, err := server.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	srv := serveStore(server)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/data/ds1_t0_s0", nil)
	req.Header.Set(wirecodec.RequestHeader, "zstd-from-the-future")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(wirecodec.CodecHeader); got != wirecodec.IdentityName {
		t.Errorf("CodecHeader = %q, want identity fallback", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The body must be identity-encoded blocks: byte-identical to the
	// at-rest file transcoded to identity, and decodable without lz.
	if pairs := decodeBlocks(t, strings.NewReader(string(body))); !pairsEqual(pairs, in) {
		t.Fatal("identity-fallback response lost data")
	}
	// Every payload byte is uncompressed: the body must be at least as
	// large as the raw payload.
	if int64(len(body)) < payloadBytes(in) {
		t.Errorf("identity body %d bytes < payload %d; still compressed?", len(body), payloadBytes(in))
	}
}

// TestBlockBucketUnadvertisedClientGetsIdentity: a client that sends
// no codec advertisement at all (curl, a plain http.Get) gets the
// deflate at-rest bucket transcoded to identity blocks, the codec every
// reader decodes.
func TestBlockBucketUnadvertisedClientGetsIdentity(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	if err := server.SetCodec(wirecodec.DeflateName); err != nil {
		t.Fatal(err)
	}
	in := compressiblePairs()
	if _, err := server.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	srv := serveStore(server)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/data/ds1_t0_s0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ch := resp.Header.Get(wirecodec.CodecHeader); ch != wirecodec.IdentityName {
		t.Fatalf("unadvertised client got codec %q, want identity", ch)
	}
	if got := decodeBlocks(t, resp.Body); !pairsEqual(got, in) {
		t.Fatal("unadvertised client lost data")
	}
}

// TestBlockBucketTranscodeBetweenCodecs: a client that decodes deflate
// but not lz gets the lz at-rest file transcoded block-to-block.
func TestBlockBucketTranscodeBetweenCodecs(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	if err := server.SetCodec(wirecodec.LZName); err != nil {
		t.Fatal(err)
	}
	in := compressiblePairs()
	if _, err := server.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	srv := serveStore(server)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/data/ds1_t0_s0", nil)
	req.Header.Set(wirecodec.RequestHeader, "deflate,identity")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(wirecodec.CodecHeader); got != wirecodec.DeflateName {
		t.Errorf("CodecHeader = %q, want deflate (best mutual)", got)
	}
	if got := decodeBlocks(t, resp.Body); !pairsEqual(got, in) {
		t.Fatal("transcoded response lost data")
	}
}
