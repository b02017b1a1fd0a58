package bucket

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

func pairsEqual(a, b []kvio.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i].Key) != string(b[i].Key) || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

// compressiblePairs have enough redundancy that flate must shrink them.
func compressiblePairs() []kvio.Pair {
	var pairs []kvio.Pair
	for i := 0; i < 200; i++ {
		pairs = append(pairs, kvio.StrPair("repeated-key-material", strings.Repeat("abcdef", 20)))
	}
	return pairs
}

func payloadBytes(pairs []kvio.Pair) int64 {
	var n int64
	for _, p := range pairs {
		n += int64(len(p.Key) + len(p.Value))
	}
	return n
}

// TestCompressedBucketRoundTripLocal: SetCompress writes deflate blocks
// (".mrb.fz") when no codec is set.
func TestCompressedBucketRoundTripLocal(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompress(true)
	in := compressiblePairs()
	d, err := s.Put("ds1/t0/s0", in)
	if err != nil {
		t.Fatal(err)
	}
	if want := BlockExt + wirecodec.DeflateExt; !strings.HasSuffix(d.URL, want) {
		t.Fatalf("compressed file URL %q should carry %s", d.URL, want)
	}
	if d.Bytes != payloadBytes(in) {
		t.Errorf("Descriptor.Bytes = %d, want pre-compression %d", d.Bytes, payloadBytes(in))
	}
	// The at-rest file must actually be smaller than the payload.
	fi, err := os.Stat(strings.TrimPrefix(d.URL, "file://"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= d.Bytes {
		t.Errorf("at-rest size %d not smaller than payload %d", fi.Size(), d.Bytes)
	}
	// Via the URL and via OpenLocal.
	for _, read := range []func() ([]kvio.Pair, error){
		func() ([]kvio.Pair, error) { return s.ReadAll(d.URL) },
		func() ([]kvio.Pair, error) {
			rc, err := s.OpenLocal("ds1/t0/s0")
			if err != nil {
				return nil, err
			}
			defer rc.Close()
			r, err := kvio.NewBlockReader(rc)
			if err != nil {
				return nil, err
			}
			defer r.Release()
			return r.ReadAll()
		},
	} {
		got, err := read()
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, in) {
			t.Fatal("compressed round trip lost data")
		}
	}
}

func TestRemoveCompressedBucket(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	s.SetCompress(true)
	if _, err := s.Put("ds1/t0/s0", compressiblePairs()); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("ds1/t0/s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ds1_t0_s0"+BlockExt+wirecodec.DeflateExt)); !os.IsNotExist(err) {
		t.Error("compressed bucket file survived Remove")
	}
	if err := s.Remove("ds1/t0/s0"); err != nil {
		t.Errorf("second Remove: %v", err)
	}
}

// serveStore exposes a store over HTTP the way master/slave do.
func serveStore(s *Store) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/data/")
		path, err := s.ServeName(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ServeBucket(w, r, path)
	}))
}

func TestCompressedBucketOverHTTP(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	server.SetCompress(true)
	in := compressiblePairs()
	if _, err := server.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	srv := serveStore(server)
	defer srv.Close()
	url := srv.URL + "/data/ds1_t0_s0"

	// The store client advertises every codec, so the deflate blocks go
	// out verbatim and the wire bytes it counts are the compressed size.
	m := obs.NewMetrics()
	client := NewMemStore()
	client.SetMetrics(m)
	got, err := client.ReadAll(url)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, in) {
		t.Fatal("HTTP compressed round trip lost data")
	}
	raw := payloadBytes(in)
	wire := m.Get(obs.MetricWireBytesDirect)
	if wire == 0 || wire >= raw {
		t.Errorf("wire bytes = %d, want 0 < wire < raw %d", wire, raw)
	}

	// A client that advertises no codec must get identity blocks: the
	// server transcodes for it.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if c := resp.Header.Get(wirecodec.CodecHeader); c != wirecodec.IdentityName {
		t.Fatalf("unadvertised client got codec %q, want identity", c)
	}
	r, err := kvio.NewBlockReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	got, err = r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, in) {
		t.Fatal("identity-encoding round trip lost data")
	}
}

func TestUncompressedServerIgnoresAcceptEncoding(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	in := compressiblePairs()
	if _, err := server.Put("ds1/t0/s0", in); err != nil {
		t.Fatal(err)
	}
	srv := serveStore(server)
	defer srv.Close()

	m := obs.NewMetrics()
	client := NewMemStore()
	client.SetMetrics(m)
	got, err := client.ReadAll(srv.URL + "/data/ds1_t0_s0")
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, in) {
		t.Fatal("round trip lost data")
	}
	if wire := m.Get(obs.MetricWireBytesDirect); wire < payloadBytes(in) {
		t.Errorf("identity wire bytes = %d, want >= payload %d", wire, payloadBytes(in))
	}
	// HTTP content negotiation plays no part: a deflate Accept-Encoding
	// gets the identity blocks as they are.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/data/ds1_t0_s0", nil)
	req.Header.Set("Accept-Encoding", "deflate")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Errorf("server set Content-Encoding %q", enc)
	}
}

func TestFileWireBytesCounted(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewFileStore(dir, "")
	s.SetCompress(true)
	in := compressiblePairs()
	d, err := s.Put("ds1/t0/s0", in)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	s.SetMetrics(m)
	if _, err := s.ReadAll(d.URL); err != nil {
		t.Fatal(err)
	}
	wire := m.Get(obs.MetricWireBytesShared)
	if wire == 0 || wire >= payloadBytes(in) {
		t.Errorf("shared wire bytes = %d, want 0 < wire < raw %d", wire, payloadBytes(in))
	}
}

// TestConnectionReuseAcrossFetches is the transport-tuning satellite:
// many sequential bucket fetches against one host must share a single
// TCP connection instead of redialing (the symptom of an untuned
// MaxIdleConnsPerHost once fetches overlap).
func TestConnectionReuseAcrossFetches(t *testing.T) {
	dir := t.TempDir()
	server, _ := NewFileStore(dir, "")
	const buckets = 24
	for i := 0; i < buckets; i++ {
		name := "ds1/t" + string(rune('a'+i)) + "/s0"
		if _, err := server.Put(name, compressiblePairs()); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	conns := map[string]bool{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/data/")
		path, err := server.ServeName(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ServeBucket(w, r, path)
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			conns[c.RemoteAddr().String()] = true
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()

	client := NewMemStore()
	for i := 0; i < buckets; i++ {
		name := "ds1_t" + string(rune('a'+i)) + "_s0"
		if _, err := client.ReadAll(srv.URL + "/data/" + name); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	n := len(conns)
	mu.Unlock()
	if n != 1 {
		t.Errorf("%d buckets used %d connections; sequential fetches must reuse one", buckets, n)
	}
}
