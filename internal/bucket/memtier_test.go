package bucket

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

const servingURL = "http://node1:9999/data"

// newServingStore returns a store with a baseURL — the kind slaves and
// the master run, which keeps small buckets in memory.
func newServingStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewFileStore(t.TempDir(), servingURL)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storeFiles lists the files in a store's directory.
func storeFiles(t *testing.T, s *Store) []string {
	t.Helper()
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// serveData exposes a store's data server the way master and slave
// mount it.
func serveData(s *Store) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ServeData(w, r, strings.TrimPrefix(r.URL.Path, "/data/"))
	}))
}

// oneRecordOfSize returns a single-record bucket whose default
// encoding (one identity row block) is exactly n bytes.
func oneRecordOfSize(t *testing.T, n int) []kvio.Pair {
	t.Helper()
	for v := n - 64; v < n; v++ {
		pairs := []kvio.Pair{{Key: []byte("k"), Value: bytes.Repeat([]byte{'x'}, v)}}
		var buf bytes.Buffer
		w := kvio.NewBlockWriter(&buf, nil, 0)
		w.Write(pairs[0])
		w.Close()
		if buf.Len() == n {
			return pairs
		}
	}
	t.Fatalf("no single record encodes to %d bytes", n)
	return nil
}

func TestMemTierBoundary(t *testing.T) {
	s := newServingStore(t)
	m := obs.NewMetrics()
	s.SetMetrics(m)

	// Exactly one buffer stays in memory: no file at all.
	fits := oneRecordOfSize(t, MemBucketBytes)
	d, err := s.Put("j1/ds1/t0/s0", fits)
	if err != nil {
		t.Fatal(err)
	}
	if d.URL != servingURL+"/j1_ds1_t0_s0" {
		t.Errorf("URL = %q", d.URL)
	}
	if n, b := s.Held(); n != 1 || b != MemBucketBytes {
		t.Fatalf("Held = %d buckets / %d bytes, want 1 / %d", n, b, MemBucketBytes)
	}
	if files := storeFiles(t, s); len(files) != 0 {
		t.Fatalf("in-memory bucket left files %v", files)
	}

	// One byte more spills to a file.
	over := oneRecordOfSize(t, MemBucketBytes+1)
	if _, err := s.Put("j1/ds1/t0/s1", over); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Held(); n != 1 {
		t.Fatalf("a %d-byte bucket was held in memory", MemBucketBytes+1)
	}
	if files := storeFiles(t, s); len(files) != 1 || files[0] != "j1_ds1_t0_s1"+BlockExt {
		t.Fatalf("spilled bucket files = %v", files)
	}
	if got := m.Get(obs.MetricBucketSpilled); got != 1 {
		t.Errorf("spilled counter = %d, want 1", got)
	}
	if got := m.Get(obs.MetricBucketMemBytes); got != MemBucketBytes {
		t.Errorf("held-bytes gauge = %d, want %d", got, MemBucketBytes)
	}
	if got := m.Get(obs.MetricBucketMemBuckets); got != 1 {
		t.Errorf("held-buckets gauge = %d, want 1", got)
	}

	// Both tiers read back the same way, locally and over HTTP.
	srv := serveData(s)
	defer srv.Close()
	client := NewMemStore()
	for name, want := range map[string][]kvio.Pair{"j1_ds1_t0_s0": fits, "j1_ds1_t0_s1": over} {
		got, err := client.ReadAll(srv.URL + "/data/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, want) {
			t.Errorf("%s: HTTP round trip lost data", name)
		}
	}
	rc, err := s.OpenLocal("j1/ds1/t0/s0")
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBlocks(t, rc)
	rc.Close()
	if !pairsEqual(got, fits) {
		t.Error("OpenLocal of a held bucket lost data")
	}
}

// A bucket larger than one buffer must stream to its file once it
// crosses the limit, not accumulate in memory until Close.
func TestMemTierSpillStreams(t *testing.T) {
	s := newServingStore(t)
	w, err := s.Create("j1/ds1/t0/s0")
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 1000)
	var want []kvio.Pair
	for i := 0; i < 1000; i++ { // ≈1 MB
		p := kvio.Pair{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: val}
		want = append(want, p)
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		if w.out.f == nil && len(w.out.buf) > MemBucketBytes {
			t.Fatalf("writer buffered %d bytes without spilling", len(w.out.buf))
		}
	}
	if w.out.f == nil || w.out.buf != nil {
		t.Fatal("a 1 MB bucket is still buffered in memory before Close")
	}
	fi, err := w.out.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 512<<10 {
		t.Errorf("temp file holds %d bytes before Close; the stream is not reaching it", fi.Size())
	}
	d, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Held(); n != 0 {
		t.Errorf("spilled bucket is also held in memory")
	}
	rc, err := s.OpenLocal(d.Name)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBlocks(t, rc)
	rc.Close()
	if !pairsEqual(got, want) {
		t.Fatal("spilled bucket read back wrong")
	}
}

func TestMemTierStoreCap(t *testing.T) {
	s := newServingStore(t)
	pairs := oneRecordOfSize(t, 1000)
	s.memCap = 2500 // room for two 1000-byte buckets
	for i := 0; i < 3; i++ {
		if _, err := s.Put(fmt.Sprintf("j1/ds1/t%d/s0", i), pairs); err != nil {
			t.Fatal(err)
		}
	}
	if n, b := s.Held(); n != 2 || b != 2000 {
		t.Fatalf("Held = %d / %d bytes, want 2 / 2000 under a 2500-byte cap", n, b)
	}
	if files := storeFiles(t, s); len(files) != 1 || files[0] != "j1_ds1_t2_s0"+BlockExt {
		t.Fatalf("the bucket crossing the cap should be the one file, got %v", files)
	}
	// Freeing room lets the next bucket into memory again.
	if err := s.Remove("j1/ds1/t0/s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("j1/ds1/t3/s0", pairs); err != nil {
		t.Fatal(err)
	}
	if n, b := s.Held(); n != 2 || b != 2000 {
		t.Fatalf("after Remove + Put: Held = %d / %d bytes, want 2 / 2000", n, b)
	}
	if files := storeFiles(t, s); len(files) != 1 {
		t.Fatalf("files = %v, want only the capped bucket", files)
	}
}

// storeSettings lists the store settings behind every at-rest form a
// bucket can take: the default ("plain", identity row blocks), Compress
// ("flate", deflate row blocks), and row and columnar blocks under each
// codec.
func storeSettings() []struct {
	name     string
	compress bool
	codec    string
	enc      string
} {
	type form = struct {
		name     string
		compress bool
		codec    string
		enc      string
	}
	forms := []form{{name: "plain"}, {name: "flate", compress: true}}
	for _, c := range wirecodec.Names() {
		forms = append(forms, form{name: "row-" + c, codec: c, enc: "row"})
		forms = append(forms, form{name: "columnar-" + c, codec: c, enc: "columnar"})
	}
	return forms
}

// memTierPairs is a bucket well under one buffer, with repeated keys
// so the columnar forms pick a dictionary.
func memTierPairs() []kvio.Pair {
	var pairs []kvio.Pair
	for i := 0; i < 150; i++ {
		pairs = append(pairs, kvio.StrPair(fmt.Sprintf("key-%02d", i%13), strings.Repeat("abcdef", 1+i%7)))
	}
	return pairs
}

// Serving a bucket from memory must be byte-identical to serving its
// file, for every at-rest form and every negotiation arm: verbatim,
// block transcode to each codec, and the identity fallback for clients
// that advertise nothing or nothing known.
func TestMemTierServesLikeFiles(t *testing.T) {
	in := memTierPairs()
	requests := map[string]map[string]string{
		"fleet":   {wirecodec.RequestHeader: wirecodec.AcceptHeader()},
		"none":    {},
		"unknown": {wirecodec.RequestHeader: "zstd-from-the-future"},
	}
	for _, c := range wirecodec.Names() {
		requests["only-"+c] = map[string]string{wirecodec.RequestHeader: c}
	}
	raw := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer raw.CloseIdleConnections()
	get := func(url string, hdr map[string]string) (http.Header, []byte) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := raw.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s %v", url, resp.Status, err)
		}
		return resp.Header, body
	}
	for _, f := range storeSettings() {
		t.Run(f.name, func(t *testing.T) {
			fileStore, err := NewFileStore(t.TempDir(), "")
			if err != nil {
				t.Fatal(err)
			}
			memStore := newServingStore(t)
			for _, s := range []*Store{fileStore, memStore} {
				s.SetCompress(f.compress)
				if err := s.SetCodec(f.codec); err != nil {
					t.Fatal(err)
				}
				if err := s.SetBlockEncoding(f.enc); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Put("j1/ds1/t0/s0", in); err != nil {
					t.Fatal(err)
				}
			}
			if n, _ := memStore.Held(); n != 1 {
				t.Fatal("serving store did not hold the bucket in memory")
			}
			if files := storeFiles(t, memStore); len(files) != 0 {
				t.Fatalf("serving store wrote files %v", files)
			}
			fileSrv := serveStore(fileStore)
			defer fileSrv.Close()
			memSrv := serveData(memStore)
			defer memSrv.Close()
			for rname, hdr := range requests {
				fh, fb := get(fileSrv.URL+"/data/j1_ds1_t0_s0", hdr)
				mh, mb := get(memSrv.URL+"/data/j1_ds1_t0_s0", hdr)
				if !bytes.Equal(fb, mb) {
					t.Errorf("%s: memory body (%d bytes) differs from file body (%d bytes)", rname, len(mb), len(fb))
				}
				for _, h := range []string{wirecodec.CodecHeader, wirecodec.BlockEncHeader, "Content-Length"} {
					if fh.Get(h) != mh.Get(h) {
						t.Errorf("%s: %s = %q from memory, %q from file", rname, h, mh.Get(h), fh.Get(h))
					}
				}
			}
			// And the fleet's own client decodes it.
			got, err := NewMemStore().ReadAll(memSrv.URL + "/data/j1_ds1_t0_s0")
			if err != nil || !pairsEqual(got, in) {
				t.Fatalf("store client round trip: %v", err)
			}
		})
	}
}

func TestMemTierRemoveReclaims(t *testing.T) {
	s := newServingStore(t)
	m := obs.NewMetrics()
	s.SetMetrics(m)
	in := memTierPairs()
	for _, name := range []string{"j1/ds1/t0/s0", "j1/ds1/t1/s0", "j2/ds1/t0/s0", "j10/ds1/t0/s0"} {
		if _, err := s.Put(name, in); err != nil {
			t.Fatal(err)
		}
	}
	_, per := s.Held()
	per /= 4
	if err := s.Remove("j1/ds1/t0/s0"); err != nil {
		t.Fatal(err)
	}
	if n, b := s.Held(); n != 3 || b != 3*per {
		t.Fatalf("after Remove: Held = %d / %d, want 3 / %d", n, b, 3*per)
	}
	if _, err := s.OpenLocal("j1/ds1/t0/s0"); err == nil {
		t.Error("removed bucket still opens")
	}
	n, err := s.RemoveJob(1)
	if err != nil || n != 1 {
		t.Fatalf("RemoveJob(1) = %d, %v; want 1 (j10 is another job)", n, err)
	}
	if got := s.HeldJob(10); got != 1 {
		t.Errorf("HeldJob(10) = %d after RemoveJob(1), want 1", got)
	}
	if n, b := s.Held(); n != 2 || b != 2*per {
		t.Fatalf("after RemoveJob: Held = %d / %d, want 2 / %d", n, b, 2*per)
	}
	if got := m.Get(obs.MetricBucketMemBytes); got != 2*per {
		t.Errorf("held-bytes gauge = %d, want %d", got, 2*per)
	}
	if got := m.Get(obs.MetricBucketMemBuckets); got != 2 {
		t.Errorf("held-buckets gauge = %d, want 2", got)
	}
	srv := serveData(s)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/data/j1_ds1_t1_s0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GC'd bucket served with status %s", resp.Status)
	}
}

// Two attempts publishing one bucket: the last Close wins, in either
// tier, and the held accounting counts the bucket once.
func TestMemTierDuplicatePublish(t *testing.T) {
	s := newServingStore(t)
	small := []kvio.Pair{kvio.StrPair("k", "first")}
	later := []kvio.Pair{kvio.StrPair("k", "second, longer")}
	big := oneRecordOfSize(t, MemBucketBytes+100)

	read := func() []kvio.Pair {
		t.Helper()
		rc, err := s.OpenLocal("j1/ds1/t0/s0")
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		return decodeBlocks(t, rc)
	}
	put := func(pairs []kvio.Pair) func() (Descriptor, error) {
		w, err := s.Create("j1/ds1/t0/s0")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if err := w.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		return w.Close
	}

	// Both in memory, interleaved: the later Close wins.
	closeA, closeB := put(small), put(later)
	if _, err := closeA(); err != nil {
		t.Fatal(err)
	}
	if _, err := closeB(); err != nil {
		t.Fatal(err)
	}
	if got := read(); !pairsEqual(got, later) {
		t.Fatalf("read %v, want the last publish", got)
	}
	if n, _ := s.Held(); n != 1 {
		t.Fatalf("one bucket published twice is held %d times", n)
	}

	// A spilled publish replaces the held copy...
	if _, err := put(big)(); err != nil {
		t.Fatal(err)
	}
	if n, b := s.Held(); n != 0 || b != 0 {
		t.Fatalf("held copy survived a later spilled publish: %d / %d", n, b)
	}
	if got := read(); !pairsEqual(got, big) {
		t.Fatal("read the stale held copy instead of the spilled file")
	}
	// ...and a held publish shadows the file; Remove clears both.
	if _, err := put(small)(); err != nil {
		t.Fatal(err)
	}
	if got := read(); !pairsEqual(got, small) {
		t.Fatal("later held publish not visible")
	}
	if err := s.Remove("j1/ds1/t0/s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenLocal("j1/ds1/t0/s0"); err == nil {
		t.Error("bucket still opens after Remove")
	}
	if files := storeFiles(t, s); len(files) != 0 {
		t.Errorf("Remove left files %v", files)
	}
}
