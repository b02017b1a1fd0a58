package bucket

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// TestEveryBucketIsABlockStream is the one-format invariant: whatever
// the store kind and settings, every bucket written is a kvio block
// stream at rest and on the wire, and round-trips through Open, Fetch
// and ReadAll.
func TestEveryBucketIsABlockStream(t *testing.T) {
	small := memTierPairs()
	var big []kvio.Pair // several incompressible blocks: spills a serving store
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		v := make([]byte, 64)
		rng.Read(v)
		big = append(big, kvio.Pair{Key: []byte(fmt.Sprintf("key-%05d", i)), Value: v})
	}
	kinds := []struct {
		name  string
		store func(t *testing.T) *Store
		pairs []kvio.Pair
	}{
		{"mem", func(*testing.T) *Store { return NewMemStore() }, small},
		{"file", func(t *testing.T) *Store {
			s, err := NewFileStore(t.TempDir(), "")
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, small},
		{"serving-held", servingStoreOnServer, small},
		{"serving-spilled", servingStoreOnServer, big},
	}
	settings := []struct {
		name     string
		compress bool
		opts     CreateOpts
	}{
		{name: "default"},
		{name: "compress", compress: true},
		{name: "codec-pin", opts: CreateOpts{Codec: wirecodec.LZName}},
		{name: "columnar-pin", opts: CreateOpts{BlockEncoding: kvio.EncColumnar}},
	}
	for _, k := range kinds {
		for _, set := range settings {
			t.Run(k.name+"/"+set.name, func(t *testing.T) {
				s := k.store(t)
				s.SetCompress(set.compress)
				w, err := s.CreateOpts("j1/ds1/t0/s0", set.opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range k.pairs {
					if err := w.Write(p); err != nil {
						t.Fatal(err)
					}
				}
				d, err := w.Close()
				if err != nil {
					t.Fatal(err)
				}
				held, _ := s.Held()
				if k.name == "serving-held" && held != 1 || k.name == "serving-spilled" && held != 0 {
					t.Fatalf("%d buckets held in memory", held)
				}
				rc, err := s.OpenLocal(d.Name)
				if err != nil {
					t.Fatal(err)
				}
				atRest, err := io.ReadAll(rc)
				rc.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(atRest, kvio.BlockMagic[:]) {
					t.Fatalf("at-rest bucket starts % x, not the block magic", atRest[:min(8, len(atRest))])
				}
				wire, err := s.Fetch(d.URL)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(wire, kvio.BlockMagic[:]) {
					t.Fatalf("fetched bucket starts % x, not the block magic", wire[:min(8, len(wire))])
				}
				if got := decodeBlocks(t, bytes.NewReader(wire)); !pairsEqual(got, k.pairs) {
					t.Error("Fetch round trip lost data")
				}
				rc, err = s.Open(d.URL)
				if err != nil {
					t.Fatal(err)
				}
				got := decodeBlocks(t, rc)
				rc.Close()
				if !pairsEqual(got, k.pairs) {
					t.Error("Open round trip lost data")
				}
				if got, err := s.ReadAll(d.URL); err != nil || !pairsEqual(got, k.pairs) {
					t.Errorf("ReadAll round trip: %v", err)
				}
			})
		}
	}
}

// servingStoreOnServer returns a serving store whose advertised URLs
// reach its own data server.
func servingStoreOnServer(t *testing.T) *Store {
	var s *Store
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ServeData(w, r, strings.TrimPrefix(r.URL.Path, "/data/"))
	}))
	t.Cleanup(srv.Close)
	s, err := NewFileStore(t.TempDir(), srv.URL+"/data")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseIdle)
	return s
}

// TestFileURLClassifiedByBaseName: a file:// URL's at-rest form comes
// from the file name's suffix alone, so a store directory named like a
// form ("run.mrc.d", "run.mrb.fz.d") does not skew the per-codec or
// per-encoding wire counters.
func TestFileURLClassifiedByBaseName(t *testing.T) {
	in := compressiblePairs()
	for _, tc := range []struct {
		dir, codec, enc string
		wantCodec       string
		wantKind        string
	}{
		{"run.mrc.d", "", "", wirecodec.IdentityName, wirecodec.BlockKindRow},
		{"run.mrb.fz.d", wirecodec.LZName, kvio.EncColumnar, wirecodec.LZName, wirecodec.BlockKindColumnar},
		{"run.mrc.lz.d", wirecodec.DeflateName, "", wirecodec.DeflateName, wirecodec.BlockKindRow},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			s, err := NewFileStore(filepath.Join(t.TempDir(), tc.dir), "")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetCodec(tc.codec); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBlockEncoding(tc.enc); err != nil {
				t.Fatal(err)
			}
			d, err := s.Put("j1/ds1/t0/s0", in)
			if err != nil {
				t.Fatal(err)
			}
			m := obs.NewMetrics()
			s.SetMetrics(m)
			if got, err := s.ReadAll(d.URL); err != nil || !pairsEqual(got, in) {
				t.Fatalf("round trip: %v", err)
			}
			wire := m.Get(obs.MetricWireBytesShared)
			if wire == 0 {
				t.Fatal("no shared wire bytes counted")
			}
			if got := m.Get(obs.MetricWireBytesCodec(tc.wantCodec)); got != wire {
				t.Errorf("%s wire bytes = %d, want all %d", tc.wantCodec, got, wire)
			}
			if got := m.Get(obs.MetricWireBytesEncoding(tc.wantKind)); got != wire {
				t.Errorf("%s wire bytes = %d, want all %d", tc.wantKind, got, wire)
			}
		})
	}
}

// smallRecord is the ~100-byte record of the small-bucket gate.
var smallRecord = kvio.StrPair("small-bucket-key", strings.Repeat("v", 84))

// createSmallBucket writes one small record as a bucket.
func createSmallBucket(s *Store) error {
	w, err := s.Create("j1/ds1/t0/s0")
	if err != nil {
		return err
	}
	if err := w.Write(smallRecord); err != nil {
		return err
	}
	_, err = w.Close()
	return err
}

// BenchmarkCreateSmallBucket is the per-bucket cost of the commonest
// bucket: created, one ~100-byte record written, closed, on a memory
// store and held by a serving store. scripts/alloc_thresholds.txt gates
// its allocs/op.
func BenchmarkCreateSmallBucket(b *testing.B) {
	serving, err := NewFileStore(b.TempDir(), servingURL)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range []struct {
		name string
		s    *Store
	}{{"mem", NewMemStore()}, {"serving", serving}} {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := createSmallBucket(st.s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzServeData drives the bucket server's edge: arbitrary codec
// advertisements and arbitrary at-rest bytes, held in memory or in a
// file under each at-rest suffix, served through Store.ServeData. It
// must not panic, and must answer 4xx or a 200 whose body the block
// reader decodes or rejects with ErrBlockCorrupt or ErrBlockChecksum.
func FuzzServeData(f *testing.F) {
	pairs := memTierPairs()
	for i, set := range []struct {
		codec, enc string
	}{{"", ""}, {wirecodec.DeflateName, ""}, {wirecodec.LZName, kvio.EncColumnarDict}, {wirecodec.IdentityName, kvio.EncColumnarDelta}} {
		c, _ := wirecodec.Lookup(set.codec)
		enc, _ := kvio.ParseBlockEncoding(set.enc)
		var buf bytes.Buffer
		w := kvio.NewBlockWriterEnc(&buf, c, 256, enc)
		for _, p := range pairs {
			w.Write(p)
		}
		w.Close()
		valid := buf.Bytes()
		f.Add(wirecodec.AcceptHeader(), valid, uint8(2*i), i%2 == 0)
		f.Add("identity", valid, uint8(2*i+1), i%2 == 1)
		f.Add("zstd-from-the-future, lz;q=0.5", valid[:len(valid)/2], uint8(i), true)
		f.Add("", append(append([]byte(nil), valid[:40]...), 0xFF, 0xFF), uint8(i), false)
	}
	f.Add("deflate", kvio.Marshal(pairs), uint8(0), false) // a per-record stream
	f.Add("", []byte{}, uint8(3), true)

	s, err := NewFileStore(f.TempDir(), servingURL)
	if err != nil {
		f.Fatal(err)
	}
	forms := atRestForms(filepath.Join(s.Dir(), "j1_ds1_t0_s0"))
	f.Fuzz(func(t *testing.T, accept string, atRest []byte, form uint8, held bool) {
		s.Remove("j1/ds1/t0/s0")
		ar := forms[int(form)%len(forms)]
		if held {
			s.hold("j1_ds1_t0_s0", heldBucket{data: atRest, form: ar})
		} else if err := os.WriteFile(ar.path, atRest, 0o644); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, "/data/j1_ds1_t0_s0", nil)
		req.Header.Set(wirecodec.RequestHeader, accept)
		rec := httptest.NewRecorder()
		s.ServeData(rec, req, "j1_ds1_t0_s0")
		switch {
		case rec.Code >= 400 && rec.Code < 500:
			return
		case rec.Code != http.StatusOK:
			t.Fatalf("status %d", rec.Code)
		}
		br, err := kvio.NewBlockReader(rec.Body)
		if err == nil {
			_, err = br.ReadAll()
			br.Release()
		}
		if err != nil && !errors.Is(err, kvio.ErrBlockCorrupt) && !errors.Is(err, kvio.ErrBlockChecksum) {
			t.Fatalf("served body rejected with untyped error %v", err)
		}
	})
}
