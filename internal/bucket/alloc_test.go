//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// allocation bound only holds in normal builds.

package bucket

import (
	"runtime"
	"testing"

	"repro/internal/kvio"
)

// TestCreateSmallBucketAllocBytes bounds the bytes a small bucket
// allocates: a block writer's pending buffer (DefaultBlockSize) comes
// from a pool, never fresh per bucket.
func TestCreateSmallBucketAllocBytes(t *testing.T) {
	serving, err := NewFileStore(t.TempDir(), servingURL)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"mem": NewMemStore(), "serving": serving} {
		const n = 200
		if err := createSmallBucket(s); err != nil { // warm the pools
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			if err := createSmallBucket(s); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		// A pool emptied by a GC mid-loop costs one buffer; a fresh
		// buffer per bucket costs n.
		if per := (m1.TotalAlloc - m0.TotalAlloc) / n; per > kvio.DefaultBlockSize/16 {
			t.Errorf("%s: a small bucket allocates %d bytes, want <= %d", name, per, kvio.DefaultBlockSize/16)
		}
	}
}
