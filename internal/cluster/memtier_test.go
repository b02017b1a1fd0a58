package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvio"
)

// A Free queues deletes for bucket names that the next job-0 run
// reuses (ds1_t0_s0, ...). The deletes must reach each slave no later
// than the first task of the new job, never after it has rewritten the
// name — otherwise the new job's output vanishes under it.
func TestFreeThenNewJobKeepsItsBuckets(t *testing.T) {
	// settle covers every long poll (1s each) between a queued delete
	// and the slave: one in the star, two in the tree.
	for _, tc := range []struct {
		name   string
		opts   Options
		settle time.Duration
	}{
		{"star", Options{Slaves: 2}, 1200 * time.Millisecond},
		{"tree", Options{Slaves: 2, SubMasters: 1}, 2200 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Start(testRegistry(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			want := len(inputPairs())
			run := func() *core.Dataset {
				job := core.NewJob(c.Executor())
				src, err := job.LocalData(inputPairs(), core.OpOpts{Splits: 2, Partition: "roundrobin"})
				if err != nil {
					t.Fatal(err)
				}
				out, err := job.Map(src, "identity", core.OpOpts{Splits: 2})
				if err != nil {
					t.Fatal(err)
				}
				if pairs, err := out.Collect(); err != nil || len(pairs) != want {
					t.Fatalf("collect: %d pairs, err %v; want %d", len(pairs), err, want)
				}
				if err := job.Close(); err != nil {
					t.Fatal(err)
				}
				return out
			}
			prev := run()
			for i := 0; i < 2; i++ {
				// The slaves are parked in get_task long polls when the
				// deletes are queued, so the new job's tasks arrive on
				// those polls.
				if err := prev.Free(); err != nil {
					t.Fatal(err)
				}
				out := run()
				// Once every queued delete has been delivered, the new
				// output must still be there.
				time.Sleep(tc.settle)
				if pairs, err := out.Collect(); err != nil || len(pairs) != want {
					t.Fatalf("round %d: a delete from the freed run removed the new run's buckets: %d pairs, err %v",
						i, len(pairs), err)
				}
				prev = out
			}
		})
	}
}

// Fifty MapReduce + Free iterations must leave every slave's memory
// tier where it started: MapReduce frees its hidden intermediate, the
// caller frees the output, and the deletes reclaim the held bytes.
func TestIterationsLeaveHeldBucketsFlat(t *testing.T) {
	c, err := Start(testRegistry(), Options{Slaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	held := func() (buckets int, bytes int64) {
		for i := 0; i < c.NumSlaves(); i++ {
			n, b := c.Slave(i).Store().Held()
			buckets += n
			bytes += b
		}
		return buckets, bytes
	}
	job := core.NewJob(c.Executor())
	defer job.Close()
	src, err := job.LocalData(inputPairs(), core.OpOpts{Splits: 3, Partition: "roundrobin"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Collect(); err != nil {
		t.Fatal(err)
	}
	startBuckets, startBytes := held()
	masterBuckets, masterBytes := c.M.Store().Held()
	peak := 0
	var last []kvio.Pair
	for i := 0; i < 50; i++ {
		out, err := job.MapReduce(src, "split", "sum",
			core.OpOpts{Splits: 4, Combine: "sum"}, core.OpOpts{Splits: 2})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := out.CollectSorted()
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && !samePairs(pairs, last) {
			t.Fatalf("iteration %d: output changed", i)
		}
		last = pairs
		if n, _ := held(); n > peak {
			peak = n
		}
		if err := out.Free(); err != nil {
			t.Fatal(err)
		}
	}
	if peak == 0 {
		t.Fatal("no slave ever held a bucket in memory; the test observes nothing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, b := held()
		if n == startBuckets && b == startBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 50 iterations slaves hold %d buckets / %d bytes, started at %d / %d (peak %d buckets)",
				n, b, startBuckets, startBytes, peak)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n, b := c.M.Store().Held(); n != masterBuckets || b != masterBytes {
		t.Errorf("master holds %d buckets / %d bytes, started at %d / %d", n, b, masterBuckets, masterBytes)
	}
}
