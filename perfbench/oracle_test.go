package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/wordcount"
)

// testSizes shrink every workload so a test run takes seconds.
var testSizes = sizes{
	psoDims: 5, psoSwarms: 4, psoSwarmSize: 3, psoInner: 2, psoTasks: 2,
	kmPoints: 400, kmDims: 3, kmK: 3, kmSplits: 2,
	wcFiles: 3, wcWords: 300, wcSplitsPerCorpus: 3, wcMapSplits: 2,
}

func testWorkload(t *testing.T, name string) *workload {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	w, err := newWorkload(name, 7, t.TempDir(), testSizes)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestVerifyCountsMissingAndDifferentSteps(t *testing.T) {
	a, b, c := [32]byte{1}, [32]byte{2}, [32]byte{3}
	for _, tc := range []struct {
		name      string
		ref, got  [][32]byte
		n         int
		iterative bool
		want      int
	}{
		{"all match", [][32]byte{a, b, c}, [][32]byte{a, b, c}, 3, true, 0},
		{"one differs", [][32]byte{a, b, c}, [][32]byte{a, c, c}, 3, true, 1},
		{"run stopped early", [][32]byte{a, b, c}, [][32]byte{a}, 3, true, 2},
		{"reference too short", [][32]byte{a}, [][32]byte{a, b}, 2, true, 1},
		{"repeated job past reference", [][32]byte{a, a}, [][32]byte{a, a, a, b}, 4, false, 1},
		{"no reference", nil, [][32]byte{a}, 1, false, 1},
	} {
		if got := verify(tc.ref, tc.got, tc.n, tc.iterative); got != tc.want {
			t.Errorf("%s: verify = %d failed, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCorruptedOutputCountsAsFailed runs wordcount on the cluster with a
// reduce that overcounts every word and checks that the serial oracle
// fails every step, while the same run with the real reduce passes.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	w := testWorkload(t, "wordcount")
	const n = 3
	ref, err := serialReference(w, n)
	if err != nil {
		t.Fatal(err)
	}
	bad := *w
	bad.register = func(reg *core.Registry) error {
		if err := w.register(reg); err != nil {
			return err
		}
		reg.RegisterReduce(wordcount.ReduceName, func(key []byte, values [][]byte, emit kvio.Emitter) error {
			return wordcount.Reduce(key, values, kvio.FuncEmitter(func(k, v []byte) error {
				c, err := codec.DecodeVarint(v)
				if err != nil {
					return err
				}
				return emit.Emit(k, codec.EncodeVarint(c+1))
			}))
		})
		return nil
	}
	got, err := runSteps(&bad, n, localArgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed := verify(ref.rec.digests, got.rec.digests, n, bad.iterative); failed != n {
		t.Fatalf("corrupted run: %d of %d steps failed, want all", failed, n)
	}
	good, err := runSteps(w, n, localArgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed := verify(ref.rec.digests, good.rec.digests, n, w.iterative); failed != 0 {
		t.Fatalf("uncorrupted run: %d of %d steps failed", failed, n)
	}
}

// TestMetricNamesMatchBenchmarkJSON runs both kinds of run on a small
// pso and checks they report exactly the metrics BENCHMARK.json names,
// with the units it names, and that every step verified.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t, "pso")
	for _, tc := range []struct {
		name  string
		run   func(*result) error
		names []struct{ Name, Unit string }
	}{
		{"timed", func(r *result) error { return timedRun(w, 25, r) }, spec.EndToEnd},
		{"traced", func(r *result) error { return tracedRun(w, 25, r, t.TempDir()) }, spec.PerLayer},
	} {
		res := &result{notes: map[string]string{}, meta: map[string]any{}}
		if err := tc.run(res); err != nil {
			t.Fatalf("%s run: %v", tc.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s run: correct=%v failed=%d attempted=%d", tc.name, res.Correct, res.Failed, res.Attempted)
		}
		var want, got []string
		for _, m := range tc.names {
			want = append(want, m.Name+" "+m.Unit)
		}
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if len(want) != len(got) {
			t.Fatalf("%s run reports %v\nBENCHMARK.json names %v", tc.name, got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s run reports %q where BENCHMARK.json names %q", tc.name, got[i], want[i])
			}
		}
	}
}
