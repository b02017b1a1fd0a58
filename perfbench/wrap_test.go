package main

import "testing"

// TestWrappedRunsMatchUnwrapped checks that the traced run's wrappers
// only observe: on every workload, a wrapped cluster run produces the
// same step outputs as an unwrapped one, and the wrappers saw calls.
func TestWrappedRunsMatchUnwrapped(t *testing.T) {
	for _, name := range []string{"pso", "kmeans", "wordcount"} {
		t.Run(name, func(t *testing.T) {
			w := testWorkload(t, name)
			const n = 4
			plain, err := runSteps(w, n, localArgs, nil)
			if err != nil {
				t.Fatal(err)
			}
			probe, err := w.probe()
			if err != nil {
				t.Fatal(err)
			}
			lr, err := newLayerRun(probe)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := runSteps(w, n, localArgs, lr)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.rec.digests) != n || len(wrapped.rec.digests) != n {
				t.Fatalf("steps: plain %d, wrapped %d, want %d", len(plain.rec.digests), len(wrapped.rec.digests), n)
			}
			for i := range plain.rec.digests {
				if plain.rec.digests[i] != wrapped.rec.digests[i] {
					t.Errorf("step %d: wrapped output differs from unwrapped", i)
				}
			}
			if lr.calls.calls == 0 || lr.calls.emits == 0 {
				t.Errorf("wrappers saw %d calls and %d emits", lr.calls.calls, lr.calls.emits)
			}
			if len(lr.enqueueUS) != 2*enqueueRounds {
				t.Errorf("enqueue samples = %d, want %d", len(lr.enqueueUS), 2*enqueueRounds)
			}
		})
	}
}
