package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kmeans"
	"repro/internal/kvio"
	"repro/internal/pso"
	"repro/internal/wordcount"
)

// workload is one input shape driven through mrs.Run. Its inputs are
// generated from the seed before any timing starts; the program sees
// only those inputs.
type workload struct {
	// maps and reduces name every function register installs, factories
	// included, so the traced run can wrap each of them.
	maps, reduces []string
	// splits is the output split count of each function's operation,
	// so that tasks·splits counts the buckets a step publishes.
	splits   map[string]int
	register func(reg *core.Registry) error
	// load queues the input dataset and waits until it is ready; it is
	// the last part of set-up.
	load func(job *core.Job) error
	// drive runs n steps on job: it loads what it needs, calls
	// rec.begin once stepping starts, reports every step to rec, and
	// calls rec.end after the last.
	drive func(job *core.Job, n int, rec *recorder) error
	// stepsPerSecond sizes a run: a run of s seconds drives
	// stepsPerSecond·s steps on the cluster.
	stepsPerSecond float64
	// iterative marks workloads whose step i depends on step i−1, so the
	// serial reference must run every step; otherwise each step is the
	// same job and serialRepeats of them give the reference.
	iterative bool
	// probe is the workload's own data for the per-layer probes.
	probe func() (*probeInput, error)
}

// recorder collects one run's step latencies and output digests and
// owns the window its CPU and allocation figures come from.
type recorder struct {
	durs    []time.Duration
	digests [][32]byte
	win     window
	// onBegin and onEnd, when set, run just inside the window's edges
	// (the traced run snapshots counters there).
	onBegin, onEnd func()
}

func (r *recorder) begin() {
	r.win.begin()
	if r.onBegin != nil {
		r.onBegin()
	}
}

func (r *recorder) end() {
	if r.onEnd != nil {
		r.onEnd()
	}
	r.win.end()
}

// step records one finished step: its latency and the bytes that must
// match the serial run.
func (r *recorder) step(d time.Duration, out []byte) {
	r.durs = append(r.durs, d)
	r.digests = append(r.digests, sha256.Sum256(out))
}

// probeInput is what the layer probes feed each module: records made by
// the workload's registered map function from its generated input, and
// the map task as the master ships it.
type probeInput struct {
	records []kvio.Pair     // one map task's output, before combining
	combine core.ReduceFunc // the map-side combiner (nil = none)
	spec    *core.TaskSpec
	// shape is the map+reduce pair the workload queues per step.
	shape opShape
}

// opShape is a map and reduce as a workload queues them, over a small
// source of its own input records.
type opShape struct {
	src                 []kvio.Pair
	srcSplits           int
	mapName, reduceName string
	mapOpts, reduceOpts core.OpOpts
}

// sizes are the input sizes of the three workloads.
type sizes struct {
	psoDims, psoSwarms, psoSwarmSize, psoInner, psoTasks int
	kmPoints, kmDims, kmK, kmSplits                      int
	wcFiles, wcWords, wcSplitsPerCorpus, wcMapSplits     int
}

// benchSizes are the sizes the benchmark runs.
var benchSizes = sizes{
	psoDims: 30, psoSwarms: 4, psoSwarmSize: 5, psoInner: 5, psoTasks: 4,
	kmPoints: 40000, kmDims: 16, kmK: 8, kmSplits: 4,
	wcFiles: 16, wcWords: 20000, wcSplitsPerCorpus: 8, wcMapSplits: 4,
}

// newWorkload builds the named workload's inputs from seed; file inputs
// go under dir.
func newWorkload(name string, seed uint64, dir string, sz sizes) (*workload, error) {
	switch name {
	case "pso":
		return psoWorkload(seed, sz), nil
	case "kmeans":
		return kmeansWorkload(seed, sz)
	case "wordcount":
		return wordcountWorkload(seed, dir, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (have pso, kmeans, wordcount)", name)
}

// psoWorkload is Apiary PSO on Rosenbrock through pso.RunMapReduce,
// which queues iteration i+1 before it collects check i. A step is one
// outer iteration: the interval between successive check completions,
// and its output is that check's best value.
func psoWorkload(seed uint64, sz sizes) *workload {
	cfg := pso.Config{
		Function:   pso.Rosenbrock.Name,
		Dims:       sz.psoDims,
		NumSwarms:  sz.psoSwarms,
		SwarmSize:  sz.psoSwarmSize,
		InnerIters: sz.psoInner,
		Tasks:      sz.psoTasks,
		Seed:       seed,
	}
	// The same initial population pso.RunMapReduce builds.
	pairs := make([]kvio.Pair, cfg.NumSwarms)
	for i := range pairs {
		s := pso.NewSwarm(pso.Rosenbrock, cfg.Dims, cfg.SwarmSize, int64(i), cfg.Seed)
		pairs[i] = kvio.Pair{Key: codec.EncodeVarint(s.ID), Value: pso.EncodeSwarm(s)}
	}
	register := func(reg *core.Registry) error { return pso.Register(reg, cfg) }
	return &workload{
		maps:    []string{pso.MoveName, pso.BestName},
		reduces: []string{pso.MergeName, pso.MinName},
		splits: map[string]int{pso.MoveName: cfg.Tasks, pso.MergeName: cfg.Tasks,
			pso.BestName: 1, pso.MinName: 1},
		register: register,
		load: func(job *core.Job) error {
			ds, err := job.LocalData(pairs, core.OpOpts{Splits: cfg.Tasks})
			if err != nil {
				return err
			}
			return ds.Wait()
		},
		drive: func(job *core.Job, n int, rec *recorder) error {
			c := cfg
			c.MaxOuter = n
			rec.begin()
			res, err := pso.RunMapReduce(job, c)
			rec.end()
			if err != nil {
				return err
			}
			var prev time.Duration
			for _, pt := range res.History {
				rec.step(pt.Elapsed-prev, codec.EncodeInt64(int64(math.Float64bits(pt.Best))))
				prev = pt.Elapsed
			}
			return nil
		},
		stepsPerSecond: 30,
		iterative:      true,
		probe: func() (*probeInput, error) {
			op := &core.Operation{Dataset: 5, Kind: core.OpMap, Input: 4, FuncName: pso.MoveName,
				Splits: cfg.Tasks, Resident: true}
			pi, err := mapProbe(register, op, pairs)
			if err != nil {
				return nil, err
			}
			pi.shape = opShape{src: pairs, srcSplits: cfg.Tasks,
				mapName: pso.MoveName, mapOpts: core.OpOpts{Splits: cfg.Tasks, Resident: true},
				reduceName: pso.MergeName, reduceOpts: core.OpOpts{Splits: cfg.Tasks, KeyAligned: true}}
			return pi, nil
		},
	}
}

// kmeansWorkload is k-means over a resident point set. A step is one
// kmeans.RunMapReduce superstep (assign map, update reduce, Collect);
// its output is the new centroids, which seed the next step.
func kmeansWorkload(seed uint64, sz sizes) (*workload, error) {
	cfg := kmeans.Config{K: sz.kmK, Dims: sz.kmDims, Tasks: sz.kmSplits, Seed: seed, MaxIters: 1}
	points, _, err := kmeans.GeneratePoints(cfg, sz.kmPoints)
	if err != nil {
		return nil, err
	}
	initial, err := kmeans.InitialCentroids(cfg, points)
	if err != nil {
		return nil, err
	}
	pairs := kmeans.PointPairs(points)
	load := func(job *core.Job) (*core.Dataset, error) {
		ds, err := job.LocalData(pairs, core.OpOpts{Splits: sz.kmSplits})
		if err != nil {
			return nil, err
		}
		return ds, ds.Wait()
	}
	register := func(reg *core.Registry) error { kmeans.Register(reg); return nil }
	return &workload{
		maps:     []string{kmeans.AssignName},
		reduces:  []string{kmeans.UpdateName},
		splits:   map[string]int{kmeans.AssignName: 1, kmeans.UpdateName: 1},
		register: register,
		load: func(job *core.Job) error {
			_, err := load(job)
			return err
		},
		drive: func(job *core.Job, n int, rec *recorder) error {
			ds, err := load(job)
			if err != nil {
				return err
			}
			rec.begin()
			defer rec.end()
			cents := initial
			for i := 0; i < n; i++ {
				start := time.Now()
				res, err := kmeans.RunMapReduce(job, cfg, ds, cents)
				if err != nil {
					return err
				}
				cents = res.Centroids
				rec.step(time.Since(start), kmeans.EncodeCentroids(cents))
			}
			return nil
		},
		stepsPerSecond: 8,
		iterative:      true,
		probe: func() (*probeInput, error) {
			op := &core.Operation{Dataset: 3, Kind: core.OpMap, Input: 0, FuncName: kmeans.AssignName,
				CombineName: kmeans.UpdateName, Splits: 1, Partition: "constant",
				Params: kmeans.EncodeCentroids(initial), Resident: true}
			pi, err := mapProbe(register, op, pairs[:len(pairs)/sz.kmSplits])
			if err != nil {
				return nil, err
			}
			pi.shape = opShape{src: pairs[:min(64, len(pairs))], srcSplits: sz.kmSplits,
				mapName: kmeans.AssignName, mapOpts: core.OpOpts{Splits: 1, Partition: "constant",
					Combine: kmeans.UpdateName, Params: op.Params, Resident: true},
				reduceName: kmeans.UpdateName, reduceOpts: core.OpOpts{Splits: 1, Partition: "constant", KeyAligned: true}}
			return pi, nil
		},
	}, nil
}

// wordcountWorkload counts words of a Zipf corpus with wordcount.Run,
// combiner on. A step is one whole job and a sorted Collect of it.
func wordcountWorkload(seed uint64, dir string, sz sizes) (*workload, error) {
	paths, st, err := corpus.Generate(filepath.Join(dir, "corpus"), corpus.Spec{
		Files: sz.wcFiles, MeanWords: sz.wcWords, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	opts := wordcount.Options{SplitBytes: st.Bytes / int64(sz.wcSplitsPerCorpus), MapSplits: sz.wcMapSplits}
	register := func(reg *core.Registry) error { wordcount.Register(reg); return nil }
	return &workload{
		maps:     []string{wordcount.MapName},
		reduces:  []string{wordcount.ReduceName},
		splits:   map[string]int{wordcount.MapName: sz.wcMapSplits, wordcount.ReduceName: sz.wcMapSplits},
		register: register,
		load: func(job *core.Job) error {
			ds, err := job.TextFileDataSplit(paths, opts.SplitBytes)
			if err != nil {
				return err
			}
			return ds.Wait()
		},
		drive: func(job *core.Job, n int, rec *recorder) error {
			rec.begin()
			defer rec.end()
			for i := 0; i < n; i++ {
				start := time.Now()
				out, err := wordcount.Run(job, paths, opts)
				if err != nil {
					return err
				}
				pairs, err := out.CollectSorted()
				if err != nil {
					return err
				}
				rec.step(time.Since(start), kvio.Marshal(pairs))
				if err := out.Free(); err != nil {
					return err
				}
			}
			return nil
		},
		stepsPerSecond: 2.3,
		probe: func() (*probeInput, error) {
			data, err := os.ReadFile(paths[0])
			if err != nil {
				return nil, err
			}
			var lines []kvio.Pair
			for off := 0; off < len(data); {
				end := off
				for end < len(data) && data[end] != '\n' {
					end++
				}
				lines = append(lines, kvio.Pair{Key: codec.EncodeVarint(int64(off)), Value: data[off:end]})
				off = end + 1
			}
			op := &core.Operation{Dataset: 1, Kind: core.OpMap, Input: 0, FuncName: wordcount.MapName,
				CombineName: wordcount.ReduceName, Splits: sz.wcMapSplits}
			pi, err := mapProbe(register, op, lines)
			if err != nil {
				return nil, err
			}
			pi.shape = opShape{src: lines[:min(64, len(lines))], srcSplits: sz.wcMapSplits,
				mapName: wordcount.MapName, mapOpts: core.OpOpts{Splits: sz.wcMapSplits, Combine: wordcount.ReduceName},
				reduceName: wordcount.ReduceName, reduceOpts: core.OpOpts{Splits: sz.wcMapSplits}}
			return pi, nil
		},
	}, nil
}

// mapProbe runs op's registered map function over input records and
// packages the output with the task spec a master would ship for op.
func mapProbe(register func(*core.Registry) error, op *core.Operation, input []kvio.Pair) (*probeInput, error) {
	reg := core.NewRegistry()
	if err := register(reg); err != nil {
		return nil, err
	}
	fn, err := reg.Map(op.FuncName, op.Params)
	if err != nil {
		return nil, err
	}
	var out kvio.SliceEmitter
	for _, p := range input {
		if err := fn(p.Key, p.Value, &out); err != nil {
			return nil, fmt.Errorf("probe input: %w", err)
		}
	}
	var combine core.ReduceFunc
	if op.CombineName != "" {
		if combine, err = reg.Reduce(op.CombineName, op.Params); err != nil {
			return nil, err
		}
	}
	return &probeInput{
		records: out.Pairs,
		combine: combine,
		spec: &core.TaskSpec{Op: op, Job: 1, TraceID: 77, TaskIndex: 0, InputDataset: op.Input,
			InputURLs:   []string{fmt.Sprintf("http://127.0.0.1:40123/data/j1_ds%d_t0_s0", op.Input)},
			InputFormat: core.FormatKV},
	}, nil
}
