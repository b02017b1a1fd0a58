package pso

import (
	"fmt"
	"math"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kvio"
)

// Function names registered by Register. The same names are registered
// in the master and slave processes, parameterized by an identical
// Config, exactly as a Mrs program class exists in every process.
const (
	MoveName  = "pso_move"
	MergeName = "pso_merge"
	BestName  = "pso_best"
	MinName   = "pso_min"
)

// Config parameterizes an Apiary PSO run.
type Config struct {
	// Function is the objective name (resolved via FunctionByName).
	Function string
	// Dims is the dimensionality (the paper uses Rosenbrock-250).
	Dims int
	// NumSwarms is the number of subswarms (islands).
	NumSwarms int
	// SwarmSize is the number of particles per subswarm.
	SwarmSize int
	// InnerIters is how many PSO iterations a map task runs per
	// MapReduce iteration (subswarm granularity, §V-B).
	InnerIters int
	// Seed drives every pseudorandom stream in the run.
	Seed uint64
	// Target stops the run when the global best reaches it (0 disables).
	Target float64
	// MaxOuter bounds the number of MapReduce iterations.
	MaxOuter int
	// Tasks is the number of map/reduce splits (parallelism).
	Tasks int
	// CheckEvery controls how often the convergence check runs, in
	// outer iterations (default 1).
	CheckEvery int
}

func (c *Config) fill() error {
	if c.Function == "" {
		c.Function = Rosenbrock.Name
	}
	if _, err := FunctionByName(c.Function); err != nil {
		return err
	}
	if c.Dims <= 0 {
		c.Dims = 250
	}
	if c.NumSwarms <= 0 {
		c.NumSwarms = 8
	}
	if c.SwarmSize <= 0 {
		c.SwarmSize = 5
	}
	if c.InnerIters <= 0 {
		c.InnerIters = 10
	}
	if c.MaxOuter <= 0 {
		c.MaxOuter = 100
	}
	if c.Tasks <= 0 {
		c.Tasks = c.NumSwarms
	}
	if c.Tasks > c.NumSwarms {
		c.Tasks = c.NumSwarms
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 1
	}
	return nil
}

// Register installs the PSO map/reduce functions bound to cfg.
func Register(reg *core.Registry, cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	f, err := FunctionByName(cfg.Function)
	if err != nil {
		return err
	}

	// Move: advance one subswarm InnerIters iterations, then send the
	// updated state to itself and a best-message to each ring neighbor.
	reg.RegisterMap(MoveName, func(key, value []byte, emit kvio.Emitter) error {
		s, err := DecodeSwarm(value)
		if err != nil {
			return err
		}
		s.StepMany(f, cfg.Seed, cfg.InnerIters)
		if err := emit.Emit(key, EncodeSwarm(s)); err != nil {
			return err
		}
		if cfg.NumSwarms > 1 && len(s.BestPos) > 0 {
			msg := EncodeBest(s.BestVal, s.BestPos)
			left := (s.ID - 1 + int64(cfg.NumSwarms)) % int64(cfg.NumSwarms)
			right := (s.ID + 1) % int64(cfg.NumSwarms)
			for _, nb := range []int64{left, right} {
				if nb == s.ID {
					continue
				}
				if err := emit.Emit(codec.EncodeVarint(nb), msg); err != nil {
					return err
				}
			}
		}
		return nil
	})

	// Merge: fold neighbor best-messages into the subswarm state.
	reg.RegisterReduce(MergeName, func(key []byte, values [][]byte, emit kvio.Emitter) error {
		var s *Swarm
		type bestMsg struct {
			val float64
			pos []float64
		}
		var msgs []bestMsg
		for _, v := range values {
			tag, err := ValueTag(v)
			if err != nil {
				return err
			}
			switch tag {
			case tagState:
				if s != nil {
					return fmt.Errorf("pso: two states for key %x", key)
				}
				s, err = DecodeSwarm(v)
				if err != nil {
					return err
				}
			case tagBest:
				val, pos, err := DecodeBest(v)
				if err != nil {
					return err
				}
				msgs = append(msgs, bestMsg{val, pos})
			default:
				return fmt.Errorf("pso: unknown tag %d", tag)
			}
		}
		if s == nil {
			return fmt.Errorf("pso: no state for key %x", key)
		}
		for _, m := range msgs {
			s.AbsorbExternal(m.pos, m.val)
		}
		return emit.Emit(key, EncodeSwarm(s))
	})

	// Best extraction: one record per subswarm under a single key.
	reg.RegisterMap(BestName, func(key, value []byte, emit kvio.Emitter) error {
		s, err := DecodeSwarm(value)
		if err != nil {
			return err
		}
		return emit.Emit([]byte("best"), codec.EncodeFloat64(s.BestVal))
	})

	// Global min: the convergence check's reduce.
	reg.RegisterReduce(MinName, func(key []byte, values [][]byte, emit kvio.Emitter) error {
		best := math.Inf(1)
		for _, v := range values {
			x, err := codec.DecodeFloat64(v)
			if err != nil {
				return err
			}
			if x < best {
				best = x
			}
		}
		return emit.Emit(key, codec.EncodeFloat64(best))
	})
	return nil
}

// Point is one sample of the convergence trajectory (Figure 4's axes:
// best value vs function evaluations and vs wall time).
type Point struct {
	OuterIter   int
	Evaluations int64
	Best        float64
	Elapsed     time.Duration
}

// Result summarizes a PSO run.
type Result struct {
	Best        float64
	OuterIters  int
	Evaluations int64
	Elapsed     time.Duration
	History     []Point
	// Converged reports whether Target was reached.
	Converged bool
}

// evalsPerOuter is the number of function evaluations per outer
// iteration across all subswarms.
func (c *Config) evalsPerOuter() int64 {
	return int64(c.NumSwarms) * int64(c.SwarmSize) * int64(c.InnerIters)
}

// initialSwarms builds the deterministic starting population.
func initialSwarms(cfg Config) ([]*Swarm, error) {
	f, err := FunctionByName(cfg.Function)
	if err != nil {
		return nil, err
	}
	swarms := make([]*Swarm, cfg.NumSwarms)
	for i := range swarms {
		swarms[i] = NewSwarm(f, cfg.Dims, cfg.SwarmSize, int64(i), cfg.Seed)
	}
	return swarms, nil
}

// RunSerial executes the identical Apiary dynamics in a plain loop —
// the paper's serial baseline and the reference for the "all execution
// modes agree" invariant.
func RunSerial(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	f, _ := FunctionByName(cfg.Function)
	swarms, err := initialSwarms(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Best: math.Inf(1)}
	for outer := 0; outer < cfg.MaxOuter; outer++ {
		for _, s := range swarms {
			s.StepMany(f, cfg.Seed, cfg.InnerIters)
		}
		// Exchange bests around the subswarm ring, mirroring the
		// map-emit / reduce-absorb cycle.
		if cfg.NumSwarms > 1 {
			type msg struct {
				val float64
				pos []float64
			}
			inbox := make([][]msg, cfg.NumSwarms)
			for _, s := range swarms {
				if len(s.BestPos) == 0 {
					continue
				}
				left := (int(s.ID) - 1 + cfg.NumSwarms) % cfg.NumSwarms
				right := (int(s.ID) + 1) % cfg.NumSwarms
				for _, nb := range []int{left, right} {
					if nb == int(s.ID) {
						continue
					}
					inbox[nb] = append(inbox[nb], msg{s.BestVal, append([]float64(nil), s.BestPos...)})
				}
			}
			for i, s := range swarms {
				for _, m := range inbox[i] {
					s.AbsorbExternal(m.pos, m.val)
				}
			}
		}
		best := math.Inf(1)
		for _, s := range swarms {
			if s.BestVal < best {
				best = s.BestVal
			}
		}
		res.Best = best
		res.OuterIters = outer + 1
		res.Evaluations += cfg.evalsPerOuter()
		if (outer+1)%cfg.CheckEvery == 0 || outer == cfg.MaxOuter-1 {
			res.History = append(res.History, Point{
				OuterIter:   outer + 1,
				Evaluations: res.Evaluations,
				Best:        best,
				Elapsed:     time.Since(start),
			})
		}
		if cfg.Target > 0 && best <= cfg.Target {
			res.Converged = true
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunMapReduce executes Apiary PSO as an iterative MapReduce program on
// any executor, using the paper's iterative optimizations: operations
// for the next iteration are queued before the previous convergence
// check is inspected, so the check overlaps subsequent computation.
func RunMapReduce(job *core.Job, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	swarms, err := initialSwarms(cfg)
	if err != nil {
		return nil, err
	}
	pairs := make([]kvio.Pair, len(swarms))
	for i, s := range swarms {
		pairs[i] = kvio.Pair{Key: codec.EncodeVarint(s.ID), Value: EncodeSwarm(s)}
	}
	state, err := job.LocalData(pairs, core.OpOpts{Splits: cfg.Tasks})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	res := &Result{Best: math.Inf(1)}

	type check struct {
		outer int
		ds    *core.Dataset
	}
	var pending []check
	// freeable tags superseded datasets with the outer iteration whose
	// completion makes them safe to release: when the check for
	// iteration k has been collected, every operation up to k has
	// executed, so datasets only consumed by iterations <= k can go.
	type retired struct {
		iter int
		ds   *core.Dataset
	}
	var freeable []retired

	inspect := func(c check) (bool, error) {
		pairs, err := c.ds.Collect()
		if err != nil {
			return false, err
		}
		if len(pairs) != 1 {
			return false, fmt.Errorf("pso: convergence check returned %d records", len(pairs))
		}
		best, err := codec.DecodeFloat64(pairs[0].Value)
		if err != nil {
			return false, err
		}
		_ = c.ds.Free()
		res.Best = best
		res.OuterIters = c.outer
		res.Evaluations = int64(c.outer) * cfg.evalsPerOuter()
		res.History = append(res.History, Point{
			OuterIter:   c.outer,
			Evaluations: res.Evaluations,
			Best:        best,
			Elapsed:     time.Since(start),
		})
		// Everything up to iteration c.outer is done; free datasets whose
		// last consumer is at or before it.
		kept := freeable[:0]
		for _, r := range freeable {
			if r.iter <= c.outer {
				_ = r.ds.Free()
			} else {
				kept = append(kept, r)
			}
		}
		freeable = kept
		return cfg.Target > 0 && best <= cfg.Target, nil
	}

	for outer := 1; outer <= cfg.MaxOuter; outer++ {
		// state is rebuilt every iteration, but at check iterations it
		// has a second consumer (the BestName evaluation below); marking
		// both Maps Resident turns that second read into a cache hit.
		moved, err := job.Map(state, MoveName, core.OpOpts{Splits: cfg.Tasks, Resident: true})
		if err != nil {
			return nil, err
		}
		// Merge emits only the group key (the swarm id), so the reduce
		// is key-aligned: split s of s_outer is ready as soon as merge
		// task s finishes, and the next iteration's move tasks overlap
		// this iteration's reduce stragglers.
		next, err := job.Reduce(moved, MergeName, core.OpOpts{Splits: cfg.Tasks, KeyAligned: true})
		if err != nil {
			return nil, err
		}
		// state (s_{outer-1}) is last consumed by this iteration's map;
		// moved is last consumed by this iteration's reduce.
		freeable = append(freeable, retired{outer, state}, retired{outer, moved})
		state = next

		if outer%cfg.CheckEvery == 0 || outer == cfg.MaxOuter {
			bm, err := job.Map(state, BestName, core.OpOpts{Splits: 1, Partition: "constant", Resident: true})
			if err != nil {
				return nil, err
			}
			bd, err := job.Reduce(bm, MinName, core.OpOpts{Splits: 1, Partition: "constant", KeyAligned: true})
			if err != nil {
				return nil, err
			}
			// bm is last consumed by this check's reduce; the check
			// itself is freed once inspected.
			freeable = append(freeable, retired{outer, bm})
			pending = append(pending, check{outer: outer, ds: bd})
		}

		// Inspect the oldest check only once a newer one is queued, so
		// the check's communication overlaps the next iteration's
		// computation (the paper's pipelining trick).
		for len(pending) > 1 {
			done, err := inspect(pending[0])
			if err != nil {
				return nil, err
			}
			pending = pending[1:]
			if done {
				res.Converged = true
				res.Elapsed = time.Since(start)
				return res, nil
			}
		}
	}
	for _, c := range pending {
		done, err := inspect(c)
		if err != nil {
			return nil, err
		}
		if done {
			res.Converged = true
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
