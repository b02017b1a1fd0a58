package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvio"
)

// enqueueRounds is how many map+reduce pairs the traced run queues
// after its last step to time Job.Map and Job.Reduce.
const enqueueRounds = 20

// layerCounters accumulate what the observing wrappers see. Slaves run
// tasks concurrently, so every field is atomic.
type layerCounters struct {
	userNS    atomic.Int64 // user function time minus time inside Emit
	calls     atomic.Int64 // user function calls (combiner calls included)
	emitNS    atomic.Int64 // time inside the framework's Emit
	emits     atomic.Int64
	emitBytes atomic.Int64 // key+value bytes emitted
}

// snapshot is a copy of the counters at one instant.
type snapshot struct{ userNS, calls, emitNS, emits, emitBytes int64 }

func (c *layerCounters) snapshot() snapshot {
	return snapshot{c.userNS.Load(), c.calls.Load(), c.emitNS.Load(), c.emits.Load(), c.emitBytes.Load()}
}

// observe registers w's functions into dst, each wrapped so that it
// times itself and the Emit calls it makes. Every name is registered as
// a factory that resolves the workload's own registration (plain or
// factory) with the operation's params, so the wrapped function is the
// one the workload would have run; the wrappers only observe.
func (c *layerCounters) observe(dst *core.Registry, w *workload) error {
	inner := core.NewRegistry()
	if err := w.register(inner); err != nil {
		return err
	}
	for _, name := range w.maps {
		dst.RegisterMapFactory(name, func(params []byte) (core.MapFunc, error) {
			fn, err := inner.Map(name, params)
			if err != nil {
				return nil, err
			}
			return c.wrapMap(fn), nil
		})
	}
	for _, name := range w.reduces {
		dst.RegisterReduceFactory(name, func(params []byte) (core.ReduceFunc, error) {
			fn, err := inner.Reduce(name, params)
			if err != nil {
				return nil, err
			}
			return c.wrapReduce(fn), nil
		})
	}
	return nil
}

func (c *layerCounters) wrapMap(fn core.MapFunc) core.MapFunc {
	return func(key, value []byte, emit kvio.Emitter) error {
		e := &timedEmitter{inner: emit}
		start := time.Now()
		err := fn(key, value, e)
		c.record(time.Since(start), e)
		return err
	}
}

func (c *layerCounters) wrapReduce(fn core.ReduceFunc) core.ReduceFunc {
	return func(key []byte, values [][]byte, emit kvio.Emitter) error {
		e := &timedEmitter{inner: emit}
		start := time.Now()
		err := fn(key, values, e)
		c.record(time.Since(start), e)
		return err
	}
}

func (c *layerCounters) record(total time.Duration, e *timedEmitter) {
	c.userNS.Add(int64(total) - e.ns)
	c.calls.Add(1)
	c.emitNS.Add(e.ns)
	c.emits.Add(e.n)
	c.emitBytes.Add(e.bytes)
}

// timedEmitter passes every record on unchanged and times the call.
type timedEmitter struct {
	inner        kvio.Emitter
	ns, n, bytes int64
}

func (e *timedEmitter) Emit(key, value []byte) error {
	start := time.Now()
	err := e.inner.Emit(key, value)
	e.ns += int64(time.Since(start))
	e.n++
	e.bytes += int64(len(key) + len(value))
	return err
}

// layerRun is the state of one traced run.
type layerRun struct {
	counters  layerCounters
	debugAddr string
	probe     *probeInput

	// Taken at the edges of the stepping window.
	metrics0, metrics1 map[string]float64
	calls              snapshot
	scrapeErr          error

	enqueueUS []float64 // time per queued operation
}

func newLayerRun(probe *probeInput) (*layerRun, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return &layerRun{debugAddr: addr, probe: probe}, nil
}

// freeAddr picks a loopback address for the run's debug surface.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// hook makes rec scrape /debug/metrics and snapshot the wrapper
// counters at the edges of the stepping window.
func (lr *layerRun) hook(rec *recorder) {
	rec.onBegin = func() {
		lr.metrics0, lr.scrapeErr = scrapeMetrics(lr.debugAddr)
	}
	rec.onEnd = func() {
		lr.calls = lr.counters.snapshot()
		var err error
		lr.metrics1, err = scrapeMetrics(lr.debugAddr)
		if lr.scrapeErr == nil {
			lr.scrapeErr = err
		}
	}
}

// afterSteps times Job.Map and Job.Reduce on the traced job once its
// steps are done, so each enqueue pays for the job's whole history, as
// the last step's did. The queued operations are the workload's own
// map and reduce over a small copy of its input.
func (lr *layerRun) afterSteps(job *core.Job) error {
	sh := lr.probe.shape
	for i := 0; i < enqueueRounds; i++ {
		src, err := job.LocalData(sh.src, core.OpOpts{Splits: sh.srcSplits})
		if err != nil {
			return err
		}
		start := time.Now()
		mid, err := job.Map(src, sh.mapName, sh.mapOpts)
		if err != nil {
			return err
		}
		mapped := time.Now()
		out, err := job.Reduce(mid, sh.reduceName, sh.reduceOpts)
		if err != nil {
			return err
		}
		lr.enqueueUS = append(lr.enqueueUS,
			float64(mapped.Sub(start))/1e3, float64(time.Since(mapped))/1e3)
		if err := out.Wait(); err != nil {
			return err
		}
		for _, ds := range []*core.Dataset{src, mid, out} {
			if err := ds.Free(); err != nil {
				return err
			}
		}
	}
	return nil
}

// scrapeMetrics reads the Prometheus text of /debug/metrics, summing
// labelled series into their family.
func scrapeMetrics(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// tracedRun measures the per-layer metrics: an untraced run first (for
// the trace overhead and the allocation figure), then the traced run,
// both checked against the serial reference, then the module probes.
func tracedRun(w *workload, n int, res *result, dir string) error {
	ph := newPhases()
	probe, err := w.probe()
	if err != nil {
		return err
	}
	timed, timedErr := runSteps(w, n, localArgs, nil)
	ph.mark("cluster")
	if timedErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: untraced cluster run: %v\n", timedErr)
	}
	lr, err := newLayerRun(probe)
	if err != nil {
		return err
	}
	traced, tracedErr := runSteps(w, n, localArgs, lr)
	if tracedErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: traced cluster run: %v\n", tracedErr)
	}
	ph.mark("traced")
	ref, err := serialReference(w, n)
	if err != nil {
		return err
	}
	ph.mark("serial")
	failed := verify(ref.rec.digests, timed.rec.digests, n, w.iterative) +
		verify(ref.rec.digests, traced.rec.digests, n, w.iterative)
	res.Attempted, res.Failed, res.Correct = 2*n, failed, failed == 0
	if tracedErr == nil && lr.scrapeErr != nil {
		return lr.scrapeErr
	}
	pr, err := runProbes(probe, dir)
	if err != nil {
		return err
	}
	ph.mark("probes")
	res.meta["phase_s"] = ph.secs

	steps := float64(n)
	st := traced.stats
	var inRecords, reduceInRecords int64
	for _, op := range st.Ops {
		inRecords += op.InRecords
		if op.Kind == core.OpReduce.String() {
			reduceInRecords += op.InRecords
		}
	}
	c := lr.calls
	m0, m1 := lr.metrics0, lr.metrics1
	delta := func(name string) float64 { return m1[name] - m0[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	computeMS := float64(st.ComputeNS) / 1e6 / steps
	userMS := float64(c.userNS) / 1e6 / steps
	emitMS := float64(c.emitNS) / 1e6 / steps
	var outBuckets float64
	for _, op := range st.Ops {
		outBuckets += float64(op.Tasks * int64(w.splits[op.Func]))
	}
	// The file store's extra cost over the memory store is what a bucket
	// file costs beyond its records, which emit already timed.
	fileUS := max(0, pr.publishDiskUS-pr.publishUS)
	explainedMS := userMS + emitMS +
		(pr.decodeNS*float64(inRecords)+pr.sortNS*float64(reduceInRecords))/1e6/steps +
		fileUS*outBuckets/1e3/steps

	res.add("core.enqueue_us_per_op", median(lr.enqueueUS), "us")
	res.add("core.ops_per_step", float64(len(st.Ops))/steps, "count")
	res.add("core.tasks_per_step", float64(st.Tasks)/steps, "count")
	res.add("core.task_schedule_ms_per_step", float64(st.ScheduleNS)/1e6/steps, "ms")
	res.add("core.task_shuffle_ms_per_step", float64(st.ShuffleNS)/1e6/steps, "ms")
	res.add("core.task_compute_ms_per_step", computeMS, "ms")
	res.add("core.in_mb_per_step", float64(st.InBytes)/1e6/steps, "MB")
	res.add("core.out_mb_per_step", float64(st.OutBytes)/1e6/steps, "MB")
	res.add("core.resident_hit_ratio", ratio(float64(st.ResidentHits), float64(st.ResidentHits+st.ResidentMisses)), "ratio")
	res.add("core.framework_ms_per_step", computeMS-userMS-emitMS, "ms")
	res.add("userfn.self_ms_per_step", userMS, "ms")
	res.add("userfn.calls_per_step", float64(c.calls)/steps, "count")
	res.add("emit.ms_per_step", emitMS, "ms")
	res.add("emit.records_per_step", float64(c.emits)/steps, "count")
	res.add("emit.mb_per_step", float64(c.emitBytes)/1e6/steps, "MB")
	res.add("sched.assigned_per_step", delta("mrs_sched_assigned_total")/steps, "count")
	res.add("sched.retry_ratio", ratio(delta("mrs_sched_retries_total"), delta("mrs_sched_assigned_total")), "ratio")
	res.add("sched.requeued_per_step", delta("mrs_sched_requeued_total")/steps, "count")
	res.add("sched.cycle_us", pr.schedCycleUS, "us")
	res.add("xmlrpc.call_us", pr.rpcCallUS, "us")
	res.add("xmlrpc.allocs_per_call", pr.rpcAllocs, "count")
	res.add("bucket.publish_us", pr.publishUS, "us")
	res.add("bucket.publish_disk_us", pr.publishDiskUS, "us")
	res.add("bucket.fetch_us", pr.fetchUS, "us")
	res.add("bucket.remove_us", pr.removeUS, "us")
	res.add("kvio.encode_ns_per_record", pr.encodeNS, "ns")
	res.add("kvio.decode_ns_per_record", pr.decodeNS, "ns")
	res.add("shuffle.sort_ns_per_record", pr.sortNS, "ns")
	res.add("go.alloc_mb_per_step", float64(timed.rec.win.Alloc)/1e6/steps, "MB")
	res.add("obs.trace_overhead_pct",
		100*(ratio(median(millis(traced.rec.durs)), median(millis(timed.rec.durs)))-1), "%")
	res.add("layers.residual_pct", 100*ratio(computeMS-explainedMS, computeMS), "%")

	res.notes["failed_ratio"] = fmt.Sprintf("%.4f (%d of %d steps)", float64(failed)/float64(2*n), failed, 2*n)
	res.meta["samples"] = map[string]int{
		"steps": n, "enqueue_ops": len(lr.enqueueUS), "probe_records": len(probe.records),
	}
	return nil
}
