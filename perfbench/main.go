// Command perfbench is the repository's benchmark: it runs one workload
// (pso, kmeans or wordcount) through the public mrs.Run entry point on
// a two-slave local cluster, checks every step's output against the
// same steps on the serial executor, and prints the end-to-end metrics
// (-trace 0) or the per-layer metrics of a separate traced run
// (-trace 1). The last line of standard output is one JSON object; see
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
)

// setupReps is how many times a run boots the cluster and loads the
// input to time set-up; setup_s is their median.
const setupReps = 15

// serialRepeats is how many steps one serial run of a non-iterative
// workload makes: its steps all produce the same output.
const serialRepeats = 6

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: pso|kmeans|wordcount")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal run length in seconds (sets the step count)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d steps failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string          // metric names in report order
	notes map[string]string // extra detail printed beside a metric
	meta  map[string]any    // run environment and sample counts
}

func (r *result) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// print writes one human-readable line per metric, the run metadata,
// and finally the JSON result line.
func (r *result) print(f *os.File) {
	for _, name := range r.order {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-34s %14.4f %s", name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(f, line)
	}
	for _, name := range sortedKeys(r.notes) {
		if _, ok := r.Metrics[name]; !ok {
			fmt.Fprintf(f, "%-34s %s\n", name, r.notes[name])
		}
	}
	meta, _ := json.Marshal(r.meta)
	fmt.Fprintf(f, "meta %s\n", meta)
	out, _ := json.Marshal(r)
	fmt.Fprintln(f, string(out))
}

// localArgs and serialArgs are the only mrs flags the benchmark sets;
// everything else is what mrs.BindFlags yields on an empty command line.
var (
	localArgs  = []string{"-mrs=local", "-mrs-slaves=2"}
	serialArgs = []string{"-mrs=serial"}
)

func run(cfg config) (*result, error) {
	// Run from the root of a checkout: run files go under .bench_build.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, fmt.Errorf("creating run dir: %w", err)
	}
	defer os.RemoveAll(runDir)
	// Every temp dir mrs creates (bucket stores, spill files) lands in
	// the run dir, inside the checkout.
	tmp, err := filepath.Abs(filepath.Join(runDir, "tmp"))
	if err != nil {
		return nil, err
	}
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return nil, err
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}

	w, err := newWorkload(cfg.workload, cfg.seed, runDir, benchSizes)
	if err != nil {
		return nil, err
	}
	n := int(w.stepsPerSecond * float64(cfg.seconds))
	if n < 2*tailBeyond {
		n = 2 * tailBeyond
	}
	res := &result{notes: map[string]string{}, meta: runMeta(cfg, tmp)}
	if cfg.trace {
		err = tracedRun(w, n, res, runDir)
	} else {
		err = timedRun(w, n, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// timedRun measures the end-to-end metrics, with nothing wrapped.
func timedRun(w *workload, n int, res *result) error {
	ph := newPhases()
	setups, err := measureSetup(w, setupReps)
	if err != nil {
		return err
	}
	ph.mark("setup")
	var pre *stepRun
	if !w.iterative {
		// A repeated job runs serial steps both before and after the
		// cluster run, so the serial baseline spans the same stretch of
		// time as the cluster steps.
		if pre, err = serialReference(w, n); err != nil {
			return err
		}
		ph.mark("serial_before")
	}
	timed, runErr := runSteps(w, n, localArgs, nil)
	ph.mark("cluster")
	ref, err := serialReference(w, n)
	if err != nil {
		return err
	}
	ph.mark("serial")
	if pre != nil {
		ref.rec.durs = append(pre.rec.durs, ref.rec.durs...)
		ref.rec.digests = append(pre.rec.digests, ref.rec.digests...)
	}
	res.meta["phase_s"] = ph.secs
	failed := verify(ref.rec.digests, timed.rec.digests, n, w.iterative)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cluster run: %v\n", runErr)
	}
	res.Attempted, res.Failed, res.Correct = n, failed, failed == 0

	steps := millis(timed.rec.durs)
	t := tailOf(steps)
	res.add("setup_s", median(setups), "s")
	res.add("step_ms_p50", median(steps), "ms")
	res.add("step_ms_tail", t.Value, "ms")
	res.add("cpu_ms_per_step", float64(timed.rec.win.CPU)/1e6/float64(n), "ms")
	res.add("serial_step_ms_p50", median(millis(ref.rec.durs)), "ms")
	res.add("peak_rss_mb", peakRSSMB(), "MB")
	res.notes["step_ms_tail"] = fmt.Sprintf("p%.2f of n=%d, %d beyond", t.Percentile, t.N, t.Beyond)
	res.notes["failed_ratio"] = fmt.Sprintf("%.4f (%d of %d steps)", float64(failed)/float64(n), failed, n)
	if q1, _, q3, ok := quartiles(steps); ok {
		res.notes["step_ms_p50"] = fmt.Sprintf("quartiles %.3f..%.3f", q1, q3)
	}
	res.meta["samples"] = map[string]int{
		"setup_s": len(setups), "step_ms_p50": len(steps), "step_ms_tail": len(steps),
		"cpu_ms_per_step": n, "serial_step_ms_p50": len(ref.rec.durs), "peak_rss_mb": 1,
	}
	return nil
}

// phases records the wall time of a run's phases, in seconds, for the
// run metadata.
type phases struct {
	last time.Time
	secs map[string]float64
}

func newPhases() *phases { return &phases{last: time.Now(), secs: map[string]float64{}} }

// mark ends the phase called name, which began at the previous mark.
func (p *phases) mark(name string) {
	now := time.Now()
	p.secs[name] = now.Sub(p.last).Seconds()
	p.last = now
}

// measureSetup boots the local cluster reps times and times each from
// the mrs.Run call until the workload's input dataset is ready.
func measureSetup(w *workload, reps int) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var ready time.Time
		p := &program{w: w, run: func(job *core.Job) error {
			if err := w.load(job); err != nil {
				return err
			}
			ready = time.Now()
			return nil
		}}
		start := time.Now()
		if err := runMrs(p, localArgs); err != nil {
			return nil, fmt.Errorf("set-up rep %d: %w", i, err)
		}
		out = append(out, ready.Sub(start).Seconds())
	}
	return out, nil
}

// stepRun is one mrs.Run of a workload's steps.
type stepRun struct {
	rec   recorder
	stats core.JobStats
}

// runSteps drives n steps of w in one mrs.Run with the given mrs flags.
// A traced run (lr non-nil) wraps the registry and snapshots counters.
// The returned run is valid even when err is set: steps that did not
// finish are missing from it.
func runSteps(w *workload, n int, args []string, lr *layerRun) (*stepRun, error) {
	sr := &stepRun{}
	p := &program{w: w, layer: lr, run: func(job *core.Job) error {
		if lr != nil {
			lr.hook(&sr.rec)
		}
		err := w.drive(job, n, &sr.rec)
		sr.stats = job.Stats()
		if err == nil && lr != nil {
			err = lr.afterSteps(job)
		}
		return err
	}}
	if lr != nil {
		args = append(append([]string(nil), args...), "-mrs-debug-addr="+lr.debugAddr)
	}
	return sr, runMrs(p, args)
}

// serialReference runs the steps the cluster run is checked against on
// the serial executor.
func serialReference(w *workload, n int) (*stepRun, error) {
	m := n
	if !w.iterative && m > serialRepeats {
		m = serialRepeats
	}
	ref, err := runSteps(w, m, serialArgs, nil)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	return ref, nil
}

// verify counts the steps of got (n attempted) whose output digest is
// missing or differs from the serial reference. An iterative step i is
// checked against reference step i; a repeated job against the
// reference's own step i, or its last step past its end.
func verify(ref, got [][32]byte, n int, iterative bool) int {
	failed := 0
	for i := 0; i < n; i++ {
		r := i
		if !iterative && r >= len(ref) {
			r = len(ref) - 1
		}
		if i >= len(got) || r < 0 || r >= len(ref) || got[i] != ref[r] {
			failed++
		}
	}
	return failed
}

// program adapts a workload to mrs.Program.
type program struct {
	w     *workload
	layer *layerRun // non-nil: register observing wrappers
	run   func(job *core.Job) error
}

func (p *program) Register(reg *mrs.Registry) error {
	if p.layer != nil {
		return p.layer.counters.observe(reg, p.w)
	}
	return p.w.register(reg)
}

func (p *program) Run(job *mrs.Job) error { return p.run(job) }

// runMrs runs p through mrs.Run with args parsed by mrs.BindFlags.
func runMrs(p mrs.Program, args []string) error {
	fs := flag.NewFlagSet("mrs", flag.ContinueOnError)
	opts := mrs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return mrs.Run(p, *opts)
}

// runMeta records the environment a result was measured in.
func runMeta(cfg config, tmp string) map[string]any {
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"commit":     commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"tmp_fs":     fsType(tmp),
	}
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
