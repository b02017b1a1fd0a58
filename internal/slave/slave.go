// Package slave implements the worker process: it signs in with the
// master and heartbeats through a node.Uplink (shared with the
// sub-master), pulls tasks, executes them with the shared task engine
// from internal/core, and serves its output buckets to peers
// over a built-in HTTP server (§IV-B's "direct communication" path) or
// stages them on a shared filesystem (the fault-tolerant path).
//
// A slave optionally carries a resident dataset cache
// (Options.ResidentBudget, core.ResidentCache): input splits of
// Resident-marked operations are kept pinned in memory after their
// first fetch, so each iteration of an iterative job reads its
// invariant inputs locally instead of re-shuffling them. The cache is
// slave-wide (shared by every job's task env), bounded by an LRU byte
// budget, and drained per job by the master's GC broadcast. See
// docs/ITERATIVE.md.
//
// Each task attempt is measured by the task engine (wall time, time
// blocked reading input, byte/record counts) and the breakdown rides
// back to the master as the optional final task_done argument, where
// it lands in the trace span for the attempt and in Job.Stats; an
// Options.Obs runtime additionally collects the slave's local
// task-engine metrics (tasks executed, shuffle bytes by data path) for
// the -mrs-debug-addr surface. See docs/OBSERVABILITY.md.
package slave

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

// Options configures a slave.
type Options struct {
	// MasterAddr is the master's host:port.
	MasterAddr string
	// Dir is the local bucket directory (default: fresh temp dir).
	Dir string
	// SharedDir enables filesystem staging: buckets live here and are
	// advertised as file:// URLs; no data server is started.
	SharedDir string
	// Addr is the data server listen address (default "127.0.0.1:0").
	Addr string
	// Logger receives slave diagnostics (default: discard).
	Logger *log.Logger
	// MaxConsecutiveRPCErrors before the slave gives up on the master.
	MaxConsecutiveRPCErrors int
	// RPCIntercept wraps every outgoing master RPC (fault injection,
	// tracing). Nil means direct calls.
	RPCIntercept xmlrpc.Intercept
	// DataClient overrides the HTTP client used for slave-to-slave
	// bucket fetches (fault injection). Nil selects the shared default.
	DataClient *http.Client
	// BackoffSeed seeds the retry-jitter stream so a slave's backoff
	// schedule is reproducible (0 selects a fixed default).
	BackoffSeed uint64
	// Obs receives the slave's task-engine metrics (nil disables).
	Obs *obs.Runtime
	// Prefetch is the input-fetch window for this slave's tasks
	// (0 = default, 1 = sequential).
	Prefetch int
	// Compress deflates the blocks of the slave's buckets when Codec is
	// empty.
	Compress bool
	// Codec selects the compression codec of the slave's buckets'
	// blocks ("" = identity, or deflate under Compress). Purely local:
	// the data server negotiates per request, so mixed-codec fleets
	// interoperate.
	Codec string
	// BlockEncoding selects the block encoding for this slave's
	// buckets ("row", "columnar", "columnar-raw", "columnar-dict",
	// "columnar-delta"; "" = row). Purely local like Codec: every
	// reader decodes both block kinds.
	BlockEncoding string
	// BlockSize overrides the record-block flush threshold in bytes
	// (0 = default).
	BlockSize int
	// Concurrency is how many tasks the slave runs at once (default 1,
	// the classic sequential worker). With a multi-job master, slots
	// above 1 let one slave serve several jobs' tasks concurrently.
	Concurrency int
	// ResidentBudget is the byte budget of the slave's resident dataset
	// cache: Resident-marked input splits are kept in memory (LRU under
	// this budget) and served warm when later iterations consume the
	// same split. <= 0 disables the cache.
	ResidentBudget int64
}

// Slave is one worker.
type Slave struct {
	opts    Options
	reg     *core.Registry
	up      *node.Uplink // signin, heartbeat, reports toward the master
	store   *bucket.Store
	env     *core.TaskEnv
	ln      net.Listener
	httpSrv *http.Server
	ownsDir string
	logger  *log.Logger
	retry   *fault.Backoff

	// Task slots: a slot is acquired before polling get_task, so the
	// slave never asks for work it cannot start immediately.
	sem chan struct{}
	wg  sync.WaitGroup

	// Per-job execution state: jobs other than 0 get their own TaskEnv
	// clone with a private temp dir, created lazily and reclaimed when
	// the master broadcasts the job's completion.
	envMu   sync.Mutex
	envs    map[core.JobID]*core.TaskEnv
	jobDirs map[core.JobID]string

	// resident is the slave-wide resident dataset cache. It lives on
	// the slave, not on a per-job env: envFor's struct copy shares the
	// pointer, so every job's tasks see one cache (keys are job-scoped)
	// and the job GC broadcast can reclaim a job's entries in one call.
	resident *core.ResidentCache

	tasksRun atomic.Int64
	jobGCs   atomic.Int64
	stopHB   chan struct{}
}

// New prepares a slave (listening for data but not yet signed in).
func New(reg *core.Registry, opts Options) (_ *Slave, err error) {
	if opts.MasterAddr == "" {
		return nil, fmt.Errorf("slave: MasterAddr required")
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.MaxConsecutiveRPCErrors <= 0 {
		opts.MaxConsecutiveRPCErrors = 10
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	seed := opts.BackoffSeed
	if seed == 0 {
		seed = 1
	}
	s := &Slave{
		opts:    opts,
		reg:     reg,
		logger:  logger,
		retry:   fault.NewBackoff(seed),
		stopHB:  make(chan struct{}),
		sem:     make(chan struct{}, opts.Concurrency),
		envs:    map[core.JobID]*core.TaskEnv{},
		jobDirs: map[core.JobID]string{},
	}
	s.up = node.NewUplink(node.UplinkConfig{
		Name:           "slave",
		Parent:         opts.MasterAddr,
		Retry:          s.retry,
		Logger:         logger,
		Intercept:      opts.RPCIntercept,
		Args:           s.signinArgs,
		Metrics:        opts.Obs.M(),
		ResigninMetric: "mrs_slave_resignins_total",
	})
	defer func() {
		if err == nil {
			return
		}
		if s.ln != nil {
			s.ln.Close()
		}
		if s.ownsDir != "" {
			os.RemoveAll(s.ownsDir)
		}
	}()

	dir := opts.Dir
	if opts.SharedDir != "" {
		dir = opts.SharedDir
	} else if dir == "" {
		d, err := os.MkdirTemp("", "mrs-slave-*")
		if err != nil {
			return nil, err
		}
		dir = d
		s.ownsDir = d
	}

	baseURL := ""
	if opts.SharedDir == "" {
		if s.ln, err = net.Listen("tcp", opts.Addr); err != nil {
			return nil, fmt.Errorf("slave: listen %s: %w", opts.Addr, err)
		}
		baseURL = "http://" + s.ln.Addr().String() + "/data"
	}
	store, err := bucket.NewFileStore(dir, baseURL)
	if err != nil {
		return nil, err
	}
	s.store = store
	if opts.DataClient != nil {
		store.SetHTTPClient(opts.DataClient)
	}
	store.SetCompress(opts.Compress)
	if err = store.SetCodec(opts.Codec); err != nil {
		return nil, fmt.Errorf("slave: %w", err)
	}
	if err = store.SetBlockEncoding(opts.BlockEncoding); err != nil {
		return nil, fmt.Errorf("slave: %w", err)
	}
	store.SetBlockSize(opts.BlockSize)
	store.SetMetrics(opts.Obs.M())
	// The runtime may be shared by several slaves (the in-process
	// cluster), so slaves contribute counters, which sum, rather than
	// per-slave gauges, which would collide.
	s.resident = core.NewResidentCache(opts.ResidentBudget)
	s.resident.SetMetrics(opts.Obs.M())
	if s.resident != nil {
		obs.RegisterResidentGauge(opts.Obs.M())
	}
	s.env = &core.TaskEnv{Store: store, Reg: reg, TempDir: dir, Obs: opts.Obs, Prefetch: opts.Prefetch, Resident: s.resident}
	if opts.Obs != nil {
		s.env.Clock = opts.Obs.Clk()
	}

	if s.ln != nil {
		mux := http.NewServeMux()
		mux.HandleFunc("/data/", s.serveData)
		s.httpSrv = &http.Server{Handler: mux}
		go s.httpSrv.Serve(s.ln)
	}
	return s, nil
}

// DataAddr returns the data server address ("" in shared-dir mode).
func (s *Slave) DataAddr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ID returns the master-assigned slave id (empty before signin).
func (s *Slave) ID() string { return s.up.ID() }

// TasksRun returns how many tasks this slave has executed.
func (s *Slave) TasksRun() int64 { return s.tasksRun.Load() }

// JobGCs returns how many job-complete reclamations this slave has
// performed.
func (s *Slave) JobGCs() int64 { return s.jobGCs.Load() }

// Store returns this slave's bucket store.
func (s *Slave) Store() *bucket.Store { return s.store }

// ResidentBytes returns the bytes currently pinned in this slave's
// resident cache (0 when the cache is disabled).
func (s *Slave) ResidentBytes() int64 { return s.resident.Bytes() }

// ResidentSplits returns how many input splits this slave's resident
// cache holds.
func (s *Slave) ResidentSplits() int { return s.resident.Len() }

// Resignins returns how many times the slave re-signed in after the
// master declared it dead (e.g. it hung past the heartbeat timeout).
func (s *Slave) Resignins() int64 { return s.up.Resignins() }

func (s *Slave) serveData(w http.ResponseWriter, r *http.Request) {
	s.store.ServeData(w, r, strings.TrimPrefix(r.URL.Path, "/data/"))
}

// Run signs in and processes tasks until the master shuts down, the
// context is cancelled, or the master becomes unreachable.
func (s *Slave) Run(ctx context.Context) error {
	defer s.cleanup()
	defer s.wg.Wait() // drain in-flight tasks before tearing down

	if err := s.up.Signin(ctx); err != nil {
		return err
	}
	go s.up.Heartbeat(s.stopHB)
	defer close(s.stopHB)

	consecutiveErrs := 0
	for {
		// Take a task slot before polling: the slave only asks the
		// master for work it can start right away. With Concurrency 1
		// this degenerates to the classic sequential poll-run loop.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case s.sem <- struct{}{}:
		}
		release := func() { <-s.sem }
		id := s.ID()
		raw, err := s.up.Client.Call(rpcproto.MethodGetTask, id)
		if err != nil {
			release()
			// Declared dead or unknown after a master restart: our old
			// tasks were requeued or replayed, so rejoin, don't die.
			if err := s.up.PollFailed(ctx, id, err, &consecutiveErrs, s.opts.MaxConsecutiveRPCErrors); err != nil {
				return err
			}
			continue
		}
		consecutiveErrs = 0
		a, err := rpcproto.DecodeAssignment(raw)
		if err != nil {
			release()
			return fmt.Errorf("slave: bad assignment: %w", err)
		}
		for _, name := range a.Deletes {
			_ = s.store.Remove(name)
		}
		for _, job := range a.GCJobs {
			s.gcJob(core.JobID(job))
		}
		switch a.Status {
		case rpcproto.StatusShutdown:
			release()
			return nil
		case rpcproto.StatusIdle:
			release()
			continue
		case rpcproto.StatusTask:
			s.wg.Add(1)
			go func(a rpcproto.Assignment) {
				defer s.wg.Done()
				defer release()
				s.runTask(a)
			}(a)
		}
	}
}

func (s *Slave) runTask(a rpcproto.Assignment) {
	id := s.ID()
	job := int64(a.Spec.Job)
	env, err := s.envFor(a.Spec.Job)
	if err != nil {
		s.logger.Printf("slave %s: job %d env: %v", id, job, err)
		s.up.Report(rpcproto.MethodTaskFailed, id, job, a.TaskID, err.Error())
		return
	}
	result, err := core.ExecTask(env, a.Spec)
	s.tasksRun.Add(1)
	if err != nil {
		s.logger.Printf("slave %s: task %d (attempt %d) failed: %v", id, a.TaskID, a.Attempt, err)
		s.up.Report(rpcproto.MethodTaskFailed, id, job, a.TaskID, err.Error())
		return
	}
	outputs := rpcproto.EncodeDescriptors(result.Outputs)
	s.up.Report(rpcproto.MethodTaskDone, id, job, a.TaskID, outputs, rpcproto.EncodeTiming(result.Timing))
}

// envFor returns the task environment for a job. Job 0 (the unmanaged
// single-job path) runs in the slave's base environment, preserving
// classic layout; other jobs get a lazily created clone whose TempDir
// is a private per-job directory, so concurrent jobs never interleave
// scratch files and a job's scratch can be reclaimed wholesale.
func (s *Slave) envFor(job core.JobID) (*core.TaskEnv, error) {
	if job == 0 {
		return s.env, nil
	}
	s.envMu.Lock()
	defer s.envMu.Unlock()
	if env, ok := s.envs[job]; ok {
		return env, nil
	}
	dir, err := os.MkdirTemp(s.env.TempDir, fmt.Sprintf("job%d-*", job))
	if err != nil {
		return nil, fmt.Errorf("slave: job %d temp dir: %w", job, err)
	}
	env := *s.env
	env.TempDir = dir
	s.envs[job] = &env
	s.jobDirs[job] = dir
	return &env, nil
}

// gcJob reclaims everything a completed job left on this slave: its
// buckets in the store, its pinned resident-cache splits, and its
// private scratch directory. The master
// broadcasts the job id on the next get_task of every slave once the
// job's driver has drained.
func (s *Slave) gcJob(job core.JobID) {
	n, err := s.store.RemoveJob(int64(job))
	if err != nil {
		s.logger.Printf("slave %s: gc job %d: %v", s.ID(), job, err)
	}
	if freed := s.resident.DropJob(job); freed > 0 {
		s.opts.Obs.M().Add(obs.MetricResidentGCBytes, freed)
	}
	s.envMu.Lock()
	dir, ok := s.jobDirs[job]
	delete(s.jobDirs, job)
	delete(s.envs, job)
	s.envMu.Unlock()
	if ok {
		os.RemoveAll(dir)
	}
	s.jobGCs.Add(1)
	s.opts.Obs.M().Add("mrs_slave_job_gcs_total", 1)
	if n > 0 {
		s.logger.Printf("slave %s: gc job %d: removed %d buckets", s.ID(), job, n)
	}
}

// signinArgs advertises kind, data address, and slot count.
func (s *Slave) signinArgs() rpcproto.SigninArgs {
	return rpcproto.SigninArgs{
		Kind:  rpcproto.NodeKindSlave,
		Addr:  s.DataAddr(),
		Slots: int64(s.opts.Concurrency),
	}
}

func (s *Slave) cleanup() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	// Release pooled data-plane and control-plane connections so peers
	// and the master can shut their servers down gracefully.
	s.store.CloseIdle()
	s.up.Client.CloseIdle()
	s.envMu.Lock()
	dirs := s.jobDirs
	s.jobDirs = map[core.JobID]string{}
	s.envs = map[core.JobID]*core.TaskEnv{}
	s.envMu.Unlock()
	for _, d := range dirs {
		os.RemoveAll(d)
	}
	if s.ownsDir != "" {
		os.RemoveAll(s.ownsDir)
	}
}
