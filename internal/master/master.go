// Package master implements the distributed master: it serves the
// XML-RPC control plane through a node.Server (signin, heartbeats and
// reaping, get_task long polls, reports, drain) over its task
// scheduler, owns the job journal and job stats, and acts as a
// core.Executor so programs run on a cluster exactly as they run
// serially.
//
// Mirroring §IV of the Mrs paper: starting a job requires only starting
// one master and any number of slaves; no daemons or config files. The
// master writes its address to a port file so startup scripts (and the
// pbs simulator) can hand it to slaves.
//
// The master is also the cluster's observability hub (internal/obs,
// docs/OBSERVABILITY.md): its HTTP server mounts the /debug surface —
// /debug/status, /debug/metrics (Prometheus text), /debug/pprof — next
// to the RPC and data endpoints, trace IDs issued by the Job driver
// travel to slaves inside assignments, and the per-attempt timing
// breakdown slaves report with task_done flows back through the
// scheduler into Job.Stats.
package master

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/bucket"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/xmlrpc"
)

// DefaultBlacklistAfter is how many task failures a slave may report
// before the master stops assigning it work (while other slaves live).
const DefaultBlacklistAfter = 16

// Options configures a master.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// PortFile, if set, receives "host:port\n" once listening — the
	// paper's mechanism for slaves to discover a master started by a
	// batch script.
	PortFile string
	// Dir is the master's bucket directory (local data, collect
	// staging). Empty means a fresh temp dir, removed on Close.
	Dir string
	// SharedDir, when non-empty, signals filesystem staging mode: the
	// master (and every slave) uses this directory and file:// URLs.
	SharedDir string
	// HeartbeatInterval is sent to slaves at signin (default 250ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a silent slave lives (default 8x
	// the interval).
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds task retries (default sched.DefaultMaxAttempts).
	MaxAttempts int
	// LongPoll bounds a get_task block (default 1s).
	LongPoll time.Duration
	// DisableAffinity turns off iteration affinity (ablation).
	DisableAffinity bool
	// TaskLease, when positive, requeues tasks that have been running
	// longer than this — recovery for assignments whose get_task
	// response was lost in flight. Completions are idempotent, so
	// requeuing a task that is secretly still running is safe; size the
	// lease well above the longest legitimate task. Zero disables.
	TaskLease time.Duration
	// BlacklistAfter stops assigning tasks to a slave after this many
	// reported task failures, as long as at least one other slave is
	// alive (repeat-offender quarantine). Zero selects
	// DefaultBlacklistAfter; negative disables.
	BlacklistAfter int
	// SpeculationFactor enables speculative straggler re-execution: a
	// task whose sole attempt has run longer than this factor times the
	// operation's median completed duration gets a duplicate attempt on
	// a different node, first completion wins (sched.SetSpeculation).
	// Zero disables.
	SpeculationFactor float64
	// SpeculationMinRuntime floors the speculation threshold (0 selects
	// the scheduler default; tests shrink it to drive fake-clock
	// speculation).
	SpeculationMinRuntime time.Duration
	// Clock drives heartbeat reaping, leases, and long-poll deadlines
	// (default: the wall clock; tests inject a fake).
	Clock clock.Clock
	// Obs is the observability runtime shared with the Job driver; the
	// master feeds it scheduler trace events and control-plane metrics
	// and serves it at /debug. Nil creates a private metrics-only
	// runtime so /debug/metrics always works.
	Obs *obs.Runtime
	// Compress deflates the blocks of the master's own buckets (job
	// input staging) when Codec is empty.
	Compress bool
	// Codec selects the compression codec of the master's buckets' blocks
	// ("" = identity, or deflate under Compress). Unknown names fail New.
	Codec string
	// BlockEncoding selects the block encoding for the master's
	// buckets ("row", "columnar", "columnar-raw", "columnar-dict",
	// "columnar-delta"; "" = row). Unknown names fail New.
	BlockEncoding string
	// BlockSize overrides the record-block flush threshold in bytes
	// (0 = default).
	BlockSize int
	// MaxConcurrentJobs bounds the JobManager's admission: at most this
	// many managed jobs run at once, the rest queue in submission order
	// (default DefaultMaxConcurrentJobs).
	MaxConcurrentJobs int
	// JournalDir, when non-empty, makes the master durable: job
	// lifecycle events are logged there (internal/journal), and a master
	// started on a directory holding a previous master's journal recovers
	// its state — clients then reattach via Jobs().Resume and completed
	// tasks are answered from their journaled output manifests instead of
	// re-executing. Pair with SharedDir so the data those manifests name
	// survives the crash too.
	JournalDir string
	// JournalCheckpointEvery compacts the journal on this period (0
	// disables timer-driven compaction).
	JournalCheckpointEvery time.Duration
	// JournalCheckpointRecords compacts the journal after this many
	// records (0 = journal default, negative disables).
	JournalCheckpointRecords int
}

func (o *Options) fill() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 8 * o.HeartbeatInterval
	}
	if o.LongPoll <= 0 {
		o.LongPoll = time.Second
	}
	if o.BlacklistAfter == 0 {
		o.BlacklistAfter = DefaultBlacklistAfter
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	if o.Obs == nil {
		o.Obs = obs.New(o.Clock)
	}
	if o.MaxConcurrentJobs <= 0 {
		o.MaxConcurrentJobs = DefaultMaxConcurrentJobs
	}
}

// Master is the distributed executor.
type Master struct {
	opts    Options
	sched   *sched.Scheduler
	srv     *node.Server // the node protocol over sched
	store   *bucket.Store
	ln      net.Listener
	httpSrv *http.Server
	addr    string
	ownsDir string
	manager *JobManager

	// recovered is the journal state replayed at startup (empty when no
	// journal or a fresh one); immutable after New.
	recovered *journal.State

	mu        sync.Mutex
	jobStats  map[core.JobID]*JobTaskStats
	taskStats TaskStats        // TasksDone and TasksFailed; the rest are srv's
	journal   *journal.Journal // nil once detached by Close/Crash
	closed    bool
	crashed   bool // Crash() was used; skip clean-shutdown signals
}

// JobTaskStats counts one job's completed work as reported over the
// control plane (rendered on /debug/status and by benchmarks).
type JobTaskStats struct {
	TasksDone    int64
	TasksFailed  int64
	ShuffleBytes int64 // input bytes the job's finished tasks consumed
}

// TaskStats counts control-plane events (benchmarks read these).
type TaskStats struct {
	TasksAssigned int64
	TasksDone     int64
	TasksFailed   int64
	TasksRequeued int64 // stale leases reclaimed (lost assignments)
	SlavesSeen    int64
	SlavesLost    int64
	Blacklisted   int64 // get_task requests parked by the blacklist
}

// New starts a master listening on opts.Addr.
func New(opts Options) (_ *Master, err error) {
	opts.fill()
	m := &Master{
		opts:     opts,
		sched:    sched.NewWithClock(opts.MaxAttempts, opts.Clock),
		jobStats: map[core.JobID]*JobTaskStats{},
	}
	defer func() {
		if err == nil {
			return
		}
		if m.ln != nil {
			m.ln.Close()
		}
		if m.journal != nil {
			m.journal.Close()
		}
		if m.ownsDir != "" {
			os.RemoveAll(m.ownsDir)
		}
	}()
	m.sched.SetObserver(opts.Obs)
	m.manager = newJobManager(m, opts.MaxConcurrentJobs)
	m.recovered = journal.NewState()

	if opts.JournalDir != "" {
		jl, st, err := journal.Open(opts.JournalDir, journal.Options{
			Clock:             opts.Clock,
			Metrics:           opts.Obs.M(),
			CheckpointEvery:   opts.JournalCheckpointEvery,
			CheckpointRecords: opts.JournalCheckpointRecords,
		})
		if err != nil {
			return nil, err
		}
		m.journal = jl
		m.recovered = st
		if len(st.Jobs) > 0 {
			opts.Obs.M().Add(obs.MetricMasterRecoveries, 1)
		}
		// Seed the manager's id counter past every journaled job so
		// resumed and fresh submissions never collide, restore journaled
		// fair-share weights, and rebuild the control-plane stats the
		// journaled completions would have accumulated — a recovered
		// master reports the same JobStats a never-crashed one does.
		m.manager.nextID = core.JobID(st.MaxJobID)
		for id, jr := range st.Jobs {
			if jr.State != journal.JobRunning {
				continue
			}
			if jr.Weight > 0 {
				m.sched.SetJobWeight(core.JobID(id), jr.Weight)
			}
			m.jobStats[core.JobID(id)] = &JobTaskStats{
				TasksDone:    jr.TasksDone,
				ShuffleBytes: jr.ShuffleBytes,
			}
			m.taskStats.TasksDone += jr.TasksDone
		}
	}

	dir := opts.Dir
	if opts.SharedDir != "" {
		dir = opts.SharedDir
	} else if dir == "" {
		d, err := os.MkdirTemp("", "mrs-master-*")
		if err != nil {
			return nil, err
		}
		dir = d
		m.ownsDir = d
	}

	if m.ln, err = net.Listen("tcp", opts.Addr); err != nil {
		return nil, fmt.Errorf("master: listen %s: %w", opts.Addr, err)
	}
	m.addr = m.ln.Addr().String()

	baseURL := ""
	if opts.SharedDir == "" {
		baseURL = "http://" + m.addr + "/data"
	}
	store, err := bucket.NewFileStore(dir, baseURL)
	if err != nil {
		return nil, err
	}
	store.SetCompress(opts.Compress)
	if err = store.SetCodec(opts.Codec); err != nil {
		return nil, fmt.Errorf("master: %w", err)
	}
	if err = store.SetBlockEncoding(opts.BlockEncoding); err != nil {
		return nil, fmt.Errorf("master: %w", err)
	}
	store.SetBlockSize(opts.BlockSize)
	store.SetMetrics(opts.Obs.M())
	m.store = store

	m.srv = node.New(m.sched, node.Config{
		Name:           "master",
		Prefix:         map[string]string{rpcproto.NodeKindSlave: "slave-", rpcproto.NodeKindSubmaster: "sm-"},
		Heartbeat:      opts.HeartbeatInterval,
		Timeout:        opts.HeartbeatTimeout,
		Lease:          opts.TaskLease,
		LongPoll:       opts.LongPoll,
		BlacklistAfter: opts.BlacklistAfter,
		Speculation: sched.SpeculationConfig{
			SlownessFactor: opts.SpeculationFactor,
			MinRuntime:     opts.SpeculationMinRuntime,
		},
		Clock:       opts.Clock,
		Metrics:     opts.Obs.M(),
		DrainMetric: obs.MetricMasterDrains,
		BatchMetric: obs.MetricMasterBatchReports,
		OnDone:      m.taskDone,
		OnFail:      m.taskFailed,
	})
	m.registerGauges(opts.Obs)
	mux := http.NewServeMux()
	mux.Handle(xmlrpc.RPCPath, m.srv.Handler())
	mux.HandleFunc("/data/", m.serveData)
	obs.RegisterDebug(mux, opts.Obs, m.statusPage)
	m.httpSrv = &http.Server{Handler: mux}
	go m.httpSrv.Serve(m.ln)

	if opts.PortFile != "" {
		if err := os.WriteFile(opts.PortFile, []byte(m.addr+"\n"), 0o644); err != nil {
			m.Close()
			return nil, fmt.Errorf("master: writing port file: %w", err)
		}
	}
	return m, nil
}

// Addr returns the master's host:port.
func (m *Master) Addr() string { return m.addr }

// journalAppend logs an event if the master is durable; a detached
// journal (Close/Crash in progress) drops it.
func (m *Master) journalAppend(ev journal.Event) {
	m.mu.Lock()
	jl := m.journal
	m.mu.Unlock()
	if jl != nil {
		_ = jl.Append(ev)
	}
}

// Recovered returns a snapshot of the journal state the master
// replayed at startup (empty when not durable or nothing was
// journaled). Clients use it to find jobs to Resume.
func (m *Master) Recovered() *journal.State {
	return m.recovered.Clone()
}

// recoveredOutputs returns the journaled output manifests for a task,
// or nil when the task never completed (or the data they name no
// longer exists — then the task simply re-executes).
func (m *Master) recoveredOutputs(jobID core.JobID, dataset, taskIndex int) []journal.Manifest {
	jr := m.recovered.Job(int64(jobID))
	if jr == nil || jr.State != journal.JobRunning {
		return nil
	}
	outs := jr.TaskOutputs(dataset, taskIndex)
	if len(outs) == 0 {
		return nil
	}
	for _, o := range outs {
		if !m.manifestAlive(o) {
			return nil
		}
	}
	return outs
}

// manifestAlive reports whether a journaled bucket manifest still
// names reachable data. Files (shared-dir staging) and this master's
// own buckets are statted; slave-served HTTP buckets cannot be checked
// cheaply and are assumed dead — the previous fleet's data servers died
// with the previous master's run, so counting on them would trade a
// cheap re-execution for a task-long fetch stall.
func (m *Master) manifestAlive(o journal.Manifest) bool {
	switch {
	case strings.HasPrefix(o.URL, "file://"):
		_, err := os.Stat(strings.TrimPrefix(o.URL, "file://"))
		return err == nil
	default:
		return false
	}
}

// URL returns the master's RPC endpoint URL.
func (m *Master) URL() string { return "http://" + m.addr + xmlrpc.RPCPath }

// Stats returns a snapshot of control-plane counters.
func (m *Master) Stats() TaskStats {
	ns := m.srv.Stats()
	m.mu.Lock()
	st := m.taskStats
	m.mu.Unlock()
	st.TasksAssigned, st.TasksRequeued, st.Blacklisted = ns.Assigned.Load(), ns.Requeued.Load(), ns.Parked.Load()
	st.SlavesSeen, st.SlavesLost = ns.Seen.Load(), ns.Lost.Load()
	return st
}

// Scheduler exposes the scheduler (ablation benches).
func (m *Master) Scheduler() *sched.Scheduler { return m.sched }

// Jobs returns the master's job manager, which hosts concurrent
// core.Job executors behind a bounded admission queue.
func (m *Master) Jobs() *JobManager { return m.manager }

// JobStats returns a snapshot of one job's control-plane counters.
func (m *Master) JobStats(id core.JobID) JobTaskStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if js, ok := m.jobStats[id]; ok {
		return *js
	}
	return JobTaskStats{}
}

func (m *Master) jobStatsLocked(id core.JobID) *JobTaskStats {
	js, ok := m.jobStats[id]
	if !ok {
		js = &JobTaskStats{}
		m.jobStats[id] = js
	}
	return js
}

// registerGauges exposes control-plane state to the metrics surface.
// TaskStats counters are exported as gauges because they are snapshots
// of the same mutex-guarded struct benchmarks read.
func (m *Master) registerGauges(rt *obs.Runtime) {
	mm := rt.M()
	mm.SetGauge("mrs_slaves_live", func() int64 { return int64(m.NumSlaves()) })
	stat := func(pick func(TaskStats) int64) func() int64 {
		return func() int64 { return pick(m.Stats()) }
	}
	mm.SetGauge("mrs_master_tasks_assigned", stat(func(s TaskStats) int64 { return s.TasksAssigned }))
	mm.SetGauge("mrs_master_tasks_done", stat(func(s TaskStats) int64 { return s.TasksDone }))
	mm.SetGauge("mrs_master_tasks_failed", stat(func(s TaskStats) int64 { return s.TasksFailed }))
	mm.SetGauge("mrs_master_tasks_requeued", stat(func(s TaskStats) int64 { return s.TasksRequeued }))
	mm.SetGauge("mrs_master_blacklisted", stat(func(s TaskStats) int64 { return s.Blacklisted }))
	mm.SetGauge("mrs_slaves_seen", stat(func(s TaskStats) int64 { return s.SlavesSeen }))
	mm.SetGauge("mrs_slaves_lost", stat(func(s TaskStats) int64 { return s.SlavesLost }))
}

// statusPage renders the master half of /debug/status: the aggregate
// fields single-job runs have always had, plus — when the JobManager
// has hosted any jobs — a per-job table of state, task counts, and
// shuffled bytes.
func (m *Master) statusPage() string {
	st := m.Stats()
	out := fmt.Sprintf(
		"mrs master %s\nslaves live: %d (seen %d, lost %d)\nsched: %d pending, %d running\ntasks: %d assigned, %d done, %d failed, %d requeued, %d blacklisted polls\n",
		m.addr, m.NumSlaves(), st.SlavesSeen, st.SlavesLost,
		m.sched.Pending(), m.sched.Running(),
		st.TasksAssigned, st.TasksDone, st.TasksFailed, st.TasksRequeued, st.Blacklisted)
	if nodes := m.Nodes(); len(nodes) > 0 {
		out += "nodes:\n"
		for _, n := range nodes {
			extra := ""
			if n.Draining {
				extra = " draining"
			}
			out += fmt.Sprintf("  %s (%s) addr=%s slots=%d done=%d%s\n",
				n.ID, n.Kind, n.Addr, n.Slots, n.TasksDone, extra)
		}
	}
	jobs := m.manager.List()
	if len(jobs) == 0 {
		return out
	}
	out += "jobs:\n"
	for _, ji := range jobs {
		pending, running := m.sched.JobCounts(ji.ID)
		js := m.JobStats(ji.ID)
		out += fmt.Sprintf("  job %d %q: %s — %d pending, %d running, %d done, %d failed, %d bytes shuffled\n",
			ji.ID, ji.Name, ji.State, pending, running, js.TasksDone, js.TasksFailed, js.ShuffleBytes)
	}
	return out
}

// serveData serves buckets to slaves and to Collect.
func (m *Master) serveData(w http.ResponseWriter, r *http.Request) {
	m.store.ServeData(w, r, strings.TrimPrefix(r.URL.Path, "/data/"))
}

// ---------------------------------------------------------------------------
// Node protocol: served by m.srv; the master adds stats, metrics and
// the journal on top of what the scheduler accepts.

// taskDone records a completion the scheduler accepted (node.Config.OnDone).
func (m *Master) taskDone(id string, jobID int64, spec *core.TaskSpec, result *core.TaskResult) {
	m.mu.Lock()
	m.taskStats.TasksDone++
	js := m.jobStatsLocked(core.JobID(jobID))
	js.TasksDone++
	js.ShuffleBytes += result.Timing.InBytes
	m.mu.Unlock()
	mm := m.opts.Obs.M()
	mm.Add(obs.JobSeries("mrs_job_tasks_done_total", jobID), 1)
	mm.Add(obs.JobSeries("mrs_job_shuffle_bytes_total", jobID), result.Timing.InBytes)
	if spec.Job != 0 {
		m.journalAppend(journal.Event{
			Kind:    journal.EvTaskDone,
			Job:     int64(spec.Job),
			Dataset: spec.Op.Dataset,
			Task:    spec.TaskIndex,
			Outputs: journal.FromDescriptors(result.Outputs),
			InBytes: result.Timing.InBytes,
			Node:    id,
		})
	}
	if m.opts.DisableAffinity {
		m.sched.ClearAffinity()
	}
}

// taskFailed records a failure the scheduler took (node.Config.OnFail).
func (m *Master) taskFailed(_ string, jobID, _ int64, _ string) {
	m.mu.Lock()
	m.taskStats.TasksFailed++
	m.jobStatsLocked(core.JobID(jobID)).TasksFailed++
	m.mu.Unlock()
	m.opts.Obs.M().Add(obs.JobSeries("mrs_job_tasks_failed_total", jobID), 1)
}

// Drain takes a node (by id or advertised address) out of rotation:
// its leases requeue and its next get_task answers shutdown. Reports
// false for an unknown or already-draining node.
func (m *Master) Drain(target string) bool {
	ok, _ := m.srv.Drain(target)
	return ok
}

// Nodes returns a snapshot of every signed-in node, sorted by id
// (diagnostics, the status page, and the list_nodes RPC).
func (m *Master) Nodes() []rpcproto.NodeInfo { return m.srv.Nodes() }

// NumSlaves returns the count of live nodes.
func (m *Master) NumSlaves() int { return m.srv.NumNodes() }

// WaitForSlaves blocks until at least n nodes are signed in.
func (m *Master) WaitForSlaves(ctx context.Context, n int) error {
	return m.srv.WaitNodes(ctx, func(have int) bool { return have >= n })
}

// ---------------------------------------------------------------------------
// core.Executor

// Store implements core.Executor.
func (m *Master) Store() *bucket.Store { return m.store }

// Submit implements core.Executor: the task enters the scheduler's
// pending set, where tasks from any number of concurrent operations
// interleave, and slaves pull it via get_task. The callback fires when
// the task succeeds, exhausts its retry budget, or the master shuts
// down; the scheduler guarantees it never fires synchronously from
// inside Submit and never while internal locks are held.
func (m *Master) Submit(spec *core.TaskSpec, done func(*core.TaskResult, error)) {
	// Recovery short-circuit: a resumed job re-drives its whole program,
	// but tasks whose completions the journal replayed are answered from
	// their journaled output manifests — no slave ever sees them again.
	// Dataset ids are queue positions and task indexes are stable, so a
	// deterministic driver resubmits each task under the same key.
	if spec.Job != 0 {
		if outs := m.recoveredOutputs(spec.Job, spec.Op.Dataset, spec.TaskIndex); outs != nil {
			m.opts.Obs.M().Add(obs.MetricRecoveredTasks, 1)
			res := &core.TaskResult{Dataset: spec.Op.Dataset, TaskIndex: spec.TaskIndex}
			for _, o := range outs {
				res.Outputs = append(res.Outputs, o.Descriptor())
			}
			go done(res, nil)
			return
		}
	}
	if _, err := m.sched.Submit(spec, sched.Callback(done)); err != nil {
		// Scheduler already closed; deliver the refusal asynchronously
		// to honor the Executor contract.
		go done(nil, err)
	}
}

// SetJobWeight adjusts a managed job's fair-share weight, journaling
// the change so a recovered master restores it.
func (m *Master) SetJobWeight(id core.JobID, weight int) {
	m.sched.SetJobWeight(id, weight)
	if id != 0 {
		m.journalAppend(journal.Event{Kind: journal.EvJobWeight, Job: int64(id), Weight: weight})
	}
}

// Free implements core.Executor. Buckets owned by the master (its own
// store, or the shared directory) are removed directly; buckets served
// by slaves are queued as piggybacked delete commands.
func (m *Master) Free(mat *core.Materialized) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		// As in jobComplete: a crashed master's driver may still run
		// its deferred frees, but the journal names these buckets and
		// recovery needs them.
		return
	}
	var deletes []string
	for _, split := range mat.Splits {
		for _, d := range split {
			if d.Name == "" {
				continue
			}
			switch {
			case strings.HasPrefix(d.URL, "file://"), strings.HasPrefix(d.URL, "http://"+m.addr+"/"):
				_ = m.store.Remove(d.Name)
			default:
				// Ask every live node to delete; removal is
				// idempotent, so non-owners simply no-op.
				deletes = append(deletes, d.Name)
			}
		}
	}
	m.srv.Broadcast(deletes, nil)
}

// jobComplete reclaims a finished managed job's runtime state: the
// master's own copy of the job's buckets is removed immediately, every
// live slave gets the job id queued as a GC broadcast (piggybacked on
// its next get_task, like Free's per-bucket deletes), and the
// scheduler drops the job's queues/affinities/blacklist. Slaves that
// sign in later never held the job's data, so queueing only to the
// current fleet is complete.
func (m *Master) jobComplete(id core.JobID) {
	m.mu.Lock()
	if m.crashed {
		// A crashing master must not reclaim anything: the journaled
		// manifests name exactly these buckets, and recovery needs them.
		m.mu.Unlock()
		return
	}
	m.srv.Broadcast(nil, []int64{int64(id)})
	m.mu.Unlock()
	_, _ = m.store.RemoveJob(int64(id))
	m.sched.JobDone(id)
}

// Close implements core.Executor: it tells slaves to shut down (via
// get_task) and stops serving.
func (m *Master) Close() error {
	jl, first := m.stop(false)
	if !first {
		return nil
	}

	// The journal must be checkpointed, fsynced, and unlocked BEFORE the
	// scheduler closes: closing the scheduler fails the running jobs and
	// releases the admission queue, and anything that happens after that
	// must not race a half-flushed journal (interrupted jobs stay
	// "running" in the journal — that is what makes them resumable).
	if jl != nil {
		_ = jl.Close()
	}

	m.sched.Close()

	// Closing the scheduler wakes every long-polled get_task, whose
	// handlers then return shutdown. A short grace period lets slaves
	// that were between polls get one more request in before the HTTP
	// server stops accepting connections.
	time.Sleep(100 * time.Millisecond)
	// Drop our own pooled fetch connections (Collect reads from slave
	// data servers) so their shutdowns quiesce too.
	m.store.CloseIdle()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := m.httpSrv.Shutdown(ctx)
	if err != nil {
		m.httpSrv.Close()
	}
	if m.ownsDir != "" {
		os.RemoveAll(m.ownsDir)
	}
	return nil
}

// Crash stops the master the way SIGKILL would, for crash-recovery
// tests: the journal is abandoned without a final checkpoint or fsync,
// the HTTP server is torn down abruptly, and — unlike Close — no
// shutdown signal ever reaches the fleet (slaves see RPC errors, back
// off, and retry until a restarted master answers), no bucket data is
// reclaimed, and the master's own directory is left on disk.
func (m *Master) Crash() error {
	jl, first := m.stop(true)
	if !first {
		return nil
	}
	if jl != nil {
		jl.Abandon()
	}
	// Abrupt: in-flight RPCs die mid-connection, exactly as on a kill.
	m.httpSrv.Close()
	m.sched.Close()
	m.store.CloseIdle()
	return nil
}

// stop marks the master closed (and crashed), detaches its journal and
// stops the node server; first is false if it was already stopped.
func (m *Master) stop(crash bool) (jl *journal.Journal, first bool) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false
	}
	m.closed, m.crashed = true, crash
	jl, m.journal = m.journal, nil
	m.mu.Unlock()
	if crash {
		m.srv.Crash()
	} else {
		m.srv.Close()
	}
	return jl, true
}
