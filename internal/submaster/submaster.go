// Package submaster implements the middle tier of the hierarchical
// control plane: a node that signs in to the master as one aggregated
// worker group while serving the master↔node protocol to a shard of
// the fleet. Unmodified slaves attach to it exactly as to the master.
//
// Downward it runs the same node.Server the master runs, over a local
// sched.Scheduler holding the work this node has leased. Its own parts
// are a local retry budget that absorbs transient child failures
// without a master round trip, and the upward side, a node.Uplink
// through which it acts as one wide slave: it polls get_tasks only
// while children have idle slots (one poll in flight), batches child
// outcomes into report_batch RPCs, and re-signs in after a master
// restart without disturbing its children, who only know its address.
//
// The sub-master carries no data plane: task payloads flow between
// slaves' bucket servers (or the shared filesystem) as in the flat
// topology. See DESIGN.md §9 ("Hierarchical control plane").
package submaster

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/xmlrpc"
)

// Options configures a sub-master.
type Options struct {
	// MasterAddr is the parent master's host:port.
	MasterAddr string
	// Addr is the child-facing control listen address
	// (default "127.0.0.1:0").
	Addr string
	// PortFile, when set, receives the child-facing host:port once
	// listening (how out-of-process slaves find their sub-master).
	PortFile string
	// Logger receives diagnostics (default: discard).
	Logger *log.Logger
	// MaxConsecutiveRPCErrors before the sub-master gives up on the
	// master (default 10).
	MaxConsecutiveRPCErrors int
	// RPCIntercept wraps every upward master RPC (fault injection).
	RPCIntercept xmlrpc.Intercept
	// BackoffSeed seeds the retry-jitter stream (0 selects a default).
	BackoffSeed uint64
	// Obs receives the sub-master's control-plane metrics (nil
	// disables).
	Obs *obs.Runtime
	// FetchBatch caps how many assignments one upward poll may carry
	// (default 16). A fetcher grabs every free child slot up to this
	// cap before polling, so refilling an idle shard costs one
	// get_tasks round trip instead of one RPC per task.
	FetchBatch int
	// FlushInterval is how long a buffered child report may wait
	// before a report_batch carries it upward (default 5ms).
	FlushInterval time.Duration
	// MaxBatch is the report count that forces an immediate flush
	// (default 64).
	MaxBatch int
	// LocalAttempts is the local retry budget per task: how many times
	// a task may fail inside this shard before the failure escalates
	// to the master (default 2).
	LocalAttempts int
	// LongPoll bounds a child's get_task wait (default 1s).
	LongPoll time.Duration
	// HeartbeatInterval paces child heartbeats (default 500ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout reaps silent children (default 5s).
	HeartbeatTimeout time.Duration
	// SpeculationFactor enables shard-local straggler re-execution
	// with this slowness factor (0 disables). The master speculates
	// across nodes; this catches stragglers hidden inside the shard,
	// which the master cannot see through the aggregated identity.
	SpeculationFactor float64
	// DrainLinger bounds how long Run keeps answering children after
	// shutdown begins, so they observe a clean shutdown status instead
	// of a dead socket (default 3s).
	DrainLinger time.Duration
}

// SubMaster is one middle-tier node.
type SubMaster struct {
	opts    Options
	up      *node.Uplink // toward the master
	sched   *sched.Scheduler
	srv     *node.Server // toward the children, over sched
	ln      net.Listener
	httpSrv *http.Server
	addr    string
	logger  *log.Logger

	mu     sync.Mutex
	used   int // slots held by fetched or in-flight tasks
	runErr error
	freed  chan struct{} // kicked when slots return to the pool

	// local holds the local sched ids of unresolved tasks; one still
	// present after sched.Fail means the failure was absorbed by the
	// local retry budget rather than escalated.
	localMu sync.Mutex
	local   map[sched.TaskID]bool

	reportMu sync.Mutex
	reports  []rpcproto.Report
	kick     chan struct{}

	stop     chan struct{} // closed by beginShutdown
	stopOnce sync.Once
	wg       sync.WaitGroup // fetchers

	tasksFetched atomic.Int64
}

// New prepares a sub-master: listening for children but not yet signed
// in upward (Run does that).
func New(opts Options) (*SubMaster, error) {
	return newSubMaster(opts, clock.Real{})
}

// newSubMaster is New with the clock that drives child liveness, the
// local scheduler's long polls, and speculation.
func newSubMaster(opts Options, clk clock.Clock) (*SubMaster, error) {
	if opts.MasterAddr == "" {
		return nil, fmt.Errorf("submaster: MasterAddr required")
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	orDefault(&opts.MaxConsecutiveRPCErrors, 10)
	orDefault(&opts.FetchBatch, 16)
	orDefault(&opts.FlushInterval, 5*time.Millisecond)
	orDefault(&opts.MaxBatch, 64)
	orDefault(&opts.LocalAttempts, 2)
	orDefault(&opts.LongPoll, time.Second)
	orDefault(&opts.HeartbeatInterval, 500*time.Millisecond)
	orDefault(&opts.HeartbeatTimeout, 5*time.Second)
	orDefault(&opts.DrainLinger, 3*time.Second)
	orDefault(&opts.BackoffSeed, 1)
	logger := opts.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &SubMaster{
		opts:   opts,
		logger: logger,
		freed:  make(chan struct{}, 1),
		local:  map[sched.TaskID]bool{},
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}

	// The local scheduler dispatches the leases this node holds. Its
	// observer is the shared runtime: with worker-keyed trace spans the
	// child-level attempt lane coexists with the master's node-level
	// lane for the same trace id, which is exactly the two-level view
	// docs/OBSERVABILITY.md describes.
	s.sched = sched.NewWithClock(opts.LocalAttempts, clk)
	if opts.Obs != nil {
		s.sched.SetObserver(opts.Obs)
	}
	s.up = node.NewUplink(node.UplinkConfig{
		Name:           "submaster",
		Parent:         opts.MasterAddr,
		Retry:          fault.NewBackoff(opts.BackoffSeed),
		Logger:         logger,
		Intercept:      opts.RPCIntercept,
		Args:           s.signinArgs,
		OnSignin:       func(id string, hb time.Duration) { s.srv.SetParent(id, hb) },
		Metrics:        opts.Obs.M(),
		ResigninMetric: obs.MetricSubmasterResignins,
	})

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("submaster: listen %s: %w", opts.Addr, err)
	}
	s.ln = ln
	s.addr = ln.Addr().String()

	s.srv = node.New(s.sched, node.Config{
		Name:         "submaster",
		Prefix:       map[string]string{rpcproto.NodeKindSlave: "c"},
		Heartbeat:    opts.HeartbeatInterval,
		Timeout:      opts.HeartbeatTimeout,
		LongPoll:     opts.LongPoll,
		Speculation:  sched.SpeculationConfig{SlownessFactor: opts.SpeculationFactor},
		Clock:        clk,
		Metrics:      opts.Obs.M(),
		SigninMetric: obs.MetricSubmasterChildSignins,
		OnFail:       s.childFailed,
	})
	mux := http.NewServeMux()
	mux.Handle(xmlrpc.RPCPath, s.srv.Handler())
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)

	if opts.PortFile != "" {
		if err := os.WriteFile(opts.PortFile, []byte(s.addr+"\n"), 0o644); err != nil {
			s.cleanup()
			return nil, fmt.Errorf("submaster: writing port file: %w", err)
		}
	}
	return s, nil
}

// orDefault replaces a non-positive option with its default.
func orDefault[T int | uint64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Addr returns the child-facing control address.
func (s *SubMaster) Addr() string { return s.addr }

// ID returns the master-assigned node id (empty before signin).
func (s *SubMaster) ID() string { return s.up.ID() }

// TasksFetched returns how many assignments this node pulled from the
// master.
func (s *SubMaster) TasksFetched() int64 { return s.tasksFetched.Load() }

// Resignins returns how many times this node re-signed in upward after
// the master stopped recognizing it.
func (s *SubMaster) Resignins() int64 { return s.up.Resignins() }

// ChildCount returns how many children are currently signed in.
func (s *SubMaster) ChildCount() int { return s.srv.NumNodes() }

// DrainChild takes a child (by id or address) out of rotation: its
// leases requeue into the local scheduler and its next get_task
// answers shutdown. False for an unknown or already-draining child.
func (s *SubMaster) DrainChild(target string) bool {
	ok, _ := s.srv.Drain(target)
	return ok
}

// Run signs in upward and relays work until the master shuts down, the
// context is cancelled, or the master becomes unreachable.
func (s *SubMaster) Run(ctx context.Context) error {
	defer s.cleanup()

	if err := s.up.Signin(ctx); err != nil {
		return err
	}

	stopHB := make(chan struct{})
	go s.up.Heartbeat(stopHB)
	defer close(stopHB)
	flusherDone := make(chan struct{})
	go s.flusher(flusherDone)

	// One upward poll in flight at a time: the master's answers, and
	// the deletes and job-GC broadcasts they carry, are then relayed in
	// the order the master built them. With concurrent polls an answer
	// carrying a Free's deletes could be relayed after a later answer's
	// task of a new job had already rewritten those bucket names.
	s.wg.Add(1)
	go s.fetcher(ctx)

	select {
	case <-ctx.Done():
		s.beginShutdown(ctx.Err())
	case <-s.stop:
	}
	s.wg.Wait()
	close(flusherDone)
	s.flush() // deliver reports buffered after the flusher exited
	if ctx.Err() == nil {
		// Graceful shutdown only: a cancelled context is a kill, and
		// waiting for orphans to poll would just stall the killer.
		s.lingerForChildren()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}

// Close triggers shutdown from outside Run (tests, process teardown).
func (s *SubMaster) Close() {
	s.beginShutdown(nil)
}

// beginShutdown transitions the node to draining: the node server
// answers every child poll with shutdown, the local scheduler closes
// (waking long-polled children into that answer) and fetchers stop.
func (s *SubMaster) beginShutdown(err error) {
	s.stopOnce.Do(func() {
		if err != nil {
			s.mu.Lock()
			s.runErr = err
			s.mu.Unlock()
		}
		s.srv.Close()
		s.sched.Close()
		close(s.stop)
	})
}

// lingerForChildren keeps the child-facing server answering until every
// child has polled its shutdown status (or DrainLinger elapses), so
// children exit through the protocol rather than a connection error.
func (s *SubMaster) lingerForChildren() {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainLinger)
	defer cancel()
	_ = s.srv.WaitNodes(ctx, func(n int) bool { return n == 0 })
}

func (s *SubMaster) cleanup() {
	s.srv.Close()
	s.httpSrv.Close()
	s.up.Client.CloseIdle()
}

// ---------------------------------------------------------------------------
// Upward side: demand-driven fetch, report batching

// signinArgs advertises this node upward as one wide worker.
func (s *SubMaster) signinArgs() rpcproto.SigninArgs {
	return rpcproto.SigninArgs{
		Kind:  rpcproto.NodeKindSubmaster,
		Addr:  s.addr,
		Slots: int64(s.srv.Slots()),
	}
}

// acquireSlot blocks until a child slot is free (or shutdown). A slot
// is what makes the fetch demand-driven: with no idle child capacity
// the node stops polling the master entirely. Capacity is the node
// server's live slot count, so a child signing in, draining or being
// reaped moves it; only the fetcher waits here.
func (s *SubMaster) acquireSlot() bool {
	for {
		changed := s.srv.Changed()
		if s.tryAcquireSlots(1) == 1 {
			return true
		}
		select {
		case <-s.stop:
			return false
		case <-changed:
		case <-s.freed:
		}
	}
}

func (s *SubMaster) releaseSlots(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.used -= n
	s.mu.Unlock()
	select {
	case s.freed <- struct{}{}:
	default:
	}
}

// tryAcquireSlots grabs up to n free slots without blocking, returning
// how many it got. The fetcher calls it right before an upward poll so
// one get_tasks round trip can refill every idle child at once.
func (s *SubMaster) tryAcquireSlots(n int) int {
	capacity := s.srv.Slots()
	s.mu.Lock()
	defer s.mu.Unlock()
	got := max(min(n, capacity-s.used), 0)
	s.used += got
	return got
}

// fetcher is the upward polling loop. It owns at most one slot at a
// time: while holding it, it polls the master until it fetches a task
// (the slot transfers to the task and releases on completion) or the
// master signals shutdown.
func (s *SubMaster) fetcher(ctx context.Context) {
	defer s.wg.Done()
	consecutive := 0
	for {
		if !s.acquireSlot() {
			return
		}
		if !s.fetchWithSlot(ctx, &consecutive) {
			return
		}
	}
}

// fetchWithSlot polls until the held slot is handed to a task (true) or
// the fetcher should exit (false, slot released). Each poll also grabs
// every other free child slot (up to FetchBatch) and asks the master
// for that many assignments in one get_tasks round trip, so refilling
// an idle shard costs one RPC instead of one per task.
func (s *SubMaster) fetchWithSlot(ctx context.Context, consecutive *int) bool {
	for {
		select {
		case <-ctx.Done():
			s.releaseSlots(1)
			s.beginShutdown(ctx.Err())
			return false
		case <-s.stop:
			s.releaseSlots(1)
			return false
		default:
		}
		id := s.up.ID()
		extra := s.tryAcquireSlots(s.opts.FetchBatch - 1)
		raw, err := s.up.Client.Call(rpcproto.MethodGetTasks, id, int64(1+extra))
		if err != nil {
			s.releaseSlots(extra)
			// A re-signin after a master restart is invisible to the
			// children: they address this node, not the master.
			if err := s.up.PollFailed(ctx, id, err, consecutive, s.opts.MaxConsecutiveRPCErrors); err != nil {
				s.releaseSlots(1)
				s.beginShutdown(err)
				return false
			}
			continue
		}
		*consecutive = 0
		as, err := rpcproto.DecodeAssignments(raw)
		if err == nil && len(as) == 0 {
			err = fmt.Errorf("empty reply")
		}
		if err != nil {
			s.releaseSlots(1 + extra)
			s.beginShutdown(fmt.Errorf("submaster: bad get_tasks reply: %w", err))
			return false
		}
		first := as[0]
		s.relay(first.Deletes, first.GCJobs)
		switch first.Status {
		case rpcproto.StatusShutdown:
			s.releaseSlots(1 + extra)
			s.beginShutdown(nil)
			return false
		case rpcproto.StatusIdle:
			// Master paced us via its long poll; keep the base slot for
			// the next poll, return the rest to the pool.
			s.releaseSlots(extra)
			continue
		case rpcproto.StatusTask:
			// Hand each fetched task one of the held slots; surplus
			// slots return to the pool.
			held := 1 + extra
			for _, a := range as {
				if !s.submitLocal(a) {
					s.releaseSlots(held)
					return false
				}
				held--
			}
			s.releaseSlots(held)
			return true
		default:
			s.releaseSlots(1 + extra)
			s.beginShutdown(fmt.Errorf("submaster: bad assignment status %q", first.Status))
			return false
		}
	}
}

// submitLocal enters a fetched assignment into the local scheduler.
// The completion callback releases the slot and enqueues the upward
// report under the parent's task id.
func (s *SubMaster) submitLocal(a rpcproto.Assignment) bool {
	job, parentID := int64(a.Spec.Job), a.TaskID
	var localID sched.TaskID
	// localMu is held across Submit (which never fires the callback
	// synchronously) so the callback observes localID assigned.
	s.localMu.Lock()
	id, err := s.sched.Submit(a.Spec, func(res *core.TaskResult, err error) {
		defer s.releaseSlots(1)
		s.localMu.Lock()
		delete(s.local, localID)
		s.localMu.Unlock()
		if err != nil {
			if err == sched.ErrClosed {
				// Shutting down: the master's lease on this task will
				// requeue it elsewhere; reporting a failure would burn
				// one of its global attempts for a local non-failure.
				return
			}
			s.enqueueReport(rpcproto.Report{Job: job, TaskID: parentID, Err: err.Error()})
			return
		}
		s.enqueueReport(rpcproto.Report{
			Done:    true,
			Job:     job,
			TaskID:  parentID,
			Outputs: res.Outputs,
			Timing:  res.Timing,
		})
	})
	if err != nil {
		s.localMu.Unlock()
		return false // closed
	}
	localID = id
	s.local[id] = true
	s.localMu.Unlock()
	s.tasksFetched.Add(1)
	s.opts.Obs.M().Add(obs.MetricSubmasterFetched, 1)
	return true
}

// relay fans the master's piggybacked broadcasts out to every child
// and applies job GC to local scheduling state.
func (s *SubMaster) relay(deletes []string, gcJobs []int64) {
	s.srv.Broadcast(deletes, gcJobs)
	for _, j := range gcJobs {
		s.sched.JobDone(core.JobID(j))
	}
}

// enqueueReport buffers one upward task outcome; a full buffer forces
// an immediate flush.
func (s *SubMaster) enqueueReport(r rpcproto.Report) {
	s.reportMu.Lock()
	s.reports = append(s.reports, r)
	full := len(s.reports) >= s.opts.MaxBatch
	s.reportMu.Unlock()
	s.opts.Obs.M().Add(obs.MetricSubmasterReports, 1)
	if full {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

func (s *SubMaster) flusher(done chan struct{}) {
	tick := time.NewTicker(s.opts.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-s.kick:
		case <-tick.C:
		}
		s.flush()
	}
}

// flush delivers all buffered reports upward in MaxBatch-sized
// report_batch calls.
func (s *SubMaster) flush() {
	for {
		s.reportMu.Lock()
		n := len(s.reports)
		if n == 0 {
			s.reportMu.Unlock()
			return
		}
		if n > s.opts.MaxBatch {
			n = s.opts.MaxBatch
		}
		batch := make([]rpcproto.Report, n)
		copy(batch, s.reports)
		s.reports = append(s.reports[:0], s.reports[n:]...)
		s.reportMu.Unlock()
		s.deliver(batch)
	}
}

// deliver sends one report_batch through the uplink's redelivery.
func (s *SubMaster) deliver(batch []rpcproto.Report) {
	s.opts.Obs.M().Add(obs.MetricSubmasterBatches, 1)
	id := s.up.ID()
	err := s.up.Report(rpcproto.MethodReportBatch, id, rpcproto.EncodeReports(batch))
	if rpcproto.IsUnknownSlave(err) {
		// The master processed the batch before faulting; only the
		// identity needs repair.
		if rerr := s.up.Resignin(context.Background(), id); rerr != nil {
			s.logger.Printf("%v", rerr)
		}
	}
}

// childFailed counts a child failure the local retry budget absorbed
// (node.Config.OnFail): a task still tracked after sched.Fail is queued
// for another local attempt, with no master round trip. Exhausted tasks
// escalated through their callback instead and are no longer tracked.
func (s *SubMaster) childFailed(_ string, _, task int64, _ string) {
	s.localMu.Lock()
	retrying := s.local[sched.TaskID(task)]
	s.localMu.Unlock()
	if retrying {
		s.opts.Obs.M().Add(obs.MetricSubmasterLocalRetries, 1)
	}
}
