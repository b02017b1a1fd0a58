// Package node implements the master↔node control protocol once, for
// every tier of the control plane (§IV-B of the Mrs paper, generalized
// to the sub-master tree).
//
// A Server serves the protocol's nine methods — signin, ping, get_task,
// get_tasks, task_done, task_failed, report_batch, drain, list_nodes —
// over a caller-supplied sched.Scheduler. The master runs one over its
// fleet of slaves and sub-masters; each sub-master runs one over its
// shard of slaves. The Server owns the node registry, liveness (touch,
// the typed unknown-node fault, one reaper), the long-poll get_task
// with its blacklist, drain, shutdown and crash answers, per-node
// delete/GC broadcast queues, task leases and the speculation tick, all
// on an injectable clock. Tiers differ only in the Config they pass:
// id naming, heartbeat, timeout, lease, counters, and two callbacks
// fired after the scheduler accepts a completion or a failure.
//
// An Uplink is the other end: a worker's signin, heartbeat, re-signin
// and report redelivery toward its parent, shared by slaves and
// sub-masters.
package node

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/xmlrpc"
)

// Config is what distinguishes one tier's Server from another's.
type Config struct {
	Name string // prefixes error and fault messages
	// Prefix maps a signing-in node's kind to its id prefix; ids are
	// prefix+N over one counter. Other kinds take the slave prefix.
	Prefix    map[string]string
	Heartbeat time.Duration // handed out at signin (SetParent replaces it)
	Timeout   time.Duration // silence that gets a node reaped; reaping runs every Timeout/2
	Lease     time.Duration // positive: requeue attempts running longer than this
	LongPoll  time.Duration // bounds a get_task wait; parks a blacklisted node
	// BlacklistAfter configures sched.SetBlacklist, with the registry
	// size as the live-node count (<= 0 disables).
	BlacklistAfter int
	// Speculation enables straggler re-execution when SlownessFactor is
	// positive; the scan runs every MinRuntime/2 (10–50 ms).
	Speculation sched.SpeculationConfig
	Clock       clock.Clock // drives everything timed (default: wall clock)
	// Metrics receives the counters named below; "" counts nothing.
	Metrics                                *obs.Metrics
	SigninMetric, DrainMetric, BatchMetric string
	// OnDone fires after the scheduler accepts a completion, OnFail
	// after it takes a failure; job is the id the node reported. Either
	// may be nil. Neither runs under the Server's lock.
	OnDone func(node string, job int64, spec *core.TaskSpec, res *core.TaskResult)
	OnFail func(node string, job, task int64, msg string)
}

// Stats are live protocol counters.
type Stats struct {
	Assigned atomic.Int64 // tasks handed out
	Seen     atomic.Int64 // signins
	Lost     atomic.Int64 // nodes reaped for silence
	Parked   atomic.Int64 // get_task polls parked by the blacklist
	Requeued atomic.Int64 // attempts reclaimed by the lease
}

// entry is one signed-in node. A node is a leaf slave or a sub-master
// fronting a whole shard; the Server leases, reaps and drains both
// alike — a sub-master just looks like one very wide slave.
type entry struct {
	rpcproto.NodeInfo // Draining: the next get_task answers shutdown and forgets it
	lastSeen          time.Time
	done              atomic.Int64 // completions accepted (NodeInfo.TasksDone when listed)
	deletes           []string     // queued bucket deletes
	gcJobs            []int64      // queued completed-job reclaims
}

// Server serves the node protocol over one scheduler.
type Server struct {
	cfg   Config
	sched *sched.Scheduler
	stats Stats

	mu        sync.Mutex
	nodes     map[string]*entry
	next      int
	scope     string        // parent-assigned id that node ids nest under
	heartbeat time.Duration // handed out at signin
	changed   chan struct{} // closed and replaced on every registry change
	closed    bool
	crashed   bool

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

var errCrashing = errors.New("unavailable (crashing)")

// New starts a Server (and its reaper) over sc.
func New(sc *sched.Scheduler, cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	s := &Server{
		cfg:       cfg,
		sched:     sc,
		nodes:     map[string]*entry{},
		heartbeat: cfg.Heartbeat,
		changed:   make(chan struct{}),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	sc.SetBlacklist(cfg.BlacklistAfter, s.NumNodes)
	// The tickers exist before New returns, so a fake clock advanced
	// right after construction already drives them.
	reap := cfg.Clock.NewTicker(cfg.Timeout / 2)
	var speculate clock.Ticker
	if cfg.Speculation.SlownessFactor > 0 {
		sc.SetSpeculation(cfg.Speculation)
		every := cfg.Speculation.MinRuntime / 2
		if every <= 0 {
			every = 50 * time.Millisecond
		}
		speculate = cfg.Clock.NewTicker(max(every, 10*time.Millisecond))
	}
	go s.loop(reap, speculate)
	return s
}

// Handler returns an XML-RPC endpoint serving the protocol's nine
// methods.
func (s *Server) Handler() *xmlrpc.Server {
	rpc := xmlrpc.NewServer()
	for name, h := range s.Handlers() {
		rpc.Register(name, h)
	}
	return rpc
}

// Handlers returns the protocol's methods by name.
func (s *Server) Handlers() map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		rpcproto.MethodSignin:      s.signin,
		rpcproto.MethodPing:        s.ping,
		rpcproto.MethodGetTask:     s.getTask,
		rpcproto.MethodGetTasks:    s.getTasks,
		rpcproto.MethodTaskDone:    s.taskReport(true),
		rpcproto.MethodTaskFailed:  s.taskReport(false),
		rpcproto.MethodReportBatch: s.reportBatch,
		rpcproto.MethodDrain:       s.drain,
		rpcproto.MethodListNodes:   s.listNodes,
	}
}

// SetParent nests the ids of later signins under scope ("<scope>.cN")
// and hands out heartbeat at signin — a sub-master calls it with the
// identity and interval its own parent assigned.
func (s *Server) SetParent(scope string, heartbeat time.Duration) {
	s.mu.Lock()
	s.scope, s.heartbeat = scope, heartbeat
	s.mu.Unlock()
}

// Close refuses further signins, answers every later poll with
// shutdown, and stops the reaper. Idempotent.
func (s *Server) Close() { s.shut(false) }

// Crash is Close for a master dying as on SIGKILL: polls get an error
// instead of shutdown, so the fleet backs off and retries until a
// restarted master answers.
func (s *Server) Crash() { s.shut(true) }

func (s *Server) shut(crash bool) {
	s.mu.Lock()
	s.closed = true
	s.crashed = s.crashed || crash
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Stats returns the live protocol counters.
func (s *Server) Stats() *Stats { return &s.stats }

// NumNodes returns how many nodes are signed in.
func (s *Server) NumNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes)
}

// Slots returns the task slots offered by signed-in nodes that are not
// draining.
func (s *Server) Slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.nodes {
		if !e.Draining {
			n += int(e.Slots)
		}
	}
	return n
}

// Changed returns a channel closed at the next signin, drain or forget.
func (s *Server) Changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.changed
}

func (s *Server) changedLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// WaitNodes blocks until ok accepts the number of signed-in nodes.
func (s *Server) WaitNodes(ctx context.Context, ok func(n int) bool) error {
	for {
		s.mu.Lock()
		n, changed := len(s.nodes), s.changed
		s.mu.Unlock()
		if ok(n) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: waiting with %d nodes signed in: %w", s.cfg.Name, n, ctx.Err())
		case <-changed:
		}
	}
}

// Nodes returns a snapshot of every signed-in node, sorted by id.
func (s *Server) Nodes() []rpcproto.NodeInfo {
	s.mu.Lock()
	out := make([]rpcproto.NodeInfo, 0, len(s.nodes))
	for _, e := range s.nodes {
		n := e.NodeInfo
		n.TasksDone = e.done.Load()
		out = append(out, n)
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Broadcast queues bucket deletes and completed-job reclaims for every
// signed-in node; each node collects its queue with its next get_task
// answer. Nodes that sign in later never held the data.
func (s *Server) Broadcast(deletes []string, gcJobs []int64) {
	if len(deletes) == 0 && len(gcJobs) == 0 {
		return
	}
	s.mu.Lock()
	for _, e := range s.nodes {
		e.deletes = append(e.deletes, deletes...)
		e.gcJobs = append(e.gcJobs, gcJobs...)
	}
	s.mu.Unlock()
}

// Drain takes a node (by id or advertised address) out of rotation:
// its leases requeue now and its next get_task answers shutdown. It
// reports false for a node already draining; an unknown target is an
// error.
func (s *Server) Drain(target string) (bool, error) {
	s.mu.Lock()
	e := s.nodes[target]
	if e == nil {
		for _, n := range s.nodes {
			if n.Addr != "" && n.Addr == target && (e == nil || e.Draining) {
				e = n
			}
		}
	}
	if e == nil {
		s.mu.Unlock()
		return false, fmt.Errorf("%s: drain: no node %q", s.cfg.Name, target)
	}
	if e.Draining {
		s.mu.Unlock()
		return false, nil
	}
	e.Draining = true
	s.changedLocked()
	s.mu.Unlock()
	s.count(s.cfg.DrainMetric)
	s.sched.Drain(e.ID)
	return true, nil
}

func (s *Server) count(metric string) {
	if metric != "" {
		s.cfg.Metrics.Add(metric, 1)
	}
}

// forgetLocked drops a node and everything queued for it.
func (s *Server) forgetLocked(id string) {
	if _, ok := s.nodes[id]; ok {
		delete(s.nodes, id)
		s.changedLocked()
	}
}

// touch refreshes a node's liveness; nil for unknown nodes (never
// signed in here, or already declared dead).
func (s *Server) touch(id string) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.touchLocked(id)
}

func (s *Server) touchLocked(id string) *entry {
	e := s.nodes[id]
	if e != nil {
		e.lastSeen = s.cfg.Clock.Now()
	}
	return e
}

// ---------------------------------------------------------------------------
// Liveness

// loop is the one reaper: silent nodes are declared dead (their leases
// requeue), stale attempts requeue under the lease, and, with
// speculation on, stragglers get duplicates on their own faster tick.
func (s *Server) loop(reap, speculate clock.Ticker) {
	defer close(s.done)
	defer reap.Stop()
	var specC <-chan time.Time
	if speculate != nil {
		defer speculate.Stop()
		specC = speculate.Chan()
	}
	for {
		select {
		case <-s.stop:
			return
		case <-specC:
			s.sched.Speculate()
		case <-reap.Chan():
			s.reap()
		}
	}
}

func (s *Server) reap() {
	cutoff := s.cfg.Clock.Now().Add(-s.cfg.Timeout)
	var dead []string
	s.mu.Lock()
	for id, e := range s.nodes {
		if e.lastSeen.Before(cutoff) {
			dead = append(dead, id)
			s.forgetLocked(id)
			s.stats.Lost.Add(1)
		}
	}
	s.mu.Unlock()
	for _, id := range dead {
		s.sched.SlaveDead(id)
	}
	if s.cfg.Lease > 0 {
		s.stats.Requeued.Add(int64(s.sched.RequeueStale(s.cfg.Lease)))
	}
}

// park holds a blacklisted node's poll for one long-poll period.
func (s *Server) park() {
	woke := make(chan struct{})
	s.cfg.Clock.AfterFunc(s.cfg.LongPoll, func() { close(woke) })
	<-woke
}

// ---------------------------------------------------------------------------
// Handlers

// unknown is the typed fault workers key their re-signin on.
func (s *Server) unknown(id string) *xmlrpc.Fault {
	return &xmlrpc.Fault{
		Code:    rpcproto.FaultUnknownSlave,
		Message: fmt.Sprintf("%s: unknown node %s (declared dead?)", s.cfg.Name, id),
	}
}

func (s *Server) idArg(args []any) (string, error) {
	if len(args) < 1 {
		return "", fmt.Errorf("%s: missing node id", s.cfg.Name)
	}
	id, ok := args[0].(string)
	if !ok || id == "" {
		return "", fmt.Errorf("%s: bad node id %v", s.cfg.Name, args[0])
	}
	return id, nil
}

func (s *Server) signin(args []any) (any, error) {
	n := rpcproto.DecodeSigninArgs(args)
	if n.Kind == "" {
		n.Kind = rpcproto.NodeKindSlave
	}
	if n.Slots <= 0 {
		n.Slots = 1 // pre-tree slaves advertise nothing; assume one slot
	}
	prefix, ok := s.cfg.Prefix[n.Kind]
	if !ok {
		prefix = s.cfg.Prefix[rpcproto.NodeKindSlave]
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%s: closed", s.cfg.Name)
	}
	s.next++
	id := prefix + strconv.Itoa(s.next)
	if s.scope != "" {
		// Ids carry the parent-assigned identity so trace lanes and
		// list_nodes rows are unambiguous fleet-wide.
		id = s.scope + "." + id
	}
	s.nodes[id] = &entry{
		NodeInfo: rpcproto.NodeInfo{ID: id, Kind: n.Kind, Addr: n.Addr, Slots: n.Slots},
		lastSeen: s.cfg.Clock.Now(),
	}
	hb := s.heartbeat
	s.changedLocked()
	s.stats.Seen.Add(1)
	s.mu.Unlock()
	s.count(s.cfg.SigninMetric)
	return rpcproto.SigninReply{SlaveID: id, HeartbeatMillis: hb.Milliseconds()}.Encode(), nil
}

func (s *Server) ping(args []any) (any, error) {
	id, err := s.idArg(args)
	if err != nil {
		return nil, err
	}
	if s.touch(id) == nil {
		return nil, s.unknown(id)
	}
	return true, nil
}

func (s *Server) getTask(args []any) (any, error) {
	a, err := s.assign(args)
	if err != nil {
		return nil, err
	}
	return a.Encode()
}

// getTasks is the batched fetch of the sub-master tier: one get_task
// long poll for the first assignment, then a non-blocking drain of up
// to max-1 more ready tasks, all in one round trip. args: (node, max).
func (s *Server) getTasks(args []any) (any, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("%s: get_tasks wants (node, max)", s.cfg.Name)
	}
	maxN, _ := args[1].(int64)
	first, err := s.assign(args[:1])
	if err != nil {
		return nil, err
	}
	as := []rpcproto.Assignment{first}
	if first.Status == rpcproto.StatusTask {
		id := args[0].(string)
		for int64(len(as)) < maxN {
			task, attempt, err := s.sched.RequestAttempt(id, 0)
			if err != nil || task == nil {
				break
			}
			s.stats.Assigned.Add(1)
			as = append(as, rpcproto.Assignment{Status: rpcproto.StatusTask, TaskID: int64(task.ID), Attempt: int64(attempt), Spec: task.Spec})
		}
	}
	return rpcproto.EncodeAssignments(as)
}

// assign is the get_task body: liveness and leave checks, one long poll
// on the scheduler, then the node's queued broadcasts. Two lock
// acquisitions: one before the poll, one after.
func (s *Server) assign(args []any) (rpcproto.Assignment, error) {
	id, err := s.idArg(args)
	if err != nil {
		return rpcproto.Assignment{}, err
	}
	s.mu.Lock()
	e := s.touchLocked(id)
	switch {
	case e == nil:
		s.mu.Unlock()
		return rpcproto.Assignment{}, s.unknown(id)
	case e.Draining || (s.closed && !s.crashed):
		// Drained (its leases were already requeued) or closing: this
		// answer sends the node away and forgets it. Late reports from
		// it still resolve through the scheduler's stale-delivery
		// tolerance.
		a := s.collectLocked(id, rpcproto.Assignment{Status: rpcproto.StatusShutdown})
		s.mu.Unlock()
		return a, nil
	case s.crashed:
		// A crashed master answers with a plain error, never shutdown,
		// so the fleet backs off and retries until a restarted master
		// answers.
		s.mu.Unlock()
		return rpcproto.Assignment{}, errCrashing
	}
	s.mu.Unlock()
	if s.sched.BlacklistedEverywhere(id) {
		// Park the repeat offender for a long-poll period so it paces
		// itself like an idle node, then send it away empty-handed.
		s.park()
		s.stats.Parked.Add(1)
		return s.answer(id, rpcproto.Assignment{Status: rpcproto.StatusIdle}), nil
	}
	task, attempt, err := s.sched.RequestAttempt(id, s.cfg.LongPoll)
	if err == sched.ErrClosed {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.crashed {
			return rpcproto.Assignment{}, errCrashing
		}
		return s.collectLocked(id, rpcproto.Assignment{Status: rpcproto.StatusShutdown}), nil
	}
	if err != nil {
		return rpcproto.Assignment{}, err
	}
	if task == nil {
		return s.answer(id, rpcproto.Assignment{Status: rpcproto.StatusIdle}), nil
	}
	s.stats.Assigned.Add(1)
	return s.answer(id, rpcproto.Assignment{Status: rpcproto.StatusTask, TaskID: int64(task.ID), Attempt: int64(attempt), Spec: task.Spec}), nil
}

// answer refreshes the node's liveness (the long poll may have taken a
// while) and attaches its queued broadcasts. They are collected only
// once the answer is settled, after the long poll: a Free queued while
// the node waited then reaches it no later than the task it is handed,
// and the node applies deletes before dispatching that task — so a
// delete can never land on a bucket that a later job, reusing the
// name, has just written.
func (s *Server) answer(id string, a rpcproto.Assignment) rpcproto.Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.collectLocked(id, a)
}

// collectLocked moves the node's queued broadcasts into a; a shutdown
// answer also forgets the node.
func (s *Server) collectLocked(id string, a rpcproto.Assignment) rpcproto.Assignment {
	if e := s.touchLocked(id); e != nil {
		a.Deletes, a.GCJobs, e.deletes, e.gcJobs = e.deletes, e.gcJobs, nil, nil
		if a.Status == rpcproto.StatusShutdown {
			s.forgetLocked(id)
		}
	}
	return a
}

// taskReport serves task_done (node, job, task, outputs[, timing]) and
// task_failed (node, job, task, message).
func (s *Server) taskReport(done bool) xmlrpc.Handler {
	return func(args []any) (any, error) {
		if len(args) < 4 {
			return nil, fmt.Errorf("%s: task report wants (node, job, task, outputs|message)", s.cfg.Name)
		}
		id, err := s.idArg(args)
		if err != nil {
			return nil, err
		}
		r := rpcproto.Report{Done: done}
		var ok bool
		if r.Job, ok = args[1].(int64); !ok {
			return nil, fmt.Errorf("%s: bad job id %v", s.cfg.Name, args[1])
		}
		if r.TaskID, ok = args[2].(int64); !ok {
			return nil, fmt.Errorf("%s: bad task id %v", s.cfg.Name, args[2])
		}
		if !done {
			r.Err, _ = args[3].(string)
		} else if r.Outputs, err = rpcproto.DecodeDescriptors(args[3]); err != nil {
			return nil, err
		} else if len(args) >= 5 {
			r.Timing = rpcproto.DecodeTiming(args[4])
		}
		return s.report(id, r)
	}
}

// reportBatch accepts a sub-master's aggregated task outcomes: (node,
// reports). Each report names its own job.
func (s *Server) reportBatch(args []any) (any, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("%s: report_batch wants (node, reports)", s.cfg.Name)
	}
	id, err := s.idArg(args)
	if err != nil {
		return nil, err
	}
	reports, err := rpcproto.DecodeReports(args[1])
	if err != nil {
		return nil, err
	}
	s.count(s.cfg.BatchMetric)
	return s.report(id, reports...)
}

// report applies task outcomes. Every one is applied even if another
// errors — a batch is a transport optimization, not a transaction — and
// reports from a node this server does not know are applied too (it may
// have outlived a master restart; the scheduler sorts accepted
// outcomes from stale ones) before it is told to re-sign-in.
func (s *Server) report(id string, reports ...rpcproto.Report) (any, error) {
	e := s.touch(id)
	var firstErr error
	for _, r := range reports {
		if err := s.apply(id, e, r); firstErr == nil {
			firstErr = err
		}
	}
	switch {
	case firstErr != nil:
		return nil, firstErr
	case e == nil:
		return nil, s.unknown(id)
	}
	return true, nil
}

// apply feeds one outcome into the scheduler; an accepted completion
// counts toward the node and reaches OnDone, a failure reaches OnFail.
func (s *Server) apply(id string, e *entry, r rpcproto.Report) error {
	if !r.Done {
		err := s.sched.Fail(sched.TaskID(r.TaskID), id, r.Err)
		if err == nil && s.cfg.OnFail != nil {
			s.cfg.OnFail(id, r.Job, r.TaskID, r.Err)
		}
		return err
	}
	res := &core.TaskResult{Outputs: r.Outputs, Timing: r.Timing}
	spec, err := s.sched.CompleteTask(sched.TaskID(r.TaskID), id, res)
	if err != nil || spec == nil {
		return err
	}
	if e != nil {
		e.done.Add(1)
	}
	if s.cfg.OnDone != nil {
		s.cfg.OnDone(id, r.Job, spec, res)
	}
	return nil
}

// drain args: (node-id-or-addr).
func (s *Server) drain(args []any) (any, error) {
	var target string
	if len(args) > 0 {
		target, _ = args[0].(string)
	}
	if target == "" {
		return nil, fmt.Errorf("%s: drain wants (node-id-or-addr)", s.cfg.Name)
	}
	return s.Drain(target)
}

func (s *Server) listNodes([]any) (any, error) {
	return rpcproto.EncodeNodeInfos(s.Nodes()), nil
}
