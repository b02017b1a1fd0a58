package node

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/xmlrpc"
)

const drainMetric = "test_drains_total"

func newServer(t testing.TB, clk clock.Clock, longPoll time.Duration) (*Server, *sched.Scheduler, *obs.Metrics) {
	t.Helper()
	sc := sched.NewWithClock(0, clk)
	mm := obs.NewMetrics()
	s := New(sc, Config{
		Name:           "test",
		Prefix:         map[string]string{rpcproto.NodeKindSlave: "slave-", rpcproto.NodeKindSubmaster: "sm-"},
		Heartbeat:      20 * time.Millisecond,
		Timeout:        100 * time.Millisecond,
		LongPoll:       longPoll,
		BlacklistAfter: 2,
		Clock:          clk,
		Metrics:        mm,
		DrainMetric:    drainMetric,
	})
	t.Cleanup(func() {
		s.Close()
		sc.Close()
	})
	return s, sc, mm
}

func call(s *Server, method string, args ...any) (any, error) {
	return s.Handlers()[method](args)
}

func signin(t *testing.T, s *Server, a rpcproto.SigninArgs) string {
	t.Helper()
	raw, err := call(s, rpcproto.MethodSignin, a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	reply, err := rpcproto.DecodeSigninReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	return reply.SlaveID
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func isUnknown(err error) bool { return rpcproto.IsUnknownSlave(err) }

func TestReapForgetsQueuedBroadcasts(t *testing.T) {
	// A reaped node leaves nothing behind: its queued deletes and job-GC
	// ids go with its registry entry, and a later node never sees them.
	clk := clock.NewFake(time.Unix(1000, 0))
	s, _, _ := newServer(t, clk, 0)
	dead := signin(t, s, rpcproto.SigninArgs{})
	s.Broadcast([]string{"ds1/t0/s0"}, []int64{7})

	clk.Advance(150 * time.Millisecond) // past the timeout; fires the reaper
	waitCond(t, "silent node to be reaped", func() bool { return s.NumNodes() == 0 })
	s.mu.Lock()
	left := len(s.nodes)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d registry entries left after the reap", left)
	}
	if got := s.Stats().Lost.Load(); got != 1 {
		t.Errorf("Lost = %d, want 1", got)
	}
	if _, err := call(s, rpcproto.MethodGetTask, dead); !isUnknown(err) {
		t.Errorf("reaped node's poll: %v, want the unknown-node fault", err)
	}

	fresh := signin(t, s, rpcproto.SigninArgs{})
	raw, err := call(s, rpcproto.MethodGetTask, fresh)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rpcproto.DecodeAssignment(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Deletes) != 0 || len(a.GCJobs) != 0 {
		t.Errorf("new node inherited broadcasts: deletes %v, gc %v", a.Deletes, a.GCJobs)
	}
}

func TestDrainRules(t *testing.T) {
	s, _, mm := newServer(t, clock.Real{}, time.Millisecond)
	id := signin(t, s, rpcproto.SigninArgs{Addr: "127.0.0.1:9"})
	if _, err := call(s, rpcproto.MethodDrain, "no-such-node"); err == nil {
		t.Error("drain of an unknown target answered without a fault")
	}
	if ok, err := call(s, rpcproto.MethodDrain, "127.0.0.1:9"); err != nil || ok != true {
		t.Fatalf("drain by address = %v, %v; want true", ok, err)
	}
	for _, target := range []string{id, "127.0.0.1:9"} {
		if ok, err := call(s, rpcproto.MethodDrain, target); err != nil || ok != false {
			t.Errorf("repeat drain of %s = %v, %v; want false, no fault", target, ok, err)
		}
	}
	if got := mm.Get(drainMetric); got != 1 {
		t.Errorf("drains counted %d times, want 1", got)
	}
	raw, err := call(s, rpcproto.MethodGetTask, id)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := rpcproto.DecodeAssignment(raw); a.Status != rpcproto.StatusShutdown {
		t.Errorf("drained node polled %q, want shutdown", a.Status)
	}
	if s.NumNodes() != 0 {
		t.Error("drained node still registered after its shutdown answer")
	}
}

func TestSigninSlotsAndIDs(t *testing.T) {
	s, _, _ := newServer(t, clock.Real{}, time.Millisecond)
	signin(t, s, rpcproto.SigninArgs{Slots: 0})
	signin(t, s, rpcproto.SigninArgs{Kind: rpcproto.NodeKindSubmaster, Slots: -3})
	s.SetParent("sm-4", 750*time.Millisecond)
	raw, err := call(s, rpcproto.MethodSignin, rpcproto.SigninArgs{Slots: 5}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := rpcproto.DecodeSigninReply(raw)
	if reply.SlaveID != "sm-4.slave-3" || reply.HeartbeatMillis != 750 {
		t.Errorf("nested signin = %+v, want sm-4.slave-3 at 750ms", reply)
	}
	want := []rpcproto.NodeInfo{
		{ID: "slave-1", Kind: rpcproto.NodeKindSlave, Slots: 1},
		{ID: "sm-2", Kind: rpcproto.NodeKindSubmaster, Slots: 1},
		{ID: "sm-4.slave-3", Kind: rpcproto.NodeKindSlave, Slots: 5},
	}
	got := s.Nodes()
	if len(got) != len(want) {
		t.Fatalf("nodes = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s.Slots() != 7 {
		t.Errorf("Slots = %d, want 7", s.Slots())
	}
}

func TestShutdownAndCrashAnswers(t *testing.T) {
	s, _, _ := newServer(t, clock.Real{}, time.Millisecond)
	a := signin(t, s, rpcproto.SigninArgs{})
	s.Crash()
	if _, err := call(s, rpcproto.MethodGetTask, a); err == nil || isUnknown(err) {
		t.Errorf("crashed server's poll answered %v, want a plain error", err)
	}
	if _, err := call(s, rpcproto.MethodSignin); err == nil {
		t.Error("closed server accepted a signin")
	}

	s2, _, _ := newServer(t, clock.Real{}, time.Millisecond)
	b := signin(t, s2, rpcproto.SigninArgs{})
	s2.Close()
	raw, err := call(s2, rpcproto.MethodGetTask, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rpcproto.DecodeAssignment(raw); got.Status != rpcproto.StatusShutdown {
		t.Errorf("closed server's poll = %q, want shutdown", got.Status)
	}
}

func TestReportsFromUnknownNodeApplied(t *testing.T) {
	// A completion from a node this server never met (it outlived a
	// master restart) still reaches the scheduler before the fault tells
	// the node to re-sign-in.
	s, sc, _ := newServer(t, clock.Real{}, time.Millisecond)
	var done []string
	s.cfg.OnDone = func(node string, job int64, _ *core.TaskSpec, _ *core.TaskResult) { done = append(done, node) }
	id := signin(t, s, rpcproto.SigninArgs{})
	if _, err := sc.Submit(testSpec(0), func(*core.TaskResult, error) {}); err != nil {
		t.Fatal(err)
	}
	raw, err := call(s, rpcproto.MethodGetTask, id)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := rpcproto.DecodeAssignment(raw)
	s.mu.Lock()
	s.forgetLocked(id)
	s.mu.Unlock()
	outs := rpcproto.EncodeDescriptors([]bucket.Descriptor{{Name: "t0", URL: "mem:done"}})
	if _, err := call(s, rpcproto.MethodTaskDone, id, int64(0), a.TaskID, outs); !isUnknown(err) {
		t.Errorf("task_done from a forgotten node = %v, want the unknown-node fault", err)
	}
	if len(done) != 1 || sc.Running() != 0 {
		t.Errorf("completion not applied: OnDone %v, running %d", done, sc.Running())
	}
}

// argCases are malformed calls every tier must reject, including the
// job- and task-id checks of both report methods.
var argCases = []struct {
	method string
	args   []any
}{
	{rpcproto.MethodPing, nil},
	{rpcproto.MethodPing, []any{int64(7)}},
	{rpcproto.MethodTaskDone, []any{"slave-1"}},
	{rpcproto.MethodTaskDone, []any{"slave-1", "not-an-int", []any{}}},
	{rpcproto.MethodTaskDone, []any{"slave-1", "not-an-int", int64(1), []any{}}},
	{rpcproto.MethodTaskFailed, []any{"slave-1", int64(1)}},
	{rpcproto.MethodTaskFailed, []any{"slave-1", int64(1), "not-an-int", "msg"}},
	{rpcproto.MethodGetTasks, []any{"slave-1"}},
	{rpcproto.MethodReportBatch, []any{"slave-1", "not-reports"}},
	{rpcproto.MethodDrain, nil},
}

func TestHandlerArgValidation(t *testing.T) {
	s, _, _ := newServer(t, clock.Real{}, time.Millisecond)
	signin(t, s, rpcproto.SigninArgs{})
	for _, tc := range argCases {
		if _, err := call(s, tc.method, tc.args...); err == nil {
			t.Errorf("%s(%v) accepted", tc.method, tc.args)
		}
	}
}

func testSpec(i int) *core.TaskSpec {
	return &core.TaskSpec{
		Op:        &core.Operation{Kind: core.OpMap, FuncName: "m", Splits: 1, Dataset: 1},
		TaskIndex: i,
		InputURLs: []string{"mem:0/none"},
	}
}

// seedCalls are well-formed calls of all nine methods plus a few
// near misses, as a node or operator would send them.
func seedCalls(tb testing.TB) [][]byte {
	reports := rpcproto.EncodeReports([]rpcproto.Report{
		{Done: true, TaskID: 1, Outputs: []bucket.Descriptor{{Name: "t0", URL: "mem:x"}}},
		{TaskID: 2, Err: "boom"},
	})
	outs := rpcproto.EncodeDescriptors([]bucket.Descriptor{{Name: "t0", URL: "mem:x", Records: 3}})
	calls := []struct {
		method string
		args   []any
	}{
		{rpcproto.MethodSignin, nil},
		{rpcproto.MethodSignin, []any{rpcproto.SigninArgs{Kind: rpcproto.NodeKindSubmaster, Addr: "h:1", Slots: 4}.Encode()}},
		{rpcproto.MethodPing, []any{"slave-1"}},
		{rpcproto.MethodGetTask, []any{"slave-1"}},
		{rpcproto.MethodGetTasks, []any{"slave-1", int64(3)}},
		{rpcproto.MethodTaskDone, []any{"slave-1", int64(0), int64(1), outs, rpcproto.EncodeTiming(obs.Timing{WallNS: 5})}},
		{rpcproto.MethodTaskFailed, []any{"slave-1", int64(0), int64(1), "boom"}},
		{rpcproto.MethodReportBatch, []any{"slave-1", reports}},
		{rpcproto.MethodDrain, []any{"slave-1"}},
		{rpcproto.MethodListNodes, nil},
		{rpcproto.MethodTaskDone, []any{"slave-9", int64(0), int64(1), outs}},
		{"no_such_method", []any{"slave-1"}},
	}
	var out [][]byte
	for _, c := range calls {
		data, err := xmlrpc.MarshalCall(c.method, c.args)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzServeCall sends arbitrary call bodies through the node protocol's
// XML-RPC endpoint, over a fresh scheduler holding one task and one
// signed-in node. Whatever arrives, the server must not panic and must
// answer with a well-formed response or fault.
func FuzzServeCall(f *testing.F) {
	for _, c := range seedCalls(f) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, sc, _ := newServer(t, clock.Real{}, time.Millisecond)
		signin(t, s, rpcproto.SigninArgs{})
		if _, err := sc.Submit(testSpec(0), func(*core.TaskResult, error) {}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", xmlrpc.RPCPath, bytes.NewReader(body)))
		var fault *xmlrpc.Fault
		if _, err := xmlrpc.UnmarshalResponse(rec.Body.Bytes()); err != nil && !errors.As(err, &fault) {
			t.Fatalf("malformed answer %q: %v", rec.Body.Bytes(), err)
		}
	})
}
