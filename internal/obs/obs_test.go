package obs

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestNilSafety(t *testing.T) {
	// Every observability hook must be callable through nil receivers so
	// un-instrumented code paths need no guards.
	var c *Counter
	c.Add(3)
	if got := c.Value(); got != 0 {
		t.Errorf("nil Counter.Value() = %d, want 0", got)
	}
	var m *Metrics
	m.Add("x", 1)
	m.SetGauge("g", func() int64 { return 7 })
	if got := m.Get("x"); got != 0 {
		t.Errorf("nil Metrics.Get = %d, want 0", got)
	}
	if m.Counter("x") != nil {
		t.Error("nil Metrics.Counter should be nil")
	}
	var tr *Tracer
	if id := tr.TaskSubmitted(0, 0, "map", "f"); id != 0 {
		t.Errorf("nil Tracer.TaskSubmitted = %d, want 0", id)
	}
	tr.TaskStarted(1, 1, "w")
	tr.TaskFinished(1, 1, "w", Timing{}, "")
	if tr.NumSpans() != 0 {
		t.Error("nil Tracer should have no spans")
	}
	var rt *Runtime
	if rt.M() != nil || rt.T() != nil {
		t.Error("nil Runtime accessors should return nil components")
	}
	if rt.Clk() == nil {
		t.Error("nil Runtime.Clk should fall back to a real clock")
	}
	rt.M().Add("y", 1)
	rt.T().TaskStarted(5, 1, "w")
}

func TestMetricsCountersAndGauges(t *testing.T) {
	m := NewMetrics()
	m.Add("mrs_tasks_executed_total", 2)
	m.Counter("mrs_tasks_executed_total").Add(3)
	if got := m.Get("mrs_tasks_executed_total"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	depth := int64(4)
	m.SetGauge("mrs_queue_depth", func() int64 { return depth })
	snap := m.Snapshot()
	if snap["mrs_tasks_executed_total"] != 5 || snap["mrs_queue_depth"] != 4 {
		t.Errorf("snapshot = %v", snap)
	}
	depth = 9
	if got := m.Get("mrs_queue_depth"); got != 9 {
		t.Errorf("gauge = %d, want live value 9", got)
	}
}

func TestWriteProm(t *testing.T) {
	m := NewMetrics()
	m.Add("mrs_b_total", 2)
	m.Add("mrs_a_total", 1)
	m.SetGauge("mrs_gauge", func() int64 { return 3 })
	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia := strings.Index(out, "mrs_a_total 1")
	ib := strings.Index(out, "mrs_b_total 2")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("counters missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE mrs_a_total counter") {
		t.Errorf("missing counter TYPE line:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE mrs_gauge gauge") ||
		!strings.Contains(out, "mrs_gauge 3") {
		t.Errorf("missing gauge:\n%s", out)
	}
}

func TestLevelSumsOwnersAsGauge(t *testing.T) {
	m := NewMetrics()
	a, b := m.Level("mrs_held"), m.Level("mrs_held")
	a.Add(10)
	b.Add(5)
	a.Add(-3)
	if got := m.Get("mrs_held"); got != 12 {
		t.Errorf("level = %d, want 12 (sum of both owners)", got)
	}
	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "# TYPE mrs_held gauge") || !strings.Contains(out, "mrs_held 12") {
		t.Errorf("level not exposed as a gauge:\n%s", out)
	}
	var nilM *Metrics
	nilM.Level("x").Add(1) // no-op
}

func TestTracerLifecycle(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tr := NewTracer(clk)

	id := tr.TaskSubmitted(2, 7, "reduce", "sum")
	if id == 0 {
		t.Fatal("TaskSubmitted returned 0")
	}
	clk.Advance(time.Millisecond)
	tr.TaskStarted(id, 1, "slave-1")
	clk.Advance(2 * time.Millisecond)
	tr.TaskFinished(id, 1, "slave-1", Timing{WallNS: int64(2 * time.Millisecond), InBytes: 10}, "")

	// Unknown ids and the zero id are ignored, and finishing the same
	// attempt twice records only one span (redelivered reports).
	tr.TaskStarted(0, 1, "x")
	tr.TaskStarted(9999, 1, "x")
	tr.TaskFinished(id, 1, "slave-1", Timing{}, "")
	tr.TaskFinished(9999, 1, "x", Timing{}, "")

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Dataset != 2 || s.Task != 7 || s.Kind != "reduce" || s.Func != "sum" {
		t.Errorf("span identity = %+v", s)
	}
	if s.Attempt != 1 || s.Worker != "slave-1" {
		t.Errorf("span attempt/worker = %d/%q", s.Attempt, s.Worker)
	}
	if got := s.End.Sub(s.Start); got != 2*time.Millisecond {
		t.Errorf("span duration = %v, want 2ms", got)
	}
	if s.Timing.InBytes != 10 {
		t.Errorf("span timing = %+v", s.Timing)
	}
}

func TestTracerRetriesKeepDistinctAttempts(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tr := NewTracer(clk)
	id := tr.TaskSubmitted(0, 3, "map", "f")
	tr.TaskStarted(id, 1, "slave-0")
	tr.TaskFinished(id, 1, "slave-0", Timing{}, "slave died; requeued")
	tr.TaskStarted(id, 2, "slave-1")
	tr.TaskFinished(id, 2, "slave-1", Timing{}, "")
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Attempt != 1 || spans[0].Err == "" {
		t.Errorf("first attempt = %+v", spans[0])
	}
	if spans[1].Attempt != 2 || spans[1].Err != "" {
		t.Errorf("second attempt = %+v", spans[1])
	}
}

// buildTrace records the same task set in the given submission order;
// the exported file must not depend on that order.
func buildTrace(order []int) []byte {
	clk := clock.NewFake(time.Unix(1000, 0))
	tr := NewTracer(clk)
	ids := map[int]int64{}
	for _, task := range order {
		ids[task] = tr.TaskSubmitted(1, task, "map", "f")
	}
	for _, task := range order {
		tr.TaskStarted(ids[task], 1, "worker-0")
		tr.TaskFinished(ids[task], 1, "worker-0", Timing{WallNS: 5}, "")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestChromeTraceDeterministic(t *testing.T) {
	a := buildTrace([]int{0, 1, 2, 3})
	b := buildTrace([]int{3, 1, 0, 2})
	if !bytes.Equal(a, b) {
		t.Errorf("trace export depends on submission order:\n%s\n---\n%s", a, b)
	}
	st, err := ValidateChromeTrace(a)
	if err != nil {
		t.Fatalf("invalid trace: %v\n%s", err, a)
	}
	if st.Spans != 4 || st.Workers != 1 || st.Datasets != 1 || st.MaxAttempt != 1 || st.Errors != 0 {
		t.Errorf("trace stats = %+v", st)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	bad := [][]byte{
		[]byte(`not json`),
		[]byte(`{}`),
		[]byte(`{"traceEvents": "nope"}`),
		[]byte(`{"traceEvents": [{"ph":"X"}]}`),
		[]byte(`{"traceEvents":[{"name":"t","ph":"X","pid":1,"tid":1,"ts":-5,"dur":0,"args":{"dataset":0,"task":0,"attempt":1}}]}`),
	}
	for i, b := range bad {
		if _, err := ValidateChromeTrace(b); err == nil {
			t.Errorf("case %d: expected error for %s", i, b)
		}
	}
}

func TestDebugServer(t *testing.T) {
	rt := New(nil)
	rt.M().Add("mrs_tasks_executed_total", 11)
	srv, err := ServeDebug("127.0.0.1:0", rt, func() string { return "status-marker" })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/debug/status"); !strings.Contains(out, "status-marker") ||
		!strings.Contains(out, "mrs_tasks_executed_total") {
		t.Errorf("/debug/status = %q", out)
	}
	if out := get("/debug/metrics"); !strings.Contains(out, "mrs_tasks_executed_total 11") {
		t.Errorf("/debug/metrics = %q", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}
