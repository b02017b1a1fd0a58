package xmlrpc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripValue(t *testing.T, v any) any {
	t.Helper()
	data, err := MarshalResponse(v)
	if err != nil {
		t.Fatalf("marshal %v: %v", v, err)
	}
	got, err := UnmarshalResponse(data)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	return got
}

func TestScalarRoundTrips(t *testing.T) {
	cases := []any{
		int64(0), int64(-42), int64(1 << 40),
		true, false,
		"hello", "", "with <xml> & entities", "unicode: π≈3.14159",
		3.14159, -1e300, 0.0,
	}
	for _, v := range cases {
		got := roundTripValue(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

func TestIntNormalization(t *testing.T) {
	// Plain int marshals as <int> and comes back int64.
	got := roundTripValue(t, 7)
	if got != int64(7) {
		t.Errorf("got %#v, want int64(7)", got)
	}
}

func TestBase64RoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		got := roundTripValue(t, b)
		gb, ok := got.([]byte)
		if !ok {
			return false
		}
		if len(gb) == 0 && len(b) == 0 {
			return true
		}
		return reflect.DeepEqual(gb, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !isValidXMLText(s) {
			return true // XML cannot carry arbitrary control bytes
		}
		return roundTripValue(t, s) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// isValidXMLText reports whether s survives XML 1.0 encoding.
func isValidXMLText(s string) bool {
	for _, r := range s {
		if r == 0x09 || r == 0x0A || r == 0x0D {
			continue
		}
		if r < 0x20 || r == 0xFFFD || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return true
}

func TestArrayRoundTrip(t *testing.T) {
	v := []any{int64(1), "two", 3.0, true, []any{int64(4)}}
	got := roundTripValue(t, v)
	if !reflect.DeepEqual(got, v) {
		t.Errorf("got %#v, want %#v", got, v)
	}
}

func TestEmptyArray(t *testing.T) {
	got := roundTripValue(t, []any{})
	if arr, ok := got.([]any); !ok || len(arr) != 0 {
		t.Errorf("got %#v", got)
	}
}

func TestStringSliceMarshalsAsArray(t *testing.T) {
	got := roundTripValue(t, []string{"a", "b"})
	want := []any{"a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v, want %#v", got, want)
	}
}

func TestStructRoundTrip(t *testing.T) {
	v := map[string]any{
		"id":     int64(7),
		"name":   "task",
		"urls":   []any{"http://a", "http://b"},
		"nested": map[string]any{"x": 1.5},
		"flag":   true,
	}
	got := roundTripValue(t, v)
	if !reflect.DeepEqual(got, v) {
		t.Errorf("got %#v, want %#v", got, v)
	}
}

func TestNilMarshalsAsEmptyString(t *testing.T) {
	got := roundTripValue(t, nil)
	if got != "" {
		t.Errorf("got %#v, want empty string", got)
	}
}

func TestUnsupportedType(t *testing.T) {
	if _, err := MarshalResponse(struct{}{}); err == nil {
		t.Error("expected error for unsupported type")
	}
}

func TestCallRoundTrip(t *testing.T) {
	data, err := MarshalCall("task_done", []any{int64(3), "ok", []any{"u1", "u2"}})
	if err != nil {
		t.Fatal(err)
	}
	method, args, err := UnmarshalCall(data)
	if err != nil {
		t.Fatal(err)
	}
	if method != "task_done" {
		t.Errorf("method = %q", method)
	}
	want := []any{int64(3), "ok", []any{"u1", "u2"}}
	if !reflect.DeepEqual(args, want) {
		t.Errorf("args = %#v, want %#v", args, want)
	}
}

func TestCallNoArgs(t *testing.T) {
	data, err := MarshalCall("ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	method, args, err := UnmarshalCall(data)
	if err != nil || method != "ping" || len(args) != 0 {
		t.Errorf("method=%q args=%v err=%v", method, args, err)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	data, err := MarshalFault(&Fault{Code: 42, Message: "boom <&>"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = UnmarshalResponse(data)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *Fault", err)
	}
	if f.Code != 42 || f.Message != "boom <&>" {
		t.Errorf("fault = %+v", f)
	}
}

func TestPythonInteropFormats(t *testing.T) {
	// Accept documents in the exact shapes CPython's xmlrpc.client
	// produces: i4 tags, untyped <value> strings, whitespace.
	doc := `<?xml version="1.0"?>
<methodResponse>
  <params>
    <param>
      <value><array><data>
        <value><i4>12</i4></value>
        <value>bare string</value>
        <value><boolean>1</boolean></value>
        <value><double>2.5</double></value>
      </data></array></value>
    </param>
  </params>
</methodResponse>`
	got, err := UnmarshalResponse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := []any{int64(12), "bare string", true, 2.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v, want %#v", got, want)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	srv := NewServer()
	srv.Register("echo", func(args []any) (any, error) {
		return args, nil
	})
	srv.Register("add", func(args []any) (any, error) {
		a, ok1 := args[0].(int64)
		b, ok2 := args[1].(int64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("add wants two ints")
		}
		return a + b, nil
	})
	srv.Register("fail", func(args []any) (any, error) {
		return nil, &Fault{Code: 99, Message: "deliberate"}
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	sum, err := c.Call("add", int64(2), int64(40))
	if err != nil {
		t.Fatal(err)
	}
	if sum != int64(42) {
		t.Errorf("add = %v", sum)
	}

	echoed, err := c.Call("echo", "x", int64(1), true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(echoed, []any{"x", int64(1), true}) {
		t.Errorf("echo = %#v", echoed)
	}

	_, err = c.Call("fail")
	var f *Fault
	if !errors.As(err, &f) || f.Code != 99 {
		t.Errorf("fail call: %v", err)
	}

	_, err = c.Call("nosuchmethod")
	if !errors.As(err, &f) || f.Code != -32601 {
		t.Errorf("missing method: %v", err)
	}
}

func TestServerErrorBecomesFault(t *testing.T) {
	srv := NewServer()
	srv.Register("oops", func(args []any) (any, error) {
		return nil, errors.New("plain error")
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, err := NewClient(ts.URL).Call("oops")
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.Message, "plain error") {
		t.Errorf("got %v", err)
	}
}

func TestServerRejectsGET(t *testing.T) {
	ts := httptest.NewServer(NewServer())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestServerMalformedBody(t *testing.T) {
	ts := httptest.NewServer(NewServer())
	defer ts.Close()
	resp, err := http.Post(ts.URL, "text/xml", strings.NewReader("this is not xml"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Must come back as a parse fault, not a transport error.
	c := NewClient(ts.URL)
	_, cerr := c.Call("x")
	_ = cerr // different doc; just ensure no panic on the malformed one
	if resp.StatusCode != http.StatusOK {
		t.Errorf("malformed body status = %d (should still be a fault document)", resp.StatusCode)
	}
}

func TestDoubleSpecials(t *testing.T) {
	for _, v := range []float64{math.MaxFloat64, math.SmallestNonzeroFloat64} {
		got := roundTripValue(t, v)
		if got != v {
			t.Errorf("double %v -> %v", v, got)
		}
	}
}

func BenchmarkCallRoundTrip(b *testing.B) {
	srv := NewServer()
	srv.Register("ping", func(args []any) (any, error) { return true, nil })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("ping"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNestedValuePropertyRoundTrip builds random nested structures of
// the supported types and checks exact round trips through the wire
// format — the closest thing to a fuzzer the control plane gets.
func TestNestedValuePropertyRoundTrip(t *testing.T) {
	var build func(r *rand.Rand, depth int) any
	build = func(r *rand.Rand, depth int) any {
		choice := r.Intn(6)
		if depth <= 0 {
			choice = r.Intn(4)
		}
		switch choice {
		case 0:
			return int64(r.Uint64())
		case 1:
			return r.Intn(2) == 0
		case 2:
			return float64(r.Intn(1<<20)) / 64 // dyadic: exact in text
		case 3:
			return fmt.Sprintf("s-%d", r.Intn(1000))
		case 4:
			n := r.Intn(4)
			arr := make([]any, n)
			for i := range arr {
				arr[i] = build(r, depth-1)
			}
			return arr
		default:
			n := r.Intn(4)
			st := map[string]any{}
			for i := 0; i < n; i++ {
				st[fmt.Sprintf("k%d", i)] = build(r, depth-1)
			}
			return st
		}
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		v := build(r, 4)
		got := roundTripValue(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("trial %d: %#v -> %#v", trial, v, got)
		}
	}
}
