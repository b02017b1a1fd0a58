package xmlrpc_test

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

func descriptors(n int) []bucket.Descriptor {
	out := make([]bucket.Descriptor, n)
	for i := range out {
		name := fmt.Sprintf("j3/ds17/t5/s%d", i)
		out[i] = bucket.Descriptor{
			Name:    name,
			URL:     "http://127.0.0.1:40517/data/" + strings.ReplaceAll(name, "/", "%2F") + ".mrb",
			Records: int64(20 + i),
			Bytes:   int64(1400 + 37*i),
		}
	}
	return out
}

func taskTiming() obs.Timing {
	return obs.Timing{WallNS: 1843211, ShuffleNS: 402113, InBytes: 5120, InRecords: 20,
		OutBytes: 5432, OutRecords: 20, ResidentHits: 1}
}

// taskDoneCall is a slave's task_done report of a task with four
// output buckets, as the slave encodes it.
func taskDoneCall(tb testing.TB) []byte {
	doc, err := xmlrpc.MarshalCall(rpcproto.MethodTaskDone, []any{
		"slave-2", int64(3), int64(1187),
		rpcproto.EncodeDescriptors(descriptors(4)), rpcproto.EncodeTiming(taskTiming()),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// reduceAssignment is the master's get_task reply handing out a narrow
// reduce task over four input buckets.
func reduceAssignment() rpcproto.Assignment {
	var urls []string
	for _, d := range descriptors(4) {
		urls = append(urls, d.URL)
	}
	return rpcproto.Assignment{
		Status:  rpcproto.StatusTask,
		TaskID:  1188,
		Attempt: 1,
		Deletes: []string{"j3/ds15/t0/s0", "j3/ds15/t1/s0"},
		Spec: &core.TaskSpec{
			Op: &core.Operation{
				Dataset: 18, Input: 17, Kind: core.OpReduce, FuncName: "pso_best",
				Splits: 1, Partition: "hash", Params: []byte("dims=30 swarms=4"),
				Narrow: true, Resident: true,
			},
			Job: 3, TaskIndex: 2, InputDataset: 17, InputURLs: urls, TraceID: 99,
		},
	}
}

func assignmentResponse(tb testing.TB) []byte {
	enc, err := reduceAssignment().Encode()
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := xmlrpc.MarshalResponse(enc)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// seedCalls are real control-plane requests plus xmlrpclib-shaped ones.
func seedCalls(tb testing.TB) [][]byte {
	must := func(doc []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		return doc
	}
	reports := rpcproto.EncodeReports([]rpcproto.Report{
		{Done: true, Job: 3, TaskID: 1187, Outputs: descriptors(2), Timing: taskTiming()},
		{Job: 3, TaskID: 1190, Err: "map pso_move: <bad> & \"params\""},
	})
	signin := rpcproto.SigninArgs{Kind: rpcproto.NodeKindSlave, Addr: "127.0.0.1:40517", Slots: 2}
	return [][]byte{
		taskDoneCall(tb),
		must(xmlrpc.MarshalCall(rpcproto.MethodGetTask, []any{"slave-2"})),
		must(xmlrpc.MarshalCall(rpcproto.MethodReportBatch, []any{"sm-1", reports})),
		must(xmlrpc.MarshalCall(rpcproto.MethodSignin, []any{signin.Encode()})),
		must(xmlrpc.MarshalCall(rpcproto.MethodPing, nil)),
		[]byte(`<?xml version='1.0'?>
<methodCall>
<methodName>task_done</methodName>
<params>
<param>
<value><string>slave-1</string></value>
</param>
<param>
<value><i4>3</i4></value>
</param>
<param>
<value><nil/></value></param>
<param>
<value>bare text</value>
</param>
<param>
<value><struct>
<member>
<name>outputs</name>
<value><array><data>
<value><double>1.5</double></value>
<value><boolean>0</boolean></value>
<value><base64>
aGVsbG8=
</base64></value>
</data></array></value>
</member>
</struct></value>
</param>
</params>
</methodCall>
`),
	}
}

// seedResponses are real control-plane replies and faults plus
// xmlrpclib-shaped ones.
func seedResponses(tb testing.TB) [][]byte {
	must := func(doc []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		return doc
	}
	batch, err := rpcproto.EncodeAssignments([]rpcproto.Assignment{
		{Status: rpcproto.StatusIdle, GCJobs: []int64{1, 2}}, reduceAssignment(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	reply := rpcproto.SigninReply{SlaveID: "slave-2", HeartbeatMillis: 500}
	return [][]byte{
		assignmentResponse(tb),
		must(xmlrpc.MarshalResponse(batch)),
		must(xmlrpc.MarshalResponse(reply.Encode())),
		must(xmlrpc.MarshalResponse(true)),
		must(xmlrpc.MarshalFault(&xmlrpc.Fault{Code: rpcproto.FaultUnknownSlave, Message: `unknown slave "slave-2"`})),
		[]byte(`<?xml version='1.0'?>
<methodResponse>
<params>
<param>
<value><array><data>
<value><i4>12</i4></value>
<value>bare string</value>
<value><nil/></value>
<value><double>-2.5e-3</double></value>
</data></array></value>
</param>
</params>
</methodResponse>
`),
		[]byte(`<?xml version='1.0'?>
<methodResponse>
<fault>
<value><struct>
<member>
<name>faultCode</name>
<value><int>1</int></value>
</member>
<member>
<name>faultString</name>
<value><string>&lt;class 'Exception'&gt;:boom</string></value>
</member>
</struct></value>
</fault>
</methodResponse>
`),
	}
}

// same is reflect.DeepEqual except that floats compare by bits, so a
// decoded NaN equals itself.
func same(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if !same(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !same(v, w) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// checkCall holds the decoder to the reference on one document:
// whatever the decoder accepts, the reference decodes to the same
// call, and whatever the reference accepts, re-encoded, the decoder
// decodes as the reference does.
func checkCall(t *testing.T, data []byte) {
	method, args, err := xmlrpc.UnmarshalCall(data)
	refMethod, refArgs, refErr := refUnmarshalCall(data)
	if err == nil && (refErr != nil || method != refMethod || !same(args, refArgs)) {
		t.Fatalf("decoded %q %#v; reference %q %#v, %v", method, args, refMethod, refArgs, refErr)
	}
	if refErr != nil {
		return
	}
	doc, err := xmlrpc.MarshalCall(refMethod, refArgs)
	if err != nil {
		t.Fatalf("re-encoding the reference's call: %v", err)
	}
	method, args, err = xmlrpc.UnmarshalCall(doc)
	refMethod, refArgs, refErr = refUnmarshalCall(doc)
	if errors.Is(err, xmlrpc.ErrTooDeep) {
		return
	}
	if err != nil || refErr != nil || method != refMethod || !same(args, refArgs) {
		t.Fatalf("encoder output %s: decoded %q %#v, %v; reference %q %#v, %v",
			doc, method, args, err, refMethod, refArgs, refErr)
	}
}

// checkResponse is checkCall for responses, faults included.
func checkResponse(t *testing.T, data []byte) {
	check := func(data []byte, mustDecode bool) (any, error) {
		v, err := xmlrpc.UnmarshalResponse(data)
		refV, refErr := refUnmarshalResponse(data)
		var f, refF *xmlrpc.Fault
		switch {
		case err == nil:
			if refErr != nil || !same(v, refV) {
				t.Fatalf("%s: decoded %#v; reference %#v, %v", data, v, refV, refErr)
			}
		case errors.As(err, &f):
			if !errors.As(refErr, &refF) || *f != *refF {
				t.Fatalf("%s: decoded fault %v; reference %v", data, err, refErr)
			}
		case mustDecode && !errors.Is(err, xmlrpc.ErrTooDeep):
			t.Fatalf("encoder output %s: %v", data, err)
		}
		return refV, refErr
	}
	refV, refErr := check(data, false)
	var refF *xmlrpc.Fault
	var doc []byte
	var err error
	switch {
	case refErr == nil:
		doc, err = xmlrpc.MarshalResponse(refV)
	case errors.As(refErr, &refF):
		doc, err = xmlrpc.MarshalFault(refF)
	default:
		return
	}
	if err != nil {
		t.Fatalf("re-encoding the reference's response: %v", err)
	}
	check(doc, true)
}

func FuzzUnmarshalCall(f *testing.F) {
	for _, doc := range seedCalls(f) {
		f.Add(doc)
	}
	f.Fuzz(checkCall)
}

func FuzzUnmarshalResponse(f *testing.F) {
	for _, doc := range seedResponses(f) {
		f.Add(doc)
	}
	f.Fuzz(checkResponse)
}

func TestSeedsDecode(t *testing.T) {
	for _, doc := range seedCalls(t) {
		if _, _, err := xmlrpc.UnmarshalCall(doc); err != nil {
			t.Errorf("%s: %v", doc, err)
		}
	}
	for _, doc := range seedResponses(t) {
		var f *xmlrpc.Fault
		if _, err := xmlrpc.UnmarshalResponse(doc); err != nil && !errors.As(err, &f) {
			t.Errorf("%s: %v", doc, err)
		}
	}
}

func response(value string) []byte {
	return []byte("<methodResponse><params><param><value>" + value +
		"</value></param></params></methodResponse>")
}

// TestDecodesXMLSyntax covers the XML the decoder reads beyond what
// the encoder writes.
func TestDecodesXMLSyntax(t *testing.T) {
	cases := []struct {
		doc  []byte
		want any
	}{
		{response(`<string>a&lt;&#65;&#x42;&amp;<![CDATA[<c>&amp;]]><!-- - -->d</string>`), "a<AB&<c>&amp;d"},
		{response("<string>1\r\n2\r3<![CDATA[\r\n]]>&#13;</string>"), "1\n2\n3\n\r"},
		{response("x<!---->y"), "xy"},
		{response("<string/>"), ""},
		{response(""), ""},
		{response("<nil/>"), nil},
		{response(" <i8> -7 </i8>\n"), int64(-7)},
		{response("<base64> aGVs\n\tbG8= </base64>"), []byte("hello")},
		{response("<base64></base64>"), []byte{}},
		{response("<array><data/></array>"), []any{}},
		{response("<struct/>"), map[string]any{}},
		{response("<struct><member><name>k</name><value/></member></struct>"), map[string]any{"k": ""}},
		{[]byte(`<?xml version="1.0" encoding="UTF-8" standalone="yes" ?><!-- c -->` + "\n" +
			`<methodResponse ><params><param><value><boolean>true</boolean></value></param></params></methodResponse >` + "\n"), true},
		{[]byte(`<?xml version='1.0' encoding='utf-8'?><methodResponse><params><param><value/></param></params></methodResponse>`), ""},
	}
	for _, c := range cases {
		got, err := xmlrpc.UnmarshalResponse(c.doc)
		if err != nil || !same(got, c.want) {
			t.Errorf("%q: got %#v, %v; want %#v", c.doc, got, err, c.want)
		}
		checkResponse(t, c.doc)
	}
}

func call(value string) []byte {
	return []byte("<methodCall><methodName>m</methodName><params><param><value>" + value +
		"</value></param></params></methodCall>")
}

// TestRejectsMalformedXML covers documents the decoder must refuse,
// several of which the encoding/xml reference accepted.
func TestRejectsMalformedXML(t *testing.T) {
	values := []string{
		"<string>x</int>",
		"<string>\xff</string>",
		"<string>\x01</string>",
		"<string>&#0;</string>",
		"<string>&#xD800;</string>",
		"<string>&#X41;</string>",
		"<string>&nbsp;</string>",
		"<string>&lt</string>",
		"<string><![CDATA[x</string>",
		"<string>\xef\xbf\xbe</string>", // U+FFFE
		"<!-- a -- b -->",
		"<!-- \x00 -->",
		"<string x='1'>a</string>",
		"<1string>a</1string>",
		"<x:string>a</x:string>",
		"<?pi x?>",
		"junk<int>1</int>",
		"<int>1</int>junk",
		"<int><string/></int>",
		"<array></array>",
		"<struct><member><value/><name>k</name></member></struct>",
		"<int>12x</int>",
		"<boolean>yes</boolean>",
		"<base64>!!</base64>",
		"<nil>x</nil>",
		"<params/>",
	}
	var responses, calls [][]byte
	for _, v := range values {
		responses = append(responses, response(v))
		calls = append(calls, call(v))
	}
	for _, prefix := range []string{
		"<?xml version=\"1.1\"?>",
		"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>",
		"<?xml?>",
		"<? ?>",
		"<?pi x?>",
		"<!DOCTYPE methodResponse>",
		" <?xml version=\"1.0\"?>",
		"x",
	} {
		responses = append(responses, []byte(prefix+string(response("x"))))
		calls = append(calls, []byte(prefix+string(call("x"))))
	}
	for _, suffix := range []string{"<methodResponse/>", "y", "<!--"} {
		responses = append(responses, append(response("x"), suffix...))
		calls = append(calls, append(call("x"), suffix...))
	}
	responses = append(responses,
		[]byte("<methodResponse><params><param><value><int>1</int></value>"), // unclosed at EOF
		[]byte("<methodResponse></methodResponse>"),
		[]byte("<methodResponse><params></params></methodResponse>"),
		[]byte("<methodResponse><fault><value><int>1</int></value></fault></methodResponse>"),
		[]byte("<methodResponse><params><param><value/><value/></param></params></methodResponse>"),
	)
	calls = append(calls,
		[]byte("<methodCall><methodName>m</methodName><params>"), // unclosed at EOF
		[]byte("<methodCall><params/></methodCall>"),
		[]byte("<methodCall><methodName>m<x/></methodName></methodCall>"),
		[]byte("<methodCall><methodName>m</methodName><value/></methodCall>"),
	)
	for _, doc := range responses {
		if v, err := xmlrpc.UnmarshalResponse(doc); err == nil {
			t.Errorf("%q: decoded %#v, want an error", doc, v)
		}
		checkResponse(t, doc)
	}
	for _, doc := range calls {
		if _, args, err := xmlrpc.UnmarshalCall(doc); err == nil {
			t.Errorf("%q: decoded %#v, want an error", doc, args)
		}
		checkCall(t, doc)
	}
}

// nested is a <value> holding depth levels of <value> in all.
func nested(depth int) string {
	return strings.Repeat("<value><array><data>", depth-1) + "<value><int>1</int></value>" +
		strings.Repeat("</data></array></value>", depth-1)
}

func nestedCall(depth int) []byte {
	return []byte("<methodCall><methodName>m</methodName><params><param>" + nested(depth) +
		"</param></params></methodCall>")
}

func nestedResponse(depth int) []byte {
	return []byte("<methodResponse><params><param>" + nested(depth) + "</param></params></methodResponse>")
}

func TestNestingBound(t *testing.T) {
	if _, _, err := xmlrpc.UnmarshalCall(nestedCall(xmlrpc.MaxDepth)); err != nil {
		t.Errorf("call at MaxDepth: %v", err)
	}
	if _, err := xmlrpc.UnmarshalResponse(nestedResponse(xmlrpc.MaxDepth)); err != nil {
		t.Errorf("response at MaxDepth: %v", err)
	}
	for _, depth := range []int{xmlrpc.MaxDepth + 1, 10000} {
		if _, _, err := xmlrpc.UnmarshalCall(nestedCall(depth)); !errors.Is(err, xmlrpc.ErrTooDeep) {
			t.Errorf("call at depth %d: %v, want ErrTooDeep", depth, err)
		}
		if _, err := xmlrpc.UnmarshalResponse(nestedResponse(depth)); !errors.Is(err, xmlrpc.ErrTooDeep) {
			t.Errorf("response at depth %d: %v, want ErrTooDeep", depth, err)
		}
	}
}

func TestServerFaultsOnDeepNesting(t *testing.T) {
	srv := xmlrpc.NewServer()
	srv.Register("m", func(args []any) (any, error) { return true, nil })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL, "text/xml", strings.NewReader(string(nestedCall(10000))))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, err = xmlrpc.UnmarshalResponse(body)
	var f *xmlrpc.Fault
	if resp.StatusCode != http.StatusOK || !errors.As(err, &f) || f.Code != -32700 {
		t.Fatalf("status %d, %v; want a -32700 fault document", resp.StatusCode, err)
	}
	// The server is still up.
	if v, err := xmlrpc.NewClient(ts.URL).Call("m"); err != nil || v != true {
		t.Fatalf("call after the deep request: %v, %v", v, err)
	}
}

var sink any

func BenchmarkUnmarshalTaskDone(b *testing.B) {
	doc := taskDoneCall(b)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, args, err := xmlrpc.UnmarshalCall(doc)
		if err != nil {
			b.Fatal(err)
		}
		sink = args
	}
}

func BenchmarkUnmarshalAssignment(b *testing.B) {
	doc := assignmentResponse(b)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := xmlrpc.UnmarshalResponse(doc)
		if err != nil {
			b.Fatal(err)
		}
		sink = v
	}
}
