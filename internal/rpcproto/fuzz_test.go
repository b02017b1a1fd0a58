package rpcproto

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xmlrpc"
)

// seedAssignments are get_tasks replies as a master builds them: an
// idle poll carrying broadcasts, a shutdown, and task batches with and
// without the optional spec fields.
func seedAssignments() [][]Assignment {
	op := &core.Operation{Kind: core.OpMap, FuncName: "split", CombineName: "sum", Splits: 4, Partition: "hash", Dataset: 3}
	pinned := &core.Operation{Kind: core.OpReduce, FuncName: "sum", Splits: 2, Dataset: 5, Params: []byte{1, 2, 3},
		Narrow: true, Resident: true, Codec: "lz", BlockEncoding: "columnar"}
	return [][]Assignment{
		{{Status: StatusIdle, Deletes: []string{"ds1/t0/s0", "ds1/t1/s0"}, GCJobs: []int64{2, 3}}},
		{{Status: StatusShutdown}},
		{{Status: StatusTask, TaskID: 7, Attempt: 1, Spec: &core.TaskSpec{Op: op, TaskIndex: 2,
			InputURLs: []string{"http://127.0.0.1:4000/data/ds2/t2/s0"}, InputFormat: "kv"}}},
		{
			{Status: StatusTask, TaskID: 8, Attempt: 2, Deletes: []string{"x"}, Spec: &core.TaskSpec{Job: 4, Op: pinned, TaskIndex: 1,
				InputDataset: 3, InputURLs: []string{"file:///tmp/a", "file:///tmp/b"}, TraceID: 99}},
			{Status: StatusTask, TaskID: 9, Attempt: 1, Spec: &core.TaskSpec{Op: op, TaskIndex: 0, InputURLs: []string{"mem:0/none"}}},
		},
	}
}

func encodeReply(tb testing.TB, as []Assignment) []byte {
	tb.Helper()
	v, err := EncodeAssignments(as)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := xmlrpc.MarshalResponse(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzDecodeAssignments feeds arbitrary get_tasks reply bodies to the
// decoder every slave and sub-master runs. It must never panic, and
// whatever it accepts must re-encode, and after that one normalizing
// round trip decode to a fixed point.
func FuzzDecodeAssignments(f *testing.F) {
	for _, as := range seedAssignments() {
		f.Add(encodeReply(f, as))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		v, err := xmlrpc.UnmarshalResponse(body)
		if err != nil {
			return
		}
		as, err := DecodeAssignments(v)
		if err != nil {
			return
		}
		trip := func(as []Assignment) []Assignment {
			got, err := DecodeAssignments(wireTrip(t, mustEncode(t, as)))
			if err != nil {
				t.Fatalf("re-encoded reply does not decode: %v", err)
			}
			return got
		}
		once := trip(as)
		if twice := trip(once); !reflect.DeepEqual(once, twice) {
			t.Fatalf("round trip not stable:\n%+v\n%+v", once, twice)
		}
	})
}

func mustEncode(t *testing.T, as []Assignment) any {
	t.Helper()
	v, err := EncodeAssignments(as)
	if err != nil {
		t.Fatalf("decoded reply does not re-encode: %v", err)
	}
	return v
}

func TestSeedAssignmentsRoundTrip(t *testing.T) {
	for _, as := range seedAssignments() {
		v, err := xmlrpc.UnmarshalResponse(encodeReply(t, as))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeAssignments(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, as) {
			t.Errorf("decoded %+v, want %+v", got, as)
		}
	}
}
