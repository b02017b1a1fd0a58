package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/bucket"
	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/sched"
	"repro/internal/shuffle"
	"repro/internal/xmlrpc"
)

// probeBatches is how many timed batches each probe runs; a probe
// reports the median batch's time per operation.
const probeBatches = 7

// probeResult holds the per-operation costs of the module probes.
type probeResult struct {
	rpcCallUS, rpcAllocs       float64
	schedCycleUS               float64
	publishUS, publishDiskUS   float64
	fetchUS, removeUS          float64
	encodeNS, decodeNS, sortNS float64
}

// runProbes times each module's public functions on the workload's own
// records and task; file buckets go under dir.
func runProbes(pi *probeInput, dir string) (*probeResult, error) {
	var pr probeResult
	var err error
	if pr.rpcCallUS, pr.rpcAllocs, err = probeXMLRPC(pi); err != nil {
		return nil, fmt.Errorf("xmlrpc probe: %w", err)
	}
	if pr.schedCycleUS, err = probeSched(pi); err != nil {
		return nil, fmt.Errorf("sched probe: %w", err)
	}
	if err := probeBucket(pi, dir, &pr); err != nil {
		return nil, fmt.Errorf("bucket probe: %w", err)
	}
	if pr.encodeNS, pr.decodeNS, err = probeKVIO(pi); err != nil {
		return nil, fmt.Errorf("kvio probe: %w", err)
	}
	if pr.sortNS, err = probeSort(pi); err != nil {
		return nil, fmt.Errorf("shuffle probe: %w", err)
	}
	return &pr, nil
}

// timeBatches runs probeBatches batches of ops calls to fn and returns
// the median batch's seconds per call. prepare, when set, runs untimed
// before each batch.
func timeBatches(ops int, prepare func() error, fn func(i int) error) (float64, error) {
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		per = append(per, time.Since(start).Seconds()/float64(ops))
	}
	return median(per), nil
}

// defaultOptions are the data-plane settings an empty mrs command line
// gives, so probed stores frame buckets the way the workloads' do.
func defaultOptions() (*mrs.Options, error) {
	fs := flag.NewFlagSet("mrs", flag.ContinueOnError)
	opts := mrs.BindFlags(fs)
	return opts, fs.Parse(nil)
}

// probeXMLRPC times a loopback XML-RPC round trip whose request carries
// a task_done report batch for the workload's task and whose response
// is the workload's task assignment, and counts heap allocations per
// round trip (client and server sides, both in this process).
func probeXMLRPC(pi *probeInput) (us, allocs float64, err error) {
	asg, err := rpcproto.Assignment{Status: rpcproto.StatusTask, TaskID: 42, Attempt: 1, Spec: pi.spec}.Encode()
	if err != nil {
		return 0, 0, err
	}
	reports := rpcproto.EncodeReports([]rpcproto.Report{pi.report()})
	srv := xmlrpc.NewServer()
	srv.Register("report_and_get", func(args []any) (any, error) { return asg, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	hs := &http.Server{Handler: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(l) // returns ErrServerClosed once Close is called
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	client := xmlrpc.NewClient("http://" + l.Addr().String() + "/RPC2")
	defer client.CloseIdle()
	call := func(int) error {
		_, err := client.Call("report_and_get", "slave-1", reports)
		return err
	}
	const ops = 60
	if err := call(0); err != nil { // warm the connection
		return 0, 0, err
	}
	sec, err := timeBatches(ops, nil, call)
	if err != nil {
		return 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		if err := call(i); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return sec * 1e6, float64(m1.Mallocs-m0.Mallocs) / ops, nil
}

// report is the task_done report of the probe task.
func (pi *probeInput) report() rpcproto.Report {
	n := pi.spec.Op.Splits
	outs := make([]bucket.Descriptor, n)
	for s := range outs {
		name := core.BucketNameJob(pi.spec.Job, pi.spec.Op.Dataset, pi.spec.TaskIndex, s)
		outs[s] = bucket.Descriptor{Name: name, URL: "http://127.0.0.1:40123/data/" + name,
			Records: int64(len(pi.records) / n), Bytes: int64(len(pi.records) * 16 / n)}
	}
	return rpcproto.Report{Done: true, Job: int64(pi.spec.Job), TaskID: 42, Outputs: outs,
		Timing: obs.Timing{WallNS: 1234567, ShuffleNS: 234567, InBytes: 65536, InRecords: 1000,
			OutBytes: 32768, OutRecords: int64(len(pi.records))}}
}

// probeSched times one bare scheduler cycle for the workload's task:
// Submit, RequestAttempt by a slave, CompleteTask.
func probeSched(pi *probeInput) (float64, error) {
	s := sched.New(sched.DefaultMaxAttempts)
	defer s.Close()
	result := &core.TaskResult{Dataset: pi.spec.Op.Dataset, TaskIndex: pi.spec.TaskIndex}
	cycle := func(int) error {
		id, err := s.Submit(pi.spec, func(*core.TaskResult, error) {})
		if err != nil {
			return err
		}
		t, _, err := s.RequestAttempt("slave-1", time.Second)
		if err != nil {
			return err
		}
		if t.ID != id {
			return fmt.Errorf("assigned task %d, submitted %d", t.ID, id)
		}
		_, err = s.CompleteTask(id, "slave-1", result)
		return err
	}
	sec, err := timeBatches(500, nil, cycle)
	return sec * 1e6, err
}

// probeBucket times publishing the workload's map output as one bucket
// (Create, Write per record, Close) into a memory store and into a file
// store under dir, fetching the file bucket over a loopback
// ServeBucket, and removing it.
func probeBucket(pi *probeInput, dir string, pr *probeResult) error {
	opts, err := defaultOptions()
	if err != nil {
		return err
	}
	mem := bucket.NewMemStore()
	disk, err := bucket.NewFileStore(filepath.Join(dir, "probe-buckets"), "")
	if err != nil {
		return err
	}
	for _, st := range []*bucket.Store{mem, disk} {
		st.SetCompress(opts.Compress)
		if err := st.SetCodec(opts.Codec); err != nil {
			return err
		}
		if err := st.SetBlockEncoding(opts.BlockEncoding); err != nil {
			return err
		}
		st.SetBlockSize(opts.BlockSize)
	}
	const ops = 20
	var descs [ops]bucket.Descriptor
	publish := func(st *bucket.Store) func(i int) error {
		return func(i int) error {
			w, err := st.Create(fmt.Sprintf("j1/ds9/t%d/s0", i))
			if err != nil {
				return err
			}
			for _, p := range pi.records {
				if err := w.Write(p); err != nil {
					return err
				}
			}
			descs[i], err = w.Close()
			return err
		}
	}
	removeAll := func() error {
		for i := 0; i < ops; i++ {
			if err := disk.Remove(fmt.Sprintf("j1/ds9/t%d/s0", i)); err != nil {
				return err
			}
		}
		return nil
	}
	sec, err := timeBatches(ops, nil, publish(mem))
	if err != nil {
		return err
	}
	pr.publishUS = sec * 1e6
	if sec, err = timeBatches(ops, removeAll, publish(disk)); err != nil {
		return err
	}
	pr.publishDiskUS = sec * 1e6

	// Serve the published files the way a slave's data server does.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bucket.ServeBucket(w, r, filepath.Join(disk.Dir(), strings.TrimPrefix(r.URL.Path, "/data/")))
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(l) // returns ErrServerClosed once Close is called
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	client, err := bucket.NewFileStore(filepath.Join(dir, "probe-client"), "")
	if err != nil {
		return err
	}
	defer client.CloseIdle()
	fetch := func(i int) error {
		rc, err := client.Open("http://" + l.Addr().String() + "/data/" + filepath.Base(strings.TrimPrefix(descs[i].URL, "file://")))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if sec, err = timeBatches(ops, nil, fetch); err != nil {
		return err
	}
	pr.fetchUS = sec * 1e6
	remove := func(i int) error { return disk.Remove(fmt.Sprintf("j1/ds9/t%d/s0", i)) }
	republish := func() error {
		for i := 0; i < ops; i++ {
			if err := publish(disk)(i); err != nil {
				return err
			}
		}
		return nil
	}
	if sec, err = timeBatches(ops, republish, remove); err != nil {
		return err
	}
	pr.removeUS = sec * 1e6
	return os.RemoveAll(disk.Dir())
}

// probeKVIO times the record framing of the default data plane: writing
// the workload's map output to a buffer and reading it back.
func probeKVIO(pi *probeInput) (encNS, decNS float64, err error) {
	var buf bytes.Buffer
	encode := func(int) error {
		buf.Reset()
		w := kvio.NewWriter(&buf)
		defer w.Release()
		for _, p := range pi.records {
			if err := w.Write(p); err != nil {
				return err
			}
		}
		return w.Flush()
	}
	sec, err := timeBatches(repsFor(len(pi.records)), nil, encode)
	if err != nil {
		return 0, 0, err
	}
	encNS = sec * 1e9 / float64(len(pi.records))
	data := append([]byte(nil), buf.Bytes()...)
	decode := func(int) error {
		r := kvio.NewReader(bytes.NewReader(data))
		defer r.Release()
		n := 0
		for {
			_, err := r.ReadShared()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			n++
		}
		if n != len(pi.records) {
			return fmt.Errorf("decoded %d of %d records", n, len(pi.records))
		}
		return nil
	}
	if sec, err = timeBatches(repsFor(len(pi.records)), nil, decode); err != nil {
		return 0, 0, err
	}
	return encNS, sec * 1e9 / float64(len(pi.records)), nil
}

// probeSort times shuffle.Sorter Add and Groups over the workload's map
// output with the workload's combiner.
func probeSort(pi *probeInput) (float64, error) {
	var combine shuffle.CombineFunc
	if pi.combine != nil {
		combine = core.CombineAdapter(pi.combine)
	}
	sortAll := func(int) error {
		s := shuffle.NewSorter(shuffle.Options{Combine: combine})
		defer s.Close()
		for _, p := range pi.records {
			if err := s.Add(p); err != nil {
				return err
			}
		}
		return s.Groups(func([]byte, [][]byte) error { return nil })
	}
	sec, err := timeBatches(repsFor(len(pi.records)), nil, sortAll)
	return sec * 1e9 / float64(len(pi.records)), err
}

// repsFor sizes a per-record probe batch to roughly 20 000 records.
func repsFor(records int) int {
	if records >= 20000 {
		return 1
	}
	return 20000/records + 1
}
