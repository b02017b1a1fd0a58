package master

// Deterministic crash-recovery tests: no real slaves, no real time. The
// test is the fleet — it pulls tasks straight from the scheduler,
// executes them with core.ExecTask against the shared-dir store, and
// reports completions through the same task_done handler slaves use.
// The fake clock freezes heartbeats and leases, so exactly the
// completions the test delivers are the completions that happen.

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/sched"
)

var recoveryLines = []string{
	"the quick brown fox",
	"the lazy dog",
	"the fox jumps over the lazy dog",
	"quick quick quick",
	"over the lazy fox",
	"dog and fox and dog",
}

func recoveryRegistry() *core.Registry {
	reg := core.NewRegistry()
	reg.RegisterMap("split", func(key, value []byte, emit kvio.Emitter) error {
		for _, w := range strings.Fields(string(value)) {
			if err := emit.Emit([]byte(w), codec.EncodeVarint(1)); err != nil {
				return err
			}
		}
		return nil
	})
	reg.RegisterReduce("sum", func(key []byte, values [][]byte, emit kvio.Emitter) error {
		var total int64
		for _, v := range values {
			n, err := codec.DecodeVarint(v)
			if err != nil {
				return err
			}
			total += n
		}
		return emit.Emit(key, codec.EncodeVarint(total))
	})
	return reg
}

// recoveryWordCount is the deterministic driver under test: 3 map
// tasks, then 4 reduce tasks (barriered, so the task sequence is
// stable), collecting inside the run as managed jobs must.
func recoveryWordCount(out *[]kvio.Pair) func(*core.Job) error {
	return func(job *core.Job) error {
		pairs := make([]kvio.Pair, len(recoveryLines))
		for i, l := range recoveryLines {
			pairs[i] = kvio.Pair{Key: codec.EncodeVarint(int64(i)), Value: []byte(l)}
		}
		src, err := job.LocalData(pairs, core.OpOpts{Splits: 3, Partition: "roundrobin"})
		if err != nil {
			return err
		}
		res, err := job.MapReduce(src, "split", "sum",
			core.OpOpts{Splits: 4}, core.OpOpts{Splits: 2})
		if err != nil {
			return err
		}
		got, err := res.Collect()
		if err != nil {
			return err
		}
		*out = got
		return nil
	}
}

const recoveryTotalTasks = 7 // 3 map + 4 reduce

// recoveryMaster starts a shared-dir, journaled, fake-clock master.
func recoveryMaster(t *testing.T, sharedDir, journalDir string, rt *obs.Runtime) *Master {
	t.Helper()
	m, err := New(Options{
		SharedDir:  sharedDir,
		JournalDir: journalDir,
		Clock:      clock.NewFake(time.Unix(0, 0)),
		Obs:        rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func recoveryEnv(t *testing.T, m *Master) (*core.TaskEnv, string) {
	t.Helper()
	raw, err := m.srv.Handlers()[rpcproto.MethodSignin](nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := rpcproto.DecodeSigninReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	return &core.TaskEnv{
		Store:   m.Store(),
		Reg:     recoveryRegistry(),
		TempDir: t.TempDir(),
	}, reply.SlaveID
}

// pump executes up to limit tasks, stopping early once stop() is true
// (checked between tasks). Returns how many tasks it completed.
func pump(t *testing.T, m *Master, env *core.TaskEnv, slaveID string, limit int, stop func() bool) int {
	t.Helper()
	n := 0
	deadline := time.Now().Add(30 * time.Second)
	for n < limit {
		if stop != nil && stop() {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump stalled after %d tasks", n)
		}
		task, err := m.sched.Request(slaveID, 0)
		if err == sched.ErrClosed {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		if task == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		res, err := core.ExecTask(env, task.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.srv.Handlers()[rpcproto.MethodTaskDone]([]any{
			slaveID, int64(task.Spec.Job), int64(task.ID),
			rpcproto.EncodeDescriptors(res.Outputs), rpcproto.EncodeTiming(res.Timing),
		}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

func finished(mj *ManagedJob) func() bool {
	return func() bool {
		st := mj.State()
		return st == JobDone || st == JobFailed
	}
}

// runToCompletion drives a managed job to the end and returns how many
// tasks the pump actually executed for it.
func runToCompletion(t *testing.T, m *Master, env *core.TaskEnv, slaveID string, mj *ManagedJob) int {
	t.Helper()
	n := pump(t, m, env, slaveID, 1<<30, finished(mj))
	if err := mj.Wait(); err != nil {
		t.Fatalf("job: %v", err)
	}
	return n
}

// A master crashed after K completions recovers from its journal,
// answers the K journaled tasks without re-dispatching them, and
// finishes with output and JobStats identical to a never-crashed
// master's.
func TestRecoveredManagerMatchesUncrashed(t *testing.T) {
	for _, k := range []int{2, 5} { // mid-map and mid-reduce crashes
		t.Run(map[int]string{2: "midMap", 5: "midReduce"}[k], func(t *testing.T) {
			// Control: never crashes.
			ctrl := recoveryMaster(t, t.TempDir(), t.TempDir(), nil)
			envC, sidC := recoveryEnv(t, ctrl)
			var wantPairs []kvio.Pair
			mjC, err := ctrl.Jobs().Submit("wc", core.JobOptions{}, recoveryWordCount(&wantPairs))
			if err != nil {
				t.Fatal(err)
			}
			runToCompletion(t, ctrl, envC, sidC, mjC)
			wantStats := ctrl.JobStats(mjC.ID())

			// Crash run: shared dir and journal survive the master.
			sharedDir, journalDir := t.TempDir(), t.TempDir()
			mA := recoveryMaster(t, sharedDir, journalDir, nil)
			envA, sidA := recoveryEnv(t, mA)
			var lostPairs []kvio.Pair
			mjA, err := mA.Jobs().Submit("wc", core.JobOptions{}, recoveryWordCount(&lostPairs))
			if err != nil {
				t.Fatal(err)
			}
			if got := pump(t, mA, envA, sidA, k, nil); got != k {
				t.Fatalf("pumped %d tasks before crash, want %d", got, k)
			}
			if err := mA.Crash(); err != nil {
				t.Fatal(err)
			}
			if err := mjA.Wait(); err == nil {
				t.Fatal("job survived the crash without a journal replay")
			}

			// Restart on the same journal and resume.
			rtB := obs.New(nil)
			mB := recoveryMaster(t, sharedDir, journalDir, rtB)
			if got := rtB.M().Get(obs.MetricMasterRecoveries); got != 1 {
				t.Fatalf("recoveries metric = %d", got)
			}
			// The replayed stats match what the journal witnessed.
			if got := mB.JobStats(mjA.ID()); got.TasksDone != int64(k) {
				t.Fatalf("recovered JobStats.TasksDone = %d, want %d", got.TasksDone, k)
			}
			var gotPairs []kvio.Pair
			mjB, err := mB.Jobs().Resume(mjA.ID(), "wc", core.JobOptions{}, recoveryWordCount(&gotPairs))
			if err != nil {
				t.Fatal(err)
			}
			if mjB.ID() != mjA.ID() {
				t.Fatalf("resumed under id %d, journaled id %d", mjB.ID(), mjA.ID())
			}
			envB, sidB := recoveryEnv(t, mB)
			executedB := runToCompletion(t, mB, envB, sidB, mjB)

			if !reflect.DeepEqual(wantPairs, gotPairs) {
				t.Fatalf("recovered output differs from uninterrupted run:\nwant %v\ngot  %v", wantPairs, gotPairs)
			}
			if got := rtB.M().Get(obs.MetricRecoveredTasks); got != int64(k) {
				t.Fatalf("recovered-tasks metric = %d, want %d", got, k)
			}
			// Journaled-complete tasks were never re-dispatched: the
			// restarted master handed out exactly the remainder.
			if executedB != recoveryTotalTasks-k {
				t.Fatalf("restarted master dispatched %d tasks, want %d", executedB, recoveryTotalTasks-k)
			}
			if got, want := mB.JobStats(mjB.ID()), wantStats; got.TasksDone != want.TasksDone || got.ShuffleBytes != want.ShuffleBytes {
				t.Fatalf("recovered JobStats = %+v, uncrashed = %+v", got, want)
			}
			// The finished job is journaled done: a further restart has
			// nothing to resume.
			if err := mB.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := journal.Inspect(journalDir)
			if err != nil {
				t.Fatal(err)
			}
			if jr := st.Job(int64(mjA.ID())); jr == nil || jr.State != journal.JobDone {
				t.Fatalf("journal after completion: %+v", st.Job(int64(mjA.ID())))
			}
		})
	}
}

// A second crash — during recovery, before the resumed job finishes —
// is safe: replay is idempotent and the third master completes the job.
func TestSecondCrashDuringRecoveryIsSafe(t *testing.T) {
	sharedDir, journalDir := t.TempDir(), t.TempDir()

	mA := recoveryMaster(t, sharedDir, journalDir, nil)
	envA, sidA := recoveryEnv(t, mA)
	var aPairs []kvio.Pair
	mjA, err := mA.Jobs().Submit("wc", core.JobOptions{}, recoveryWordCount(&aPairs))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, mA, envA, sidA, 2, nil)
	mA.Crash()
	mjA.Wait()

	// Second master: resume, make some progress, crash again.
	mB := recoveryMaster(t, sharedDir, journalDir, nil)
	var bPairs []kvio.Pair
	mjB, err := mB.Jobs().Resume(mjA.ID(), "wc", core.JobOptions{}, recoveryWordCount(&bPairs))
	if err != nil {
		t.Fatal(err)
	}
	envB, sidB := recoveryEnv(t, mB)
	if got := pump(t, mB, envB, sidB, 2, finished(mjB)); got != 2 {
		t.Fatalf("second master pumped %d tasks", got)
	}
	mB.Crash()
	mjB.Wait()

	// Third master: 4 completions journaled across two crashed runs.
	rtC := obs.New(nil)
	mC := recoveryMaster(t, sharedDir, journalDir, rtC)
	if got := mC.JobStats(mjA.ID()).TasksDone; got != 4 {
		t.Fatalf("third master recovered %d completions, want 4", got)
	}
	var cPairs []kvio.Pair
	mjC, err := mC.Jobs().Resume(mjA.ID(), "wc", core.JobOptions{}, recoveryWordCount(&cPairs))
	if err != nil {
		t.Fatal(err)
	}
	envC, sidC := recoveryEnv(t, mC)
	runToCompletion(t, mC, envC, sidC, mjC)

	// Same answer a control master computes from scratch.
	ctrl := recoveryMaster(t, t.TempDir(), t.TempDir(), nil)
	envCt, sidCt := recoveryEnv(t, ctrl)
	var wantPairs []kvio.Pair
	mjCt, err := ctrl.Jobs().Submit("wc", core.JobOptions{}, recoveryWordCount(&wantPairs))
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, ctrl, envCt, sidCt, mjCt)
	if !reflect.DeepEqual(wantPairs, cPairs) {
		t.Fatalf("twice-crashed output differs:\nwant %v\ngot  %v", wantPairs, cPairs)
	}
	if got := rtC.M().Get(obs.MetricRecoveredTasks); got != 4 {
		t.Fatalf("recovered-tasks metric = %d, want 4", got)
	}
}

// Resume rejects jobs the journal cannot vouch for.
func TestResumeValidation(t *testing.T) {
	sharedDir, journalDir := t.TempDir(), t.TempDir()
	mA := recoveryMaster(t, sharedDir, journalDir, nil)
	var pairs []kvio.Pair
	mjA, err := mA.Jobs().Submit("wc", core.JobOptions{}, recoveryWordCount(&pairs))
	if err != nil {
		t.Fatal(err)
	}
	envA, sidA := recoveryEnv(t, mA)
	pump(t, mA, envA, sidA, 1, nil)
	mA.Crash()
	mjA.Wait()

	mB := recoveryMaster(t, sharedDir, journalDir, nil)
	if _, err := mB.Jobs().Resume(99, "wc", core.JobOptions{}, recoveryWordCount(&pairs)); err == nil {
		t.Fatal("resumed a job the journal never saw")
	}
	// Wrong program shape: different name, and different pipelining.
	if _, err := mB.Jobs().Resume(mjA.ID(), "other", core.JobOptions{}, recoveryWordCount(&pairs)); err == nil {
		t.Fatal("resumed under a different program name")
	}
	if _, err := mB.Jobs().Resume(mjA.ID(), "wc", core.JobOptions{Pipeline: true}, recoveryWordCount(&pairs)); err == nil {
		t.Fatal("resumed with a different pipelining mode")
	}
	mjB, err := mB.Jobs().Resume(mjA.ID(), "wc", core.JobOptions{}, recoveryWordCount(&pairs))
	if err != nil {
		t.Fatal(err)
	}
	// Double resume of a live job.
	if _, err := mB.Jobs().Resume(mjA.ID(), "wc", core.JobOptions{}, recoveryWordCount(&pairs)); err == nil {
		t.Fatal("double resume succeeded")
	}
	envB, sidB := recoveryEnv(t, mB)
	runToCompletion(t, mB, envB, sidB, mjB)
	mB.Close()

	// A done job cannot be resumed (its data was reclaimed).
	mC := recoveryMaster(t, sharedDir, journalDir, nil)
	if _, err := mC.Jobs().Resume(mjA.ID(), "wc", core.JobOptions{}, recoveryWordCount(&pairs)); err == nil {
		t.Fatal("resumed a completed job")
	}
}

// Regression (satellite fix): two live masters must not share a journal
// directory — the second Recover fails fast on the lock file.
func TestDoubleRecoverFailsFast(t *testing.T) {
	journalDir := t.TempDir()
	mA := recoveryMaster(t, t.TempDir(), journalDir, nil)
	_, err := New(Options{
		SharedDir:  t.TempDir(),
		JournalDir: journalDir,
		Clock:      clock.NewFake(time.Unix(0, 0)),
	})
	if err == nil {
		t.Fatal("second master recovered a locked journal dir")
	}
	if !strings.Contains(err.Error(), "locked") {
		t.Fatalf("error does not name the lock: %v", err)
	}
	// The crash releases the lock; a restart succeeds.
	mA.Crash()
	mB := recoveryMaster(t, t.TempDir(), journalDir, nil)
	mB.Close()
}

// Regression (satellite fix): Close flushes and releases the journal
// before anything else of the shutdown proceeds — afterwards the
// directory is checkpointed, unlocked, and immediately reusable.
func TestCloseFlushesAndReleasesJournal(t *testing.T) {
	sharedDir, journalDir := t.TempDir(), t.TempDir()
	m := recoveryMaster(t, sharedDir, journalDir, nil)
	env, sid := recoveryEnv(t, m)
	var pairs []kvio.Pair
	mj, err := m.Jobs().Submit("wc", core.JobOptions{}, recoveryWordCount(&pairs))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, m, env, sid, 3, nil)
	if err := m.Crash(); err != nil { // interrupt mid-job...
		t.Fatal(err)
	}
	mj.Wait()

	// ...recover and shut down cleanly mid-job.
	m2 := recoveryMaster(t, sharedDir, journalDir, nil)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	// Clean shutdown checkpointed: state is intact and the lock is free.
	st, err := journal.Inspect(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if jr := st.Job(int64(mj.ID())); jr == nil || jr.State != journal.JobRunning || jr.TasksDone != 3 {
		t.Fatalf("journal after clean close: %+v", st.Job(int64(mj.ID())))
	}
	jl, st2, err := journal.Open(journalDir, journal.Options{})
	if err != nil {
		t.Fatalf("journal still locked after Close: %v", err)
	}
	if jr := st2.Job(int64(mj.ID())); jr == nil || jr.TasksDone != 3 {
		t.Fatalf("reopened journal state: %+v", st2.Job(int64(mj.ID())))
	}
	jl.Close()
}

// A crashed master's driver may still run its deferred frees. They
// must not delete shared-dir buckets: the journal names them, and the
// restarted master's recovery needs them.
func TestFreeAfterCrashKeepsBuckets(t *testing.T) {
	sharedDir := t.TempDir()
	m := recoveryMaster(t, sharedDir, t.TempDir(), nil)
	d, err := m.Store().Put("j1/ds1/t0/s0", []kvio.Pair{kvio.StrPair("k", "v")})
	if err != nil {
		t.Fatal(err)
	}
	path, ok := strings.CutPrefix(d.URL, "file://")
	if !ok {
		t.Fatalf("shared-dir bucket URL %q is not a file URL", d.URL)
	}
	mat := core.NewMaterialized(1, "")
	if err := mat.SetTaskBucket(0, 0, d); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	m.Free(mat)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Free after Crash removed a journaled bucket: %v", err)
	}
}
