package node

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

// signinAttempts bounds one signin; against a dead parent the seeded
// backoff spends ≈30 s before giving up.
const signinAttempts = 20

// reportRetries bounds report delivery attempts. Losing a report is
// survivable (the parent's task lease reclaims the work) but expensive,
// so reports retry harder than polls.
const reportRetries = 6

// UplinkConfig describes one worker's link to its parent.
type UplinkConfig struct {
	Name      string // log and error prefix ("slave", "submaster")
	Parent    string // the parent's host:port
	Retry     *fault.Backoff
	Logger    *log.Logger
	Intercept xmlrpc.Intercept // wraps every call (fault injection)
	// Args is what each signin advertises.
	Args func() rpcproto.SigninArgs
	// OnSignin, if set, runs after every signin with the new identity,
	// before ID reports it. It must not call back into the Uplink.
	OnSignin func(id string, heartbeat time.Duration)
	// ResigninMetric counts re-signins in Metrics.
	Metrics        *obs.Metrics
	ResigninMetric string
}

// Uplink is a worker's end of the node protocol toward its parent (the
// master, or a sub-master): signin with backoff, the heartbeat,
// re-signin under a fresh id after the unknown-node fault, and report
// redelivery. Slaves and sub-masters each hold one and run their own
// poll loops over Client and PollFailed.
type Uplink struct {
	Client *xmlrpc.Client // the parent's endpoint
	cfg    UplinkConfig

	// signinMu serializes signins, so callers racing to replace the
	// same stale id sign in at the parent once.
	signinMu  sync.Mutex
	mu        sync.Mutex
	id        string        // parent-assigned; rewritten on re-signin
	interval  time.Duration // parent-chosen heartbeat interval
	resignins atomic.Int64
}

// NewUplink returns an unsigned Uplink. Retry is the worker's seeded
// backoff stream, shared by every retry on the link.
func NewUplink(cfg UplinkConfig) *Uplink {
	client := xmlrpc.NewClient("http://" + cfg.Parent + xmlrpc.RPCPath)
	client.Intercept = cfg.Intercept
	return &Uplink{cfg: cfg, Client: client}
}

// ID returns the parent-assigned id (empty before signin).
func (u *Uplink) ID() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.id
}

// Resignins returns how many times the worker re-signed in after its
// parent stopped recognizing it.
func (u *Uplink) Resignins() int64 { return u.resignins.Load() }

// backoff sleeps the n-th retry delay; false if ctx ended first.
func (u *Uplink) backoff(ctx context.Context, n int) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(u.cfg.Retry.Delay(n)):
		return true
	}
}

// Signin signs in, retrying with backoff.
func (u *Uplink) Signin(ctx context.Context) error {
	_, err := u.signin(ctx, "")
	return err
}

// signin signs in and adopts the new identity if the current one is
// still old, reporting whether it did.
func (u *Uplink) signin(ctx context.Context, old string) (bool, error) {
	u.signinMu.Lock()
	defer u.signinMu.Unlock()
	if u.ID() != old {
		return false, nil
	}
	var lastErr error
	for attempt := 0; attempt < signinAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		raw, err := u.Client.Call(rpcproto.MethodSignin, u.cfg.Args().Encode())
		if err != nil {
			lastErr = err
			if !u.backoff(ctx, attempt+1) {
				return false, ctx.Err()
			}
			continue
		}
		reply, err := rpcproto.DecodeSigninReply(raw)
		if err != nil {
			return false, err
		}
		id, interval := reply.SlaveID, time.Duration(reply.HeartbeatMillis)*time.Millisecond
		if u.cfg.OnSignin != nil {
			u.cfg.OnSignin(id, interval)
		}
		u.mu.Lock()
		u.id, u.interval = id, interval
		u.mu.Unlock()
		return true, nil
	}
	return false, fmt.Errorf("%s: signin failed: %w", u.cfg.Name, lastErr)
}

// PollFailed handles a failed poll of the parent. After the
// unknown-node fault (the parent reaped the worker, or restarted and
// never met it) the worker re-signs in under a fresh id; other errors
// count toward max consecutive failures and back off. A non-nil result
// ends the poll loop.
func (u *Uplink) PollFailed(ctx context.Context, id string, err error, consecutive *int, max int) error {
	if rpcproto.IsUnknownSlave(err) {
		*consecutive = 0
		return u.Resignin(ctx, id)
	}
	*consecutive++
	u.cfg.Logger.Printf("%s %s: poll: %v", u.cfg.Name, id, err)
	if *consecutive >= max {
		return fmt.Errorf("%s: parent unreachable: %w", u.cfg.Name, err)
	}
	if !u.backoff(ctx, *consecutive) {
		return ctx.Err()
	}
	return nil
}

// Resignin replaces the stale identity old, once however many callers
// race on it.
func (u *Uplink) Resignin(ctx context.Context, old string) error {
	if u.ID() != old {
		return nil
	}
	u.cfg.Logger.Printf("%s %s: unknown to its parent; re-signing in", u.cfg.Name, old)
	adopted, err := u.signin(ctx, old)
	if err != nil {
		return fmt.Errorf("%s: re-signin: %w", u.cfg.Name, err)
	}
	if !adopted {
		return nil
	}
	u.resignins.Add(1)
	if u.cfg.ResigninMetric != "" {
		u.cfg.Metrics.Add(u.cfg.ResigninMetric, 1)
	}
	return nil
}

// Heartbeat pings the parent at the signin interval until stop closes.
func (u *Uplink) Heartbeat(stop <-chan struct{}) {
	u.mu.Lock()
	tick := time.NewTicker(u.interval)
	u.mu.Unlock()
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			id := u.ID()
			if _, err := u.Client.Call(rpcproto.MethodPing, id); err != nil {
				u.cfg.Logger.Printf("%s %s: ping: %v", u.cfg.Name, id, err)
			}
		}
	}
}

// Report delivers a task outcome with retries and backoff. Transport
// errors (including dropped responses, where the parent may already
// have processed the call) are retried — the parent applies
// redeliveries idempotently. Server-side faults are final. The
// unknown-node fault comes back to the caller: the parent processed the
// report before faulting, so nothing is lost, but the identity needs
// repair (Resignin, or the next poll's PollFailed).
func (u *Uplink) Report(method string, args ...any) error {
	var err error
	for attempt := 1; attempt <= reportRetries; attempt++ {
		if attempt > 1 {
			time.Sleep(u.cfg.Retry.Delay(attempt - 1))
		}
		if _, err = u.Client.Call(method, args...); err == nil || rpcproto.IsUnknownSlave(err) {
			return err
		}
		if _, isFault := err.(*xmlrpc.Fault); isFault {
			break
		}
	}
	u.cfg.Logger.Printf("%s %s: %s undelivered: %v", u.cfg.Name, u.ID(), method, err)
	return err
}
