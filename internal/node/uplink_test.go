package node

import (
	"context"
	"io"
	"log"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

func TestResigninRacersSignInOnce(t *testing.T) {
	// Workers racing to replace the same stale id (a sub-master's
	// fetcher and report flusher) sign in at the parent once, and the
	// new identity is announced before ID reports it.
	var signins atomic.Int64
	rpc := xmlrpc.NewServer()
	rpc.Register(rpcproto.MethodSignin, func([]any) (any, error) {
		n := signins.Add(1)
		return rpcproto.SigninReply{SlaveID: "p-" + strconv.FormatInt(n, 10), HeartbeatMillis: 40}.Encode(), nil
	})
	parent := httptest.NewServer(rpc)
	defer parent.Close()

	var announced atomic.Value
	u := NewUplink(UplinkConfig{
		Name:     "test",
		Parent:   strings.TrimPrefix(parent.URL, "http://"),
		Retry:    fault.NewBackoff(1),
		Logger:   log.New(io.Discard, "", 0),
		Args:     func() rpcproto.SigninArgs { return rpcproto.SigninArgs{Slots: 2} },
		OnSignin: func(id string, hb time.Duration) { announced.Store(id) },
	})
	defer u.Client.CloseIdle()
	ctx := context.Background()
	if err := u.Signin(ctx); err != nil {
		t.Fatal(err)
	}
	old := u.ID()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := u.Resignin(ctx, old); err != nil {
				t.Error(err)
			}
			if id := u.ID(); id != old && announced.Load() != id {
				t.Errorf("ID %s visible before OnSignin announced it", id)
			}
		}()
	}
	wg.Wait()
	if got := signins.Load(); got != 2 {
		t.Errorf("parent saw %d signins, want 2 (initial + one re-signin)", got)
	}
	if u.Resignins() != 1 || u.ID() == old || announced.Load() != u.ID() {
		t.Errorf("resignins %d, id %s (old %s), announced %v", u.Resignins(), u.ID(), old, announced.Load())
	}
}
