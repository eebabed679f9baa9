package core

// Allocation budgets of the acknowledgement path. Race-free: under -race
// sync.Pool drops Puts on purpose and the counts mean nothing.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/oplog"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/testenv"
	"repro/internal/uniq"
)

// TestPinSubmitAllocs pins what a blocking guess costs on a lone replica
// with no tracer: nothing. Its ID is minted straight into the op set's
// arena and never exists as a string of its own, and the wait takes no
// channel, no escaped Result, no closure (the sink is pooled). A durable
// replica adds nothing per op either: the segment's items ride a pooled
// object with its commit callback already bound, and the store encodes
// into buffers it keeps. Each budget leaves one to spare (the arena's and
// the buffers' occasional growth).
func TestPinSubmitAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	ctx := context.Background()
	op := NewOp("credit", "acct-17", 1)
	measure := func(t *testing.T, c *Cluster[counterState]) float64 {
		t.Helper()
		defer c.Close()
		submit := func() {
			if res, err := c.Submit(ctx, 0, op); err != nil || !res.Accepted {
				t.Fatalf("submit: %+v, %v", res, err)
			}
		}
		for i := 0; i < 4096; i++ {
			submit() // grow the set, ring, scratch and staging buffers first
		}
		got := testing.AllocsPerRun(2000, submit)
		t.Logf("%.0f allocs per blocking guess", got)
		return got
	}
	t.Run("volatile", func(t *testing.T) {
		if got := measure(t, New[counterState](counterApp{}, nil, WithReplicas(1))); got > 1 {
			t.Fatalf("one blocking guess allocates %.0f times, want at most 1", got)
		}
	})
	t.Run("durable", func(t *testing.T) {
		// On the simulator the store runs inline: the flush, the commit
		// fan-out and the sink's release all happen inside Submit.
		c := New[counterState](counterApp{}, nil, WithTransport(rpc.NewSimTransport(sim.New(27))), WithReplicas(1),
			WithDurability(t.TempDir()))
		if got := measure(t, c); got > 2 {
			t.Fatalf("one durable blocking guess allocates %.0f times, want at most 2", got)
		}
	})
}

var syncSubmit = []SubmitOption{WithPolicy(policy.AlwaysSync())}

// TestPinSyncSubmitAllocs pins what a blocking coordinated (§5.8) submit
// costs on three live replicas with no tracer and no gossip: the generated
// ID string and the admit and apply requests, each boxed once for both
// peers — nothing for the round's bookkeeping. Its four calls ride pooled
// records, its two fan-outs a pooled collector, the round a pooled carrier
// whose steps are bound once, and the inboxes are reused slices. It cost 83
// before calls became records; the budget leaves room for a worker
// goroutine the runtime occasionally has to grow.
func TestPinSyncSubmitAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	c := New[counterState](counterApp{}, nil, WithReplicas(3), WithCallTimeout(500*time.Millisecond))
	defer c.Close()
	ctx := context.Background()
	op := NewOp("credit", "acct-17", 1)
	submit := func() {
		if res, err := c.Submit(ctx, 0, op, syncSubmit...); err != nil || !res.Accepted {
			t.Fatalf("sync submit: %+v, %v", res, err)
		}
	}
	for i := 0; i < 4096; i++ {
		submit() // grow the sets, journals, inboxes and pools first
	}
	got := testing.AllocsPerRun(2000, submit)
	t.Logf("%.2f allocs per blocking coordinated submit", got)
	if got > 10 {
		t.Fatalf("one blocking coordinated submit allocates %.2f times, want at most 10", got)
	}
}

// TestPinLiveCallAllocs: a steady-state Node.Call round trip between two
// live nodes — the request queued at the callee, the handler's reply, the
// response queued back, done — reuses one record and two inboxes.
func TestPinLiveCallAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	tr := NewLiveTransport()
	a, b := tr.Node("a", time.Second), tr.Node("b", time.Second)
	b.Handle("echo", func(_ string, req any, reply func(any)) { reply(req) })
	landed := make(chan struct{}, 1)
	done := func(_ any, ok bool) {
		if !ok {
			t.Error("a call between two live nodes timed out")
		}
		landed <- struct{}{}
	}
	var req any = pushAck{OK: true}
	call := func() {
		a.Call("b", "echo", req, done)
		<-landed
	}
	for i := 0; i < 1000; i++ {
		call()
	}
	got := testing.AllocsPerRun(5000, call)
	t.Logf("%.3f allocs per round trip", got)
	if got > 1 {
		t.Fatalf("one live round trip allocates %.3f times, want at most 1", got)
	}
}

// TestPinPushDecodeAllocs pins what decoding a 256-entry gossip push
// costs: the one string copy its entries are cut from, the entry slice and
// the boxed message. It cost 770 when each entry string was its own copy.
func TestPinPushDecodeAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	entries := make([]oplog.Entry, 256)
	for i := range entries {
		entries[i] = oplog.Entry{ID: uniq.ID(fmt.Sprintf("r1-%06d", i)), Kind: "credit", Key: fmt.Sprintf("acct-%d", i%17), Note: "n", Arg: int64(i), Lam: uint64(i)}
	}
	buf, err := AppendMessage(nil, pushReq{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := DecodeMessage(buf); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per 256-entry push decode", got)
	if got > 4 {
		t.Fatalf("decoding a 256-entry push allocates %.0f times, want at most 4", got)
	}
}
