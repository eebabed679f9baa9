package core

// The live transport's calls, fan-outs and §5.8 rounds are pooled
// records, so a record reused while something still holds it would hand
// one submit's outcome to another. These tests drive coordinated submits
// through the two events that leave records behind — a call timing out
// with its reply still queued, and a replica killed mid-round — and hold
// every submit to exactly one Result, its own. Run them under -race. The
// call contract itself (timeouts, lost and late replies, double replies)
// is one table over all three transports in internal/netx.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/uniq"
)

// slowAdmit stalls the admission of the ops stall picks — at the
// coordinator and at each peer, whose inbox worker stalls with it — so
// those rounds, and the calls queued behind them, time out while the
// peers' replies are still on their way.
func slowAdmit(d time.Duration, stall func(Op) bool) Rule[counterState] {
	return Rule[counterState]{Name: "slow", Admit: func(_ counterState, op Op) bool {
		if stall(op) {
			time.Sleep(d)
		}
		return true
	}}
}

// syncStorm runs workers goroutines, each submitting perWorker coordinated
// ops one after another at replica w%3 and waiting for each Result, and
// returns once every submit has resolved. mid, if set, runs concurrently
// with the storm. It fails the test on any Result that is not the
// submit's own or that arrives twice, and reports how many were accepted.
func syncStorm(t *testing.T, c *Cluster[counterState], workers, perWorker int, mid func()) (accepted int64) {
	t.Helper()
	counts := make([]atomic.Int32, workers*perWorker)
	var nAccepted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			landed := make(chan struct{}, 1)
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				op := NewOp("credit", fmt.Sprintf("k%d", w%7), int64(i))
				op.ID = uniq.ID(fmt.Sprintf("s-%d-%d", w, i))
				c.SubmitAsync(w%3, op, func(res Result) {
					if res.Op.ID != op.ID || res.Op.Arg != op.Arg {
						t.Errorf("submit %s resolved with %s (arg %d)", op.ID, res.Op.ID, res.Op.Arg)
					}
					if res.Accepted {
						nAccepted.Add(1)
					}
					if counts[n].Add(1) == 1 {
						landed <- struct{}{}
					}
				}, syncSubmit...)
				select {
				case <-landed:
				case <-time.After(time.Minute):
					t.Errorf("submit %s never resolved", op.ID)
					return
				}
			}
		}(w)
	}
	if mid != nil {
		mid()
	}
	wg.Wait()
	time.Sleep(10 * c.CallTimeout()) // a second resolution would be a timer behind
	for n := range counts {
		if got := counts[n].Load(); got != 1 {
			t.Fatalf("submit %d resolved %d times", n, got)
		}
	}
	return nAccepted.Load()
}

// TestSyncRoundsResolveOnceUnderTimeouts: 64 goroutines of coordinated
// submits against live replicas; the first round of one worker in seven
// overruns the call timeout, and the calls queued behind it at the same
// peer with it. Timed-out calls abandon their records with replies still
// queued; every submit still resolves exactly once.
func TestSyncRoundsResolveOnceUnderTimeouts(t *testing.T) {
	const workers, perWorker = 64, 12
	timeout := 20 * time.Millisecond
	stall := func(op Op) bool { return op.Key == "k0" && op.Arg == 0 }
	c := New[counterState](counterApp{}, []Rule[counterState]{slowAdmit(timeout+timeout/2, stall)},
		WithReplicas(3), WithCallTimeout(timeout))
	defer c.Close()
	accepted := syncStorm(t, c, workers, perWorker, nil)
	m := c.Metrics()
	t.Logf("%d accepted, %d declined", m.SyncAccepted.Value(), m.SyncDeclined.Value())
	if m.SyncAccepted.Value() != accepted || m.SyncAccepted.Value()+m.SyncDeclined.Value() != workers*perWorker {
		t.Fatalf("metrics count %d accepted + %d declined, want %d accepted of %d",
			m.SyncAccepted.Value(), m.SyncDeclined.Value(), accepted, workers*perWorker)
	}
	if m.SyncDeclined.Value() == 0 {
		t.Fatal("no round timed out: the test exercised nothing")
	}
	if accepted == 0 {
		t.Fatal("no round was accepted: the test exercised nothing")
	}
}

// TestKillMidRoundResolvesOnce: replicas are killed and revived while
// coordinated rounds are in flight through them — as coordinators and as
// peers. Requests dropped at a dead callee and replies lost to a dead
// caller abandon their records; every submit resolves exactly once.
func TestKillMidRoundResolvesOnce(t *testing.T) {
	const workers, perWorker = 16, 30
	stall := func(op Op) bool { return op.Arg%4 == 0 }
	c := New[counterState](counterApp{}, []Rule[counterState]{slowAdmit(time.Millisecond, stall)},
		WithReplicas(3), WithCallTimeout(20*time.Millisecond))
	defer c.Close()
	syncStorm(t, c, workers, perWorker, func() {
		for round := 0; round < 6; round++ {
			time.Sleep(5 * time.Millisecond)
			i := round % 3
			c.Kill(i)
			time.Sleep(5 * time.Millisecond)
			c.Transport().SetUp(c.Replica(i).ID(), true) // back, empty: a volatile replica lost its state
		}
	})
	if m := c.Metrics(); m.SyncDeclined.Value() == 0 {
		t.Fatal("no round failed across six kills: the test exercised nothing")
	}
}
