package core

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// replicaFS builds a fault-injecting filesystem that fails every write
// under the given replica's store directory with err while the flag is
// set — the "this one disk is full" fault, scoped so peers stay healthy.
func replicaFS(rep string, flag *atomic.Bool, err error) faultfs.FS {
	marker := string(os.PathSeparator) + rep + string(os.PathSeparator)
	return faultfs.New(faultfs.OS, 1, func(op faultfs.Op) faultfs.Decision {
		if flag.Load() && strings.Contains(op.Path, marker) {
			switch op.Kind {
			case faultfs.OpWrite, faultfs.OpWriteAt, faultfs.OpCreate, faultfs.OpSync:
				return faultfs.Decision{Err: err}
			}
		}
		return faultfs.Decision{}
	})
}

// TestDegradedReadOnlyMode: an ENOSPC commit failure must not kill the
// replica (the old fail-fast). It enters degraded read-only mode —
// writes decline with the typed retryable reason, reads keep serving
// the published fold snapshot, gossip pauses — and Recover brings it
// back once the disk heals, with no accepted operation lost.
func TestDegradedReadOnlyMode(t *testing.T) {
	var full atomic.Bool
	dir := t.TempDir()
	s := sim.New(7)
	c := New[counterState](counterApp{}, nil,
		WithTransport(rpc.NewSimTransport(s)), WithReplicas(3), WithDurability(dir),
		WithStoreFS(replicaFS("r1", &full, syscall.ENOSPC)))
	defer c.Close()

	for i := 0; i < 6; i++ {
		mustSubmit(t, c, i%3, NewOp("credit", "k", 1))
	}
	convergeSim(t, s, c)
	pre := c.Replica(1).State()["k"]

	full.Store(true)
	res, err := c.Submit(context.Background(), 1, NewOp("credit", "k", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Reason != ReasonDegraded || !res.Retryable {
		t.Fatalf("submit on full disk = %+v, want retryable ReasonDegraded decline", res)
	}
	r1 := c.Replica(1)
	if !r1.Degraded() {
		t.Fatal("replica did not enter degraded mode")
	}
	if r1.node.Crashed() {
		t.Fatal("degraded replica was killed; degradation must not crash the node")
	}
	if !strings.Contains(r1.DegradedReason(), "no space") {
		t.Fatalf("DegradedReason = %q, want the ENOSPC detail", r1.DegradedReason())
	}
	detail, deg := c.ShardDegraded(0)
	if !deg || !strings.Contains(detail, "r1") {
		t.Fatalf("ShardDegraded = (%q, %v), want r1 detail", detail, deg)
	}
	if got := c.Metrics().Degraded.Value(); got != 1 {
		t.Fatalf("Metrics.Degraded = %d, want 1", got)
	}

	// Reads keep serving at least everything accepted before the fault.
	if got := r1.State()["k"]; got < pre {
		t.Fatalf("degraded read = %d, want >= %d", got, pre)
	}
	// Later writes decline immediately with the same typed reason.
	res, err = c.Submit(context.Background(), 1, NewOp("credit", "k", 1))
	if err != nil || res.Accepted || res.Reason != ReasonDegraded || !res.Retryable {
		t.Fatalf("second submit = %+v err=%v, want immediate retryable decline", res, err)
	}
	// Healthy peers keep accepting, and gossip must neither wedge nor
	// push phantoms into (or out of) the degraded replica. The run is
	// bounded: the re-probe keeps failing on the full disk, so the event
	// queue never empties.
	mustSubmit(t, c, 0, NewOp("credit", "k", 1))
	c.GossipRound()
	s.RunFor(time.Second)
	if !r1.Degraded() {
		t.Fatal("the re-probe recovered a replica whose disk is still full")
	}

	full.Store(false)
	if err := c.Recover(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if r1.Degraded() {
		t.Fatal("replica still degraded after Recover")
	}
	if _, deg := c.ShardDegraded(0); deg {
		t.Fatal("shard still reports degraded after Recover")
	}
	mustSubmit(t, c, 1, NewOp("credit", "k", 1))
	convergeSim(t, s, c)
	// 6 pre-fault + 1 at r0 during degradation + 1 post-recovery; the
	// two declined phantoms must be gone everywhere.
	if n := r1.OpCount(); n != 8 {
		t.Fatalf("ops after Recover = %d, want 8", n)
	}
	if got := r1.State()["k"]; got != 8 {
		t.Fatalf("state after Recover = %d, want 8", got)
	}
}

// TestRecoverHealsADegradedReplica: a degraded replica — up, or downed
// by SetUp(false) — still holds its RAM, the op its failed commit
// declined included, and no store. Recover is its way back, as it is a
// killed one's: it reopens the store, ends the degraded life with the
// wipe Kill makes and reseeds from disk, so the declined op ends up
// nowhere. Before that, a replica that holds its store — healthy, or
// only downed — is refused and no store is opened; a Recover the full
// disk fails leaves none open; the one that succeeds opens exactly one.
func TestRecoverHealsADegradedReplica(t *testing.T) {
	for _, tc := range []struct {
		name string
		down bool
	}{{"degraded and up", false}, {"degraded and downed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var full atomic.Bool
			var opens atomic.Int32 // store.Open calls on r1's directory: each makes it first
			dir := string(os.PathSeparator) + "r1"
			disk := replicaFS("r1", &full, syscall.ENOSPC)
			s := sim.New(7)
			c := New[counterState](counterApp{}, nil,
				WithTransport(rpc.NewSimTransport(s)), WithReplicas(3), WithDurability(t.TempDir()),
				WithStoreFS(faultfs.New(disk, 1, func(op faultfs.Op) faultfs.Decision {
					if op.Kind == faultfs.OpMkdir && strings.HasSuffix(op.Path, dir) {
						opens.Add(1)
					}
					return faultfs.Decision{}
				})))
			defer c.Close()
			for i := 0; i < 6; i++ {
				mustSubmit(t, c, i%3, NewOp("credit", "k", 1))
			}
			convergeSim(t, s, c)
			r1 := c.Replica(1)
			refused := func(what string) {
				t.Helper()
				before := opens.Load()
				if err := c.Recover(context.Background(), 1); err == nil {
					t.Fatalf("Recover reseeded a %s replica", what)
				}
				if opens.Load() != before {
					t.Fatalf("a refused Recover of a %s replica opened a store", what)
				}
			}
			refused("healthy")
			c.Transport().SetUp("r1", false)
			refused("downed")
			c.Transport().SetUp("r1", true)

			full.Store(true)
			phantom := NewOp("credit", "k", 1)
			phantom.ID = "phantom"
			res, err := c.Submit(context.Background(), 1, phantom)
			if err != nil || res.Accepted || res.Reason != ReasonDegraded {
				t.Fatalf("submit on full disk = %+v err=%v, want a ReasonDegraded decline", res, err)
			}
			if !r1.Degraded() || r1.OpCount() != 7 {
				t.Fatalf("degraded=%v holding %d ops, want degraded holding 7 (the declined op in RAM)", r1.Degraded(), r1.OpCount())
			}
			if err := c.Recover(context.Background(), 1); err == nil {
				t.Fatal("Recover reopened a store on a disk still full")
			}
			if _, ok := r1.StoreStats(); ok {
				t.Fatal("a failed Recover left a store open")
			}

			full.Store(false)
			if tc.down {
				c.Transport().SetUp("r1", false)
			}
			before := opens.Load()
			if err := c.Recover(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			if _, ok := r1.StoreStats(); !ok || opens.Load() != before+1 {
				t.Fatalf("after Recover: store attached %v, %d stores opened; want one", ok, opens.Load()-before)
			}
			if r1.Degraded() || r1.node.Crashed() {
				t.Fatalf("after Recover: degraded %v, down %v; want neither", r1.Degraded(), r1.node.Crashed())
			}
			convergeSim(t, s, c)
			for i := 0; i < 3; i++ {
				if n := c.Replica(i).OpCount(); n != 6 {
					t.Fatalf("r%d holds %d ops after Recover, want the 6 accepted", i, n)
				}
				if c.Replica(i).Ops().Contains(phantom.ID) {
					t.Fatalf("r%d holds the op the failed commit declined", i)
				}
			}
		})
	}
}

// TestUnknownStoreErrorStillFailsFast: only recoverable disk errors
// degrade; damage this code cannot classify keeps the old §2.2
// discipline — crash, wiping the phantoms.
func TestUnknownStoreErrorStillFailsFast(t *testing.T) {
	var broken atomic.Bool
	dir := t.TempDir()
	s := sim.New(11)
	c := New[counterState](counterApp{}, nil,
		WithTransport(rpc.NewSimTransport(s)), WithReplicas(3), WithDurability(dir),
		WithStoreFS(replicaFS("r1", &broken, errors.New("firmware exploded"))))
	defer c.Close()
	mustSubmit(t, c, 1, NewOp("credit", "k", 1))

	broken.Store(true)
	res, err := c.Submit(context.Background(), 1, NewOp("credit", "k", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Retryable || res.Reason == ReasonDegraded {
		t.Fatalf("unclassifiable failure = %+v, want a non-retryable crash decline", res)
	}
	r1 := c.Replica(1)
	if r1.Degraded() {
		t.Fatal("unclassifiable failure degraded instead of failing fast")
	}
	if !r1.node.Crashed() {
		t.Fatal("unclassifiable failure did not crash the replica")
	}
}

// TestDegradedLiveReprobeRejoins: on the live transport a degraded
// replica re-probes its store with backoff and recovers by itself once
// the disk heals — no operator Recover call. Its /sim twin pins the
// backoff on virtual time.
func TestDegradedLiveReprobeRejoins(t *testing.T) {
	t.Run("sim", testDegradedSimReprobeRejoins)
	var full atomic.Bool
	dir := t.TempDir()
	c := New[counterState](counterApp{}, nil,
		WithReplicas(3), WithDurability(dir),
		WithStoreFS(replicaFS("r1", &full, syscall.ENOSPC)))
	defer c.Close()
	mustSubmit(t, c, 1, NewOp("credit", "k", 1))

	full.Store(true)
	res, err := c.Submit(context.Background(), 1, NewOp("credit", "k", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("submit on a full disk was accepted")
	}
	if !res.Retryable || res.Reason != ReasonDegraded {
		t.Fatalf("decline = %+v, want retryable ReasonDegraded", res)
	}

	full.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err = c.Submit(context.Background(), 1, NewOp("credit", "k", 1))
		if err == nil && res.Accepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never recovered: last result %+v err=%v", res, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if c.Replica(1).Degraded() {
		t.Fatal("replica accepted a write while still flagged degraded")
	}
}

// testDegradedSimReprobeRejoins: the re-probe runs on the simulator's
// clock too. Its steps come 100 ms, 200 ms, 400 ms and 800 ms apart, so
// a disk that heals one second after the failure is found at 1.5 s, and
// not before.
func testDegradedSimReprobeRejoins(t *testing.T) {
	var full atomic.Bool
	s := sim.New(13)
	c := New[counterState](counterApp{}, nil,
		WithTransport(rpc.NewSimTransport(s)), WithReplicas(3), WithDurability(t.TempDir()),
		WithStoreFS(replicaFS("r1", &full, syscall.ENOSPC)))
	defer c.Close()
	mustSubmit(t, c, 1, NewOp("credit", "k", 1))

	full.Store(true)
	res, err := c.Submit(context.Background(), 1, NewOp("credit", "k", 1))
	if err != nil || res.Accepted || res.Reason != ReasonDegraded || !res.Retryable {
		t.Fatalf("submit on a full disk = %+v, %v; want the retryable degraded decline", res, err)
	}
	r1, failed := c.Replica(1), s.Now()
	s.RunUntil(failed + time.Second)
	full.Store(false)
	s.RunUntil(failed + 1499*time.Millisecond)
	if !r1.Degraded() {
		t.Fatal("recovered before the re-probe step at 1.5 s")
	}
	s.RunUntil(failed + 1500*time.Millisecond)
	if r1.Degraded() {
		t.Fatal("the re-probe step at 1.5 s did not recover the healed replica")
	}
	if r1.reprobes.Load() != 0 {
		t.Fatal("the re-probe outlived the degraded life")
	}
	mustSubmit(t, c, 1, NewOp("credit", "k", 1))
}
