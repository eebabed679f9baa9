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
// the published fold snapshot, gossip pauses — and Rejoin brings it
// back once the disk heals, with no accepted operation lost.
func TestDegradedReadOnlyMode(t *testing.T) {
	var full atomic.Bool
	dir := t.TempDir()
	s := sim.New(7)
	c := New[counterState](counterApp{}, nil,
		WithSim(s), WithReplicas(3), WithDurability(dir),
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
	// push phantoms into (or out of) the degraded replica.
	mustSubmit(t, c, 0, NewOp("credit", "k", 1))
	c.GossipRound()
	s.Run()

	full.Store(false)
	if err := c.Rejoin(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if r1.Degraded() {
		t.Fatal("replica still degraded after Rejoin")
	}
	if _, deg := c.ShardDegraded(0); deg {
		t.Fatal("shard still reports degraded after Rejoin")
	}
	mustSubmit(t, c, 1, NewOp("credit", "k", 1))
	convergeSim(t, s, c)
	// 6 pre-fault + 1 at r0 during degradation + 1 post-rejoin; the two
	// declined phantoms must be gone everywhere.
	if n := r1.OpCount(); n != 8 {
		t.Fatalf("ops after rejoin = %d, want 8", n)
	}
	if got := r1.State()["k"]; got != 8 {
		t.Fatalf("state after rejoin = %d, want 8", got)
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
		WithSim(s), WithReplicas(3), WithDurability(dir),
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
// replica re-probes its store with backoff and rejoins by itself once
// the disk heals — no operator Rejoin call.
func TestDegradedLiveReprobeRejoins(t *testing.T) {
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
			t.Fatalf("replica never rejoined: last result %+v err=%v", res, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if c.Replica(1).Degraded() {
		t.Fatal("replica accepted a write while still flagged degraded")
	}
}
