package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/uniq"
)

// durableCluster builds a 3-replica simulated cluster with a disk store
// under a test temp dir.
func durableCluster(t *testing.T, seed int64, opts ...Option) (*sim.Sim, *Cluster[counterState], string) {
	t.Helper()
	dir := t.TempDir()
	s := sim.New(seed)
	all := append([]Option{WithSim(s), WithReplicas(3), WithDurability(dir)}, opts...)
	c := New[counterState](counterApp{}, nil, all...)
	return s, c, dir
}

func convergeSim(t *testing.T, s *sim.Sim, c *Cluster[counterState]) {
	t.Helper()
	s.Run()
	for i := 0; i < 64 && !c.Converged(); i++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("cluster did not converge")
	}
}

func mustSubmit(t *testing.T, c *Cluster[counterState], rep int, op Op) {
	t.Helper()
	res, err := c.Submit(context.Background(), rep, op)
	if err != nil || !res.Accepted {
		t.Fatalf("submit %v at r%d: accepted=%v err=%v reason=%q", op, rep, res.Accepted, err, res.Reason)
	}
}

// TestKillDropsAllState: a killed replica is empty — unlike SetUp(false),
// which merely silences a node whose RAM survives.
func TestKillDropsAllState(t *testing.T) {
	s, c, _ := durableCluster(t, 41)
	for i := 0; i < 10; i++ {
		mustSubmit(t, c, i%3, NewOp("credit", "k", 1))
	}
	convergeSim(t, s, c)
	if n := c.Replica(1).OpCount(); n != 10 {
		t.Fatalf("pre-kill ops = %d", n)
	}
	c.Kill(1)
	if n := c.Replica(1).OpCount(); n != 0 {
		t.Fatalf("killed replica still holds %d ops in RAM", n)
	}
	if len(c.Replica(1).State()) != 0 {
		t.Fatal("killed replica still derives state")
	}
	if c.Replica(1).Ledger.Len() != 0 {
		t.Fatal("killed replica still remembers its ledger")
	}
	// Submits to the corpse are declined.
	res, err := c.Submit(context.Background(), 1, NewOp("credit", "k", 1))
	if err != nil || res.Accepted {
		t.Fatalf("dead replica accepted a submit: %+v err=%v", res, err)
	}
}

// TestKillRecoverFromDiskOnly: recovery rebuilds the full operation set,
// Lamport clock, and derived state from the store alone — before any
// gossip runs.
func TestKillRecoverFromDiskOnly(t *testing.T) {
	s, c, _ := durableCluster(t, 42, WithSnapshotEvery(8))
	for i := 0; i < 30; i++ {
		mustSubmit(t, c, i%3, NewOp("credit", fmt.Sprintf("k%d", i%5), 1))
	}
	convergeSim(t, s, c)
	want := c.Replica(1).State()
	wantOps := c.Replica(1).OpCount()
	wantLam := c.Replica(1).ops.MaxLam()

	c.Kill(1)
	if err := c.Recover(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	r1 := c.Replica(1)
	if got := r1.OpCount(); got != wantOps {
		t.Fatalf("recovered %d ops, want %d", got, wantOps)
	}
	if got := r1.ops.MaxLam(); got != wantLam {
		t.Fatalf("recovered Lamport %d, want %d", got, wantLam)
	}
	for k, v := range want {
		if got := r1.State()[k]; got != v {
			t.Fatalf("recovered state[%s] = %d, want %d", k, got, v)
		}
	}
	// And the recovered replica keeps serving.
	mustSubmit(t, c, 1, NewOp("credit", "post", 7))
	convergeSim(t, s, c)
}

// TestKillRecoverMatchesControl is the acceptance differential: kill a
// replica mid-workload, recover it from disk only, and every replica's
// per-key state must exactly match a never-crashed control run of the
// same schedule — on both transports.
func TestKillRecoverMatchesControl(t *testing.T) {
	type arm struct {
		name  string
		crash bool
	}
	run := func(t *testing.T, live bool, crash bool) counterState {
		dir := t.TempDir()
		var c *Cluster[counterState]
		var s *sim.Sim
		if live {
			c = New[counterState](counterApp{}, nil, WithReplicas(3), WithDurability(dir))
		} else {
			s = sim.New(77)
			c = New[counterState](counterApp{}, nil, WithSim(s), WithReplicas(3), WithDurability(dir), WithSnapshotEvery(16))
		}
		defer c.Close()
		converge := func() {
			t.Helper()
			if s != nil {
				convergeSim(t, s, c)
				return
			}
			deadline := time.Now().Add(20 * time.Second)
			for !c.Converged() && time.Now().Before(deadline) {
				c.GossipRound()
				time.Sleep(time.Millisecond)
			}
			if !c.Converged() {
				t.Fatal("live cluster did not converge")
			}
		}
		// Phase 1: everyone ingests; converge so the victim holds nothing
		// unique in RAM beyond what is on its disk and its peers.
		for i := 0; i < 40; i++ {
			op := NewOp("credit", fmt.Sprintf("k%02d", i%7), int64(i))
			op.ID = uniq.ID(fmt.Sprintf("p1-%03d", i)) // same IDs in both arms
			mustSubmit(t, c, i%3, op)
		}
		converge()
		if crash {
			c.Kill(1)
		}
		// Phase 2: the survivors keep working — the same schedule in both
		// arms, routed only at replicas 0 and 2.
		for i := 0; i < 40; i++ {
			op := NewOp("debit", fmt.Sprintf("k%02d", i%7), 1)
			op.ID = uniq.ID(fmt.Sprintf("p2-%03d", i))
			mustSubmit(t, c, (i%2)*2, op)
		}
		if crash {
			if err := c.Recover(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
		}
		converge()
		// Every replica agrees; return replica 1's view — the recovered
		// one in the crash arm.
		return c.Replica(1).State()
	}
	for _, transport := range []string{"sim", "live"} {
		t.Run(transport, func(t *testing.T) {
			live := transport == "live"
			control := run(t, live, false)
			crashed := run(t, live, true)
			if len(control) != len(crashed) {
				t.Fatalf("key counts differ: control %d, crashed %d", len(control), len(crashed))
			}
			for k, v := range control {
				if crashed[k] != v {
					t.Fatalf("state[%s]: control %d, crashed-and-recovered %d", k, v, crashed[k])
				}
			}
		})
	}
}

// TestShardedRecoveryIsolated: killing and recovering one shard's
// replica neither stalls nor touches the other shards.
func TestShardedRecoveryIsolated(t *testing.T) {
	dir := t.TempDir()
	s := sim.New(9)
	c := New[counterState](counterApp{}, nil,
		WithSim(s), WithReplicas(3), WithShards(4), WithDurability(dir))
	ctx := context.Background()
	// Find keys living on two different shards.
	var hot, cold string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if hot == "" {
			hot = k
			continue
		}
		if c.ShardOf(k) != c.ShardOf(hot) {
			cold = k
			break
		}
	}
	victim := c.ShardOf(hot)
	for i := 0; i < 12; i++ {
		mustSubmit(t, c, i%3, NewOp("credit", hot, 1))
		mustSubmit(t, c, i%3, NewOp("credit", cold, 1))
	}
	s.Run()
	for i := 0; i < 64 && !c.Converged(); i++ {
		c.GossipRound()
		s.Run()
	}
	otherOps := c.ShardReplica(c.ShardOf(cold), 1).OpCount()

	c.ShardKill(victim, 1)
	// The victim's shard survives on its other replicas...
	if res, err := c.Submit(ctx, 0, NewOp("credit", hot, 1)); err != nil || !res.Accepted {
		t.Fatalf("victim shard's live replica refused work: %+v err=%v", res, err)
	}
	// ...and other shards are untouched: same ops, still serving.
	if res, err := c.Submit(ctx, 1, NewOp("credit", cold, 1)); err != nil || !res.Accepted {
		t.Fatalf("unrelated shard refused work: %+v err=%v", res, err)
	}
	if got := c.ShardReplica(c.ShardOf(cold), 1).OpCount(); got != otherOps+1 {
		t.Fatalf("unrelated shard op count moved unexpectedly: %d -> %d", otherOps, got)
	}
	if err := c.ShardRecover(ctx, victim, 1); err != nil {
		t.Fatal(err)
	}
	s.Run()
	for i := 0; i < 64 && !c.Converged(); i++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("sharded cluster did not converge after per-shard recovery")
	}
	for sh := 0; sh < 4; sh++ {
		if !c.ShardConverged(sh) {
			t.Fatalf("shard %d not converged", sh)
		}
	}
}

// TestColdRestart: Close a durable cluster, build a brand-new one on the
// same directory, and every replica resumes with the full state before
// any gossip runs.
func TestColdRestart(t *testing.T) {
	dir := t.TempDir()
	s := sim.New(11)
	c := New[counterState](counterApp{}, nil,
		WithSim(s), WithReplicas(3), WithDurability(dir), WithSnapshotEvery(8))
	for i := 0; i < 25; i++ {
		mustSubmit(t, c, i%3, NewOp("credit", fmt.Sprintf("k%d", i%4), 2))
	}
	convergeSim(t, s, c)
	want := c.Replica(0).State()
	wantOps := c.Replica(0).OpCount()
	c.Close()

	s2 := sim.New(12)
	c2 := New[counterState](counterApp{}, nil,
		WithSim(s2), WithReplicas(3), WithDurability(dir), WithSnapshotEvery(8))
	defer c2.Close()
	for i := 0; i < 3; i++ {
		rep := c2.Replica(i)
		if got := rep.OpCount(); got != wantOps {
			t.Fatalf("r%d cold-started with %d ops, want %d", i, got, wantOps)
		}
		state := rep.State()
		for k, v := range want {
			if state[k] != v {
				t.Fatalf("r%d state[%s] = %d, want %d", i, k, state[k], v)
			}
		}
	}
	if !c2.Converged() {
		t.Fatal("cold-started cluster should already be converged")
	}
	// And it keeps accepting work as new work: fresh Lamport stamps past
	// the old ones, and a fresh ID — one an earlier life minted would be
	// answered as a duplicate and the deposit silently dropped.
	r0 := c2.Replica(0)
	before := r0.State()["k0"]
	mustSubmit(t, c2, 0, NewOp("credit", "k0", 1))
	if got := r0.OpCount(); got != wantOps+1 {
		t.Fatalf("after one more guess r0 holds %d ops, want %d", got, wantOps+1)
	}
	if got := r0.State()["k0"]; got != before+1 {
		t.Fatalf("state[k0] = %d after crediting 1 to %d: the guess was taken for a duplicate", got, before)
	}
	convergeSim(t, s2, c2)
}

// TestColdRestartNeverReusesAnIDPeersHold: a coordinated op reaches its
// peer but not the origin's disk (the origin's fsyncs lie, so a crash
// loses what they claimed), and the origin cold-restarts. Its next guess
// must get an ID the lost op did not have: with the counter restarted at
// zero the peer would keep the lost op under that ID and the origin the
// new one, and the two replicas would never converge.
func TestColdRestartNeverReusesAnIDPeersHold(t *testing.T) {
	dir := t.TempDir()
	var lying atomic.Bool
	marker := string(os.PathSeparator) + "r0" + string(os.PathSeparator)
	inj := faultfs.New(faultfs.OS, 1, func(op faultfs.Op) faultfs.Decision {
		return faultfs.Decision{LieSync: lying.Load() && op.Kind == faultfs.OpSync && strings.Contains(op.Path, marker)}
	})
	s := sim.New(31)
	c := New[counterState](counterApp{}, nil, WithSim(s), WithReplicas(2), WithDurability(dir), WithStoreFS(inj))
	lying.Store(true)
	res, err := c.Submit(context.Background(), 0, NewOp("credit", "k", 5), WithPolicy(policy.AlwaysSync()))
	if err != nil || !res.Accepted {
		t.Fatalf("coordinated submit: %+v, %v", res, err)
	}
	lost := res.Op.ID
	if c.Replica(1).OpCount() != 1 {
		t.Fatal("the coordinated op did not reach the peer")
	}
	c.Kill(0)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inj.Tear(); err != nil {
		t.Fatal(err)
	}

	s2 := sim.New(32)
	c2 := New[counterState](counterApp{}, nil, WithSim(s2), WithReplicas(2), WithDurability(dir))
	defer c2.Close()
	if n := c2.Replica(0).OpCount(); n != 0 {
		t.Fatalf("r0 recovered %d ops; its lying disk should have lost the coordinated one", n)
	}
	res, err = c2.Submit(context.Background(), 0, NewOp("credit", "k", 7))
	if err != nil || !res.Accepted {
		t.Fatalf("guess after the restart: %+v, %v", res, err)
	}
	if res.Op.ID == lost {
		t.Fatalf("the restarted origin reissued %s, which its peer holds for another op", lost)
	}
	convergeSim(t, s2, c2)
	for i := 0; i < 2; i++ {
		if got := c2.Replica(i).State()["k"]; got != 12 {
			t.Fatalf("r%d state[k] = %d, want 12 (both ops)", i, got)
		}
	}
}

// TestColdRestartTornTail: a crash can tear the final journal record;
// the next cold start truncates it and recovers everything before it.
func TestColdRestartTornTail(t *testing.T) {
	dir := t.TempDir()
	s := sim.New(13)
	c := New[counterState](counterApp{}, nil, WithSim(s), WithReplicas(1), WithDurability(dir))
	for i := 0; i < 5; i++ {
		mustSubmit(t, c, 0, NewOp("credit", "k", 1))
	}
	c.Close()
	seg := filepath.Join(dir, "r0", "journal-0000000000.seg")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	s2 := sim.New(14)
	c2 := New[counterState](counterApp{}, nil, WithSim(s2), WithReplicas(1), WithDurability(dir))
	defer c2.Close()
	if got := c2.Replica(0).OpCount(); got != 4 {
		t.Fatalf("recovered %d ops from a torn journal, want 4", got)
	}
	if st := c2.DurabilityStats(); st.TornBytes == 0 {
		t.Fatal("torn bytes not reported")
	}
}

// TestRecoverErrors pins the misuse cases.
func TestRecoverErrors(t *testing.T) {
	ctx := context.Background()
	// No durability configured.
	s, c := newTestCluster(15, 2)
	_ = s
	c.Kill(1)
	if err := c.Recover(ctx, 1); err == nil {
		t.Fatal("Recover without WithDurability must fail")
	}
	// Alive replica.
	_, c2, _ := durableCluster(t, 16)
	if err := c2.Recover(ctx, 0); err == nil {
		t.Fatal("Recover of a live replica must fail")
	}
	c2.Close()
}

// TestDurableSnapshotsCompactJournal: with gossip acks flowing and a
// tight snapshot cadence, old journal segments are actually deleted,
// and a cold restart still reconstructs everything.
func TestDurableSnapshotsCompactJournal(t *testing.T) {
	dir := t.TempDir()
	s := sim.New(17)
	c := New[counterState](counterApp{}, nil,
		WithSim(s), WithReplicas(3), WithDurability(dir), WithSnapshotEvery(16))
	for i := 0; i < 120; i++ {
		mustSubmit(t, c, i%3, NewOp("credit", fmt.Sprintf("k%d", i%3), 1))
		if i%10 == 9 {
			c.GossipRound()
			s.Run()
		}
	}
	convergeSim(t, s, c)
	if st := c.DurabilityStats(); st.Snapshots == 0 {
		t.Fatalf("no snapshots written: %+v", st)
	}
	wantOps := c.Replica(0).OpCount()
	c.Close()
	s2 := sim.New(18)
	c2 := New[counterState](counterApp{}, nil,
		WithSim(s2), WithReplicas(3), WithDurability(dir), WithSnapshotEvery(16))
	defer c2.Close()
	for i := 0; i < 3; i++ {
		if got := c2.Replica(i).OpCount(); got != wantOps {
			t.Fatalf("r%d recovered %d of %d ops after compaction", i, got, wantOps)
		}
	}
}

// TestSetUpChurnRace is the -race workout for LiveTransport.SetUp
// flipping concurrently with gossip and in-flight submits: a
// crash/restart churn loop must neither race nor wedge the cluster.
func TestSetUpChurnRace(t *testing.T) {
	c := New[counterState](counterApp{}, nil,
		WithReplicas(3), WithGossipEvery(500*time.Microsecond))
	defer c.Close()
	tr := c.Transport()
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rep := (w + i) % 3
				res, err := c.Submit(ctx, rep, NewOp("credit", fmt.Sprintf("k%d", i%5), 1))
				if err == nil && res.Accepted {
					accepted.Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < 60; i++ {
		tr.SetUp("r1", i%2 == 0)
		time.Sleep(2 * time.Millisecond)
	}
	tr.SetUp("r1", true)
	close(stop)
	wg.Wait()
	if accepted.Load() == 0 {
		t.Fatal("no submits accepted under churn")
	}
	// Generous: under -race on a loaded CI box, gossip rounds crawl.
	deadline := time.Now().Add(30 * time.Second)
	for !c.Converged() && time.Now().Before(deadline) {
		c.GossipRound()
		time.Sleep(time.Millisecond)
	}
	if !c.Converged() {
		t.Fatal("cluster did not converge after SetUp churn")
	}
}

// TestKillRecoverChurn hammers the full crash lifecycle on the live
// transport: replica 1 is repeatedly hard-killed and recovered from
// disk while submitters drive all three replicas. The invariant under
// test is the durability contract itself — no operation whose submit
// was acknowledged may be missing from the converged cluster.
func TestKillRecoverChurn(t *testing.T) {
	dir := t.TempDir()
	c := New[counterState](counterApp{}, nil,
		WithReplicas(3), WithDurability(dir),
		WithSnapshotEvery(64), WithGossipEvery(time.Millisecond))
	defer c.Close()
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := make(map[uniq.ID]bool)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op := NewOp("credit", fmt.Sprintf("k%d", i%5), 1)
				op.ID = uniq.ID(fmt.Sprintf("w%d-%06d", w, i))
				res, err := c.Submit(ctx, (w+i)%3, op)
				if err == nil && res.Accepted {
					mu.Lock()
					acked[op.ID] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	for i := 0; i < 8; i++ {
		time.Sleep(5 * time.Millisecond)
		c.Kill(1)
		time.Sleep(2 * time.Millisecond)
		if err := c.Recover(ctx, 1); err != nil {
			t.Errorf("recover #%d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for !c.Converged() && time.Now().Before(deadline) {
		c.GossipRound()
		time.Sleep(time.Millisecond)
	}
	if !c.Converged() {
		t.Fatal("cluster did not converge after kill/recover churn")
	}
	ops := c.Replica(0).Ops()
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no submits acknowledged under churn")
	}
	for id := range acked {
		if !ops.Contains(id) {
			t.Fatalf("acknowledged op %s lost across kill/recover churn (%d acked, %d present)",
				id, len(acked), ops.Len())
		}
	}
}

// TestGroupCommitAmortizes pins the durable throughput claim: a bulk
// ingest over the group-committing store must complete with far fewer
// fsyncs than operations — staging is microseconds while an fsync is
// not, so the bus fills while the disk is busy. (One fsync per op is
// exactly what store.ModeEveryOp pays.)
func TestGroupCommitAmortizes(t *testing.T) {
	const n = 2000
	c := New[counterState](counterApp{}, nil,
		WithReplicas(1), WithDurability(t.TempDir()))
	defer c.Close()
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = NewOp("credit", fmt.Sprintf("k%d", i%8), 1)
	}
	results, err := c.SubmitBatch(context.Background(), 0, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Accepted {
			t.Fatalf("op %d declined: %s", i, r.Reason)
		}
	}
	st := c.DurabilityStats()
	if st.Appended != n {
		t.Fatalf("journaled %d of %d entries", st.Appended, n)
	}
	if st.Fsyncs == 0 || st.Fsyncs > n/10 {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d ops (want ≤ %d)", st.Fsyncs, n, n/10)
	}
}
