package quicksand_test

// The API-level suite for the public quicksand surface. Every shared test
// runs twice — once on the deterministic SimTransport and once on the
// live goroutine transport — proving the same cluster code behaves
// identically across the transport seam. Transport-specific behaviour
// (virtual-time cancellation, wall-clock deadlines, stall detection) is
// tested per transport below.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	quicksand "repro"
	"repro/internal/oplog"
)

// harness abstracts what the shared suite needs from a transport: build a
// cluster, let in-flight work finish, and drive gossip to convergence.
type harness struct {
	name       string
	newCluster func(t *testing.T, opts ...quicksand.Option) (*quicksand.Cluster[balances], *driver)
}

type driver struct {
	transport quicksand.Transport
	settle    func()                                             // let in-flight work finish
	converge  func(t *testing.T, c *quicksand.Cluster[balances]) // gossip until converged
}

func harnesses() []harness {
	return []harness{
		{
			name: "sim",
			newCluster: func(t *testing.T, opts ...quicksand.Option) (*quicksand.Cluster[balances], *driver) {
				s := quicksand.NewSim(1)
				tr := quicksand.NewSimTransport(s)
				c := quicksand.New[balances](exampleApp{}, []quicksand.Rule[balances]{noOverdraft()},
					append([]quicksand.Option{quicksand.WithTransport(tr)}, opts...)...)
				return c, &driver{
					transport: tr,
					settle:    s.Run,
					converge: func(t *testing.T, c *quicksand.Cluster[balances]) {
						t.Helper()
						s.Run()
						for i := 0; i < 2*c.Replicas() && !c.Converged(); i++ {
							c.GossipRound()
							s.Run()
						}
						if !c.Converged() {
							t.Fatal("sim cluster did not converge")
						}
					},
				}
			},
		},
		{
			name: "live",
			newCluster: func(t *testing.T, opts ...quicksand.Option) (*quicksand.Cluster[balances], *driver) {
				tr := quicksand.NewLiveTransport()
				c := quicksand.New[balances](exampleApp{}, []quicksand.Rule[balances]{noOverdraft()},
					append([]quicksand.Option{quicksand.WithTransport(tr)}, opts...)...)
				return c, &driver{
					transport: tr,
					settle:    func() { time.Sleep(20 * time.Millisecond) },
					converge: func(t *testing.T, c *quicksand.Cluster[balances]) {
						t.Helper()
						deadline := time.Now().Add(5 * time.Second)
						for !c.Converged() {
							if time.Now().After(deadline) {
								t.Fatal("live cluster did not converge")
							}
							c.GossipRound()
							time.Sleep(2 * time.Millisecond)
						}
					},
				}
			},
		},
	}
}

func forEachTransport(t *testing.T, fn func(t *testing.T, h harness)) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) { fn(t, h) })
	}
}

func TestOptionDefaults(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, _ := h.newCluster(t)
		if got := c.Replicas(); got != 3 {
			t.Fatalf("default replicas = %d, want 3", got)
		}
		if got := c.CallTimeout(); got != 100*time.Millisecond {
			t.Fatalf("default call timeout = %v, want 100ms", got)
		}
		// A call that expired at once would decline every coordinated
		// submit: a timeout of 0 or less keeps the default.
		for _, d := range []time.Duration{0, -time.Second} {
			c, _ := h.newCluster(t, quicksand.WithCallTimeout(d))
			if got := c.CallTimeout(); got != 100*time.Millisecond {
				t.Fatalf("call timeout %v = %v, want the 100ms default", d, got)
			}
			res, err := c.Submit(context.Background(), 0, quicksand.NewOp("deposit", "acct", 1), quicksand.WithPolicy(quicksand.AlwaysSync()))
			if err != nil || !res.Accepted {
				t.Fatalf("coordinated submit with call timeout %v = %+v, %v", d, res, err)
			}
		}
		// The default risk policy is AlwaysAsync: a submit with no options
		// takes the guess path.
		res, err := c.Submit(context.Background(), 0, quicksand.NewOp("deposit", "acct", 100))
		if err != nil || !res.Accepted {
			t.Fatalf("default submit = %+v, %v", res, err)
		}
		if res.Decision != quicksand.Async {
			t.Fatalf("default decision = %v, want async", res.Decision)
		}
	})
}

func TestOptionsOverrideDefaults(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, _ := h.newCluster(t,
			quicksand.WithReplicas(5),
			quicksand.WithCallTimeout(250*time.Millisecond),
			quicksand.WithDefaultPolicy(quicksand.AlwaysSync()))
		if got := c.Replicas(); got != 5 {
			t.Fatalf("replicas = %d, want 5", got)
		}
		if got := c.CallTimeout(); got != 250*time.Millisecond {
			t.Fatalf("call timeout = %v, want 250ms", got)
		}
		res, err := c.Submit(context.Background(), 0, quicksand.NewOp("deposit", "acct", 100))
		if err != nil || !res.Accepted {
			t.Fatalf("submit = %+v, %v", res, err)
		}
		if res.Decision != quicksand.Sync {
			t.Fatalf("decision = %v, want sync (WithDefaultPolicy)", res.Decision)
		}
	})
}

func TestSubmitIdempotentReaccept(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, _ := h.newCluster(t)
		ctx := context.Background()
		op := quicksand.NewOp("deposit", "acct", 10)
		op.ID = quicksand.OpID("check-42")
		first, err := c.Submit(ctx, 0, op)
		if err != nil || !first.Accepted {
			t.Fatalf("first = %+v, %v", first, err)
		}
		// The same uniquified op presented again (a client retry) must be
		// accepted without double-applying.
		second, err := c.Submit(ctx, 0, op)
		if err != nil || !second.Accepted {
			t.Fatalf("second = %+v, %v", second, err)
		}
		if n := c.Replica(0).OpCount(); n != 1 {
			t.Fatalf("op recorded %d times", n)
		}
		if bal := c.Replica(0).State()["acct"]; bal != 10 {
			t.Fatalf("balance = %d, double-applied", bal)
		}
	})
}

func TestSubmitBatchOrdering(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, _ := h.newCluster(t)
		const n = 10
		ops := make([]quicksand.Op, n)
		var want int64
		for i := range ops {
			ops[i] = quicksand.NewOp("deposit", "acct", int64(i+1))
			ops[i].ID = quicksand.OpID(fmt.Sprintf("batch-%03d", i))
			want += int64(i + 1)
		}
		results, err := c.SubmitBatch(context.Background(), 0, ops)
		if err != nil {
			t.Fatalf("batch error: %v", err)
		}
		if len(results) != n {
			t.Fatalf("got %d results, want %d", len(results), n)
		}
		for i, res := range results {
			if !res.Accepted {
				t.Fatalf("op %d declined: %s", i, res.Reason)
			}
			if res.Op.ID != ops[i].ID {
				t.Fatalf("result %d carries op %q, want %q — ordering lost", i, res.Op.ID, ops[i].ID)
			}
		}
		if bal := c.Replica(0).State()["acct"]; bal != want {
			t.Fatalf("balance = %d, want %d", bal, want)
		}
	})
}

func TestSyncSubmitReachesAllReplicas(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, d := h.newCluster(t)
		res, err := c.Submit(context.Background(), 0, quicksand.NewOp("deposit", "acct", 100),
			quicksand.WithPolicy(quicksand.AlwaysSync()))
		if err != nil || !res.Accepted {
			t.Fatalf("sync submit = %+v, %v", res, err)
		}
		d.settle()
		for i := 0; i < c.Replicas(); i++ {
			if bal := c.Replica(i).State()["acct"]; bal != 100 {
				t.Fatalf("replica %d balance = %d, want 100", i, bal)
			}
		}
	})
}

func TestSyncSubmitConservativeWhenReplicaDown(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, d := h.newCluster(t, quicksand.WithCallTimeout(30*time.Millisecond))
		d.transport.SetUp("r2", false)
		res, err := c.Submit(context.Background(), 0, quicksand.NewOp("deposit", "acct", 100),
			quicksand.WithPolicy(quicksand.AlwaysSync()))
		if err != nil {
			t.Fatalf("submit error: %v", err)
		}
		if res.Accepted {
			t.Fatal("sync submit succeeded with a replica down; must be conservative")
		}
		// The async path keeps working — availability vs consistency.
		res, err = c.Submit(context.Background(), 0, quicksand.NewOp("deposit", "acct", 100))
		if err != nil || !res.Accepted {
			t.Fatalf("async submit must survive a down peer: %+v, %v", res, err)
		}
	})
}

func TestGossipConvergesAcrossReplicas(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, d := h.newCluster(t)
		ctx := context.Background()
		var want int64
		for i := 0; i < c.Replicas(); i++ {
			arg := int64(10 * (i + 1))
			want += arg
			res, err := c.Submit(ctx, i, quicksand.NewOp("deposit", "acct", arg))
			if err != nil || !res.Accepted {
				t.Fatalf("submit at r%d = %+v, %v", i, res, err)
			}
		}
		d.converge(t, c)
		for i, st := range c.States() {
			if st["acct"] != want {
				t.Fatalf("replica %d balance = %d, want %d", i, st["acct"], want)
			}
		}
	})
}

func TestSubmitAtUnknownReplicaErrors(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, _ := h.newCluster(t)
		if _, err := c.Submit(context.Background(), 7, quicksand.NewOp("deposit", "acct", 1)); err == nil {
			t.Fatal("submit at unknown replica must error")
		}
		if _, err := c.SubmitBatch(context.Background(), -1, []quicksand.Op{quicksand.NewOp("d", "k", 1)}); err == nil {
			t.Fatal("batch at unknown replica must error")
		}
	})
}

func TestSubmitCancelledBeforeDispatch(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, _ := h.newCluster(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := c.Submit(ctx, 0, quicksand.NewOp("deposit", "acct", 1)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := c.Replica(0).OpCount(); n != 0 {
			t.Fatalf("cancelled submit recorded %d ops", n)
		}
	})
}

// TestSimSubmitCancelledMidSync cancels a context from a simulated event
// while a coordinated submit is waiting on an unreachable peer: the
// blocking Submit must return the cancellation at the exact virtual time,
// long before the 100ms call timeout would have resolved it.
func TestSimSubmitCancelledMidSync(t *testing.T) {
	s := quicksand.NewSim(7)
	tr := quicksand.NewSimTransport(s)
	c := quicksand.New[balances](exampleApp{}, nil,
		quicksand.WithTransport(tr), quicksand.WithReplicas(2))
	tr.SetUp("r1", false)
	ctx, cancel := context.WithCancel(context.Background())
	s.After(10*time.Millisecond, cancel)
	_, err := c.Submit(ctx, 0, quicksand.NewOp("deposit", "acct", 1),
		quicksand.WithPolicy(quicksand.AlwaysSync()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if now := s.Now(); now != 10*time.Millisecond {
		t.Fatalf("cancellation observed at %v, want exactly 10ms of virtual time", now)
	}
}

// TestLiveSubmitCancelledMidSync is the wall-clock twin: a coordinated
// submit against a crashed peer blocks until its deadline fires, well
// before the 500ms call timeout.
func TestLiveSubmitCancelledMidSync(t *testing.T) {
	tr := quicksand.NewLiveTransport()
	c := quicksand.New[balances](exampleApp{}, nil,
		quicksand.WithTransport(tr), quicksand.WithReplicas(2),
		quicksand.WithCallTimeout(500*time.Millisecond))
	tr.SetUp("r1", false)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, 0, quicksand.NewOp("deposit", "acct", 1),
		quicksand.WithPolicy(quicksand.AlwaysSync()))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed >= 400*time.Millisecond {
		t.Fatalf("cancellation took %v; the call timeout resolved first", elapsed)
	}
}

// TestSimAwaitStalls proves the simulator reports a submit that can never
// resolve instead of spinning: an empty event queue with the result still
// pending is ErrStalled.
func TestSimAwaitStalls(t *testing.T) {
	tr := quicksand.NewSimTransport(quicksand.NewSim(1))
	err := tr.Await(context.Background(), make(chan struct{}))
	if !errors.Is(err, quicksand.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

// TestSimBackgroundGossip exercises WithGossipEvery on virtual time.
func TestSimBackgroundGossip(t *testing.T) {
	s := quicksand.NewSim(3)
	c := quicksand.New[balances](exampleApp{}, nil,
		quicksand.WithTransport(quicksand.NewSimTransport(s)), quicksand.WithGossipEvery(5*time.Millisecond))
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < c.Replicas(); i++ {
		if _, err := c.Submit(ctx, i, quicksand.NewOp("deposit", "acct", 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(100 * time.Millisecond)
	if !c.Converged() {
		t.Fatal("background gossip did not converge within 100ms of virtual time")
	}
	c.Close()
	s.Run() // queue drains once gossip is stopped
}

// TestLiveBackgroundGossip exercises WithGossipEvery on wall-clock time.
func TestLiveBackgroundGossip(t *testing.T) {
	c := quicksand.New[balances](exampleApp{}, nil,
		quicksand.WithGossipEvery(2*time.Millisecond))
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < c.Replicas(); i++ {
		if _, err := c.Submit(ctx, i, quicksand.NewOp("deposit", "acct", 1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.Converged() {
		if time.Now().After(deadline) {
			t.Fatal("background gossip did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLiveConcurrentSubmitters hammers one live cluster from many
// goroutines — the scenario the simulator cannot exercise — and checks
// nothing is lost or double-counted after convergence.
func TestLiveConcurrentSubmitters(t *testing.T) {
	c := quicksand.New[balances](exampleApp{}, nil,
		quicksand.WithGossipEvery(time.Millisecond))
	defer c.Close()
	const workers, perWorker = 8, 25
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				op := quicksand.NewOp("deposit", "acct", 1)
				op.ID = quicksand.OpID(fmt.Sprintf("w%d-%d", w, i))
				if _, err := c.Submit(ctx, w%c.Replicas(), op); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.Converged() {
		if time.Now().After(deadline) {
			t.Fatal("did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, st := range c.States() {
		if st["acct"] != workers*perWorker {
			t.Fatalf("replica %d balance = %d, want %d", i, st["acct"], workers*perWorker)
		}
	}
}

// TestShardedMatchesUnsharded is the acceptance check for the shard
// layer: the same op sequence run on one shard and on four must produce
// per-key identical states — on both transports. Every op for a given
// key is submitted at the same replica index, so admission guesses see
// the same per-key history in both runs (gossip interleavings differ,
// but deposits and covered checks commute); after convergence the
// sharded per-group states, merged key-by-key, must equal the unsharded
// state exactly.
func TestShardedMatchesUnsharded(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		const nKeys, nOps = 24, 180
		key := func(k int) string { return fmt.Sprintf("acct-%02d", k) }
		run := func(shards int) balances {
			c, d := h.newCluster(t, quicksand.WithShards(shards))
			defer c.Close()
			ctx := context.Background()
			repOf := func(k int) int { return k % c.Replicas() }
			// Seed every account so the later checks are always covered by
			// the submitting replica's local guess — admission decisions
			// are then identical in both runs.
			for k := 0; k < nKeys; k++ {
				op := quicksand.NewOp("deposit", key(k), 10_000)
				op.ID = quicksand.OpID(fmt.Sprintf("seed-%02d", k))
				if res, err := c.Submit(ctx, repOf(k), op); err != nil || !res.Accepted {
					t.Fatalf("seed %d = %+v, %v", k, res, err)
				}
			}
			for i := 0; i < nOps; i++ {
				k := (i * 13) % nKeys
				kind, arg := "deposit", int64(5+i%7)
				if i%3 == 0 {
					kind, arg = "clear-check", int64(1+i%5)
				}
				op := quicksand.NewOp(kind, key(k), arg)
				op.ID = quicksand.OpID(fmt.Sprintf("diff-%03d", i))
				if res, err := c.Submit(ctx, repOf(k), op); err != nil || !res.Accepted {
					t.Fatalf("op %d = %+v, %v", i, res, err)
				}
				if i%17 == 0 {
					c.GossipRound()
					d.settle()
				}
			}
			d.converge(t, c)
			// Merge the converged per-shard states key-by-key; along the
			// way prove replicas within each group agree and no key leaked
			// off its home shard.
			merged := balances{}
			for s := 0; s < c.Shards(); s++ {
				first := c.ShardReplica(s, 0).State()
				for i := 1; i < c.Replicas(); i++ {
					st := c.ShardReplica(s, i).State()
					for acct, bal := range first {
						if st[acct] != bal {
							t.Fatalf("shard %d replicas diverge on %s: %d vs %d", s, acct, bal, st[acct])
						}
					}
				}
				for acct, bal := range first {
					if c.ShardOf(acct) != s {
						t.Fatalf("key %s leaked onto shard %d (home %d)", acct, s, c.ShardOf(acct))
					}
					if _, dup := merged[acct]; dup {
						t.Fatalf("key %s present on two shards", acct)
					}
					merged[acct] = bal
				}
			}
			return merged
		}
		unsharded := run(1)
		sharded := run(4)
		if len(unsharded) != len(sharded) {
			t.Fatalf("key sets differ: %d unsharded vs %d sharded", len(unsharded), len(sharded))
		}
		for acct, bal := range unsharded {
			if sharded[acct] != bal {
				t.Fatalf("per-key state diverged on %s: unsharded %d, sharded %d", acct, bal, sharded[acct])
			}
		}
	})
}

// TestShardedBatchScatterGather proves SubmitBatch fans a mixed-key batch
// out across shards while preserving result order by index and per-key
// submission order — on both transports (parallel scatter on live,
// sequential on sim).
func TestShardedBatchScatterGather(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, _ := h.newCluster(t, quicksand.WithShards(4))
		defer c.Close()
		const n = 80
		ops := make([]quicksand.Op, n)
		want := map[string]int64{}
		for i := range ops {
			k := fmt.Sprintf("acct-%02d", i%10)
			ops[i] = quicksand.NewOp("deposit", k, int64(i+1))
			ops[i].ID = quicksand.OpID(fmt.Sprintf("batch-%03d", i))
			want[k] += int64(i + 1)
		}
		results, err := c.SubmitBatch(context.Background(), 0, ops)
		if err != nil {
			t.Fatalf("batch error: %v", err)
		}
		for i, res := range results {
			if !res.Accepted {
				t.Fatalf("op %d declined: %s", i, res.Reason)
			}
			if res.Op.ID != ops[i].ID {
				t.Fatalf("result %d carries op %q, want %q — scatter lost the ordering", i, res.Op.ID, ops[i].ID)
			}
		}
		for k, sum := range want {
			got := c.ShardReplica(c.ShardOf(k), 0).State()[k]
			if got != sum {
				t.Fatalf("key %s = %d at its home shard, want %d", k, got, sum)
			}
		}
	})
}

// assertGenesisReplay holds every replica's derived state to the
// definition of state (§7.6): the canonical fold of its operation set,
// replayed from a fresh Init — the oracle the checkpointed engine must
// never disagree with.
func assertGenesisReplay(t *testing.T, c *quicksand.Cluster[balances]) {
	t.Helper()
	app := exampleApp{}
	for i := 0; i < c.Replicas(); i++ {
		rep := c.Replica(i)
		got, want := rep.State(), oplog.Fold(rep.Ops(), app.Init(), app.Step)
		if !maps.Equal(got, want) {
			t.Fatalf("replica %d: checkpointed fold %v, genesis replay %v", i, got, want)
		}
	}
}

// TestFoldEnginesAgree is the acceptance check for checkpointed state
// derivation: after a rule-checked workload with gossip interleaved — so
// merges sort behind watermarks and rewind — every replica's incremental
// fold must equal a genesis replay of its operation set, on both
// transports.
func TestFoldEnginesAgree(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, d := h.newCluster(t)
		defer c.Close()
		ctx := context.Background()
		for i := 0; i < 60; i++ {
			op := quicksand.NewOp("deposit", fmt.Sprintf("acct-%d", i%5), int64(10+i))
			if _, err := c.Submit(ctx, i%c.Replicas(), op); err != nil {
				t.Fatal(err)
			}
			if i%7 == 0 {
				c.GossipRound()
				d.settle()
			}
		}
		d.converge(t, c)
		assertGenesisReplay(t, c)
	})
}
