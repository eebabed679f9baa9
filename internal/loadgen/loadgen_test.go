package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/faultfs"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Closed-loop accounting: every offered op is accepted, declined, or
// errored; after convergence every accepted op is at every replica.
func TestDriverClosedLoop(t *testing.T) {
	tgt := NewAccountsCluster(core.WithReplicas(3), core.WithGossipEvery(2*time.Millisecond))
	defer tgt.Close()
	rep, err := Run(context.Background(), tgt, Spec{
		Workers:     3,
		Duration:    400 * time.Millisecond,
		Keys:        64,
		DepositFrac: 1, // deposits never decline, so accounting is exact
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 || rep.Accepted == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Offered != rep.Accepted+rep.Declined+rep.Errors {
		t.Fatalf("accounting mismatch: offered %d != %d+%d+%d",
			rep.Offered, rep.Accepted, rep.Declined, rep.Errors)
	}
	if rep.Declined != 0 {
		t.Fatalf("deposits declined: %d", rep.Declined)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tgt.Converge(ctx); err != nil {
		t.Fatal(err)
	}
	for i, n := range tgt.OpCounts() {
		if int64(n) < rep.Accepted || int64(n) > rep.Accepted+rep.Errors {
			t.Fatalf("replica %d holds %d ops, accepted %d (errors %d)", i, n, rep.Accepted, rep.Errors)
		}
	}
	if rep.P50Ns <= 0 || rep.P99Ns < rep.P50Ns {
		t.Fatalf("implausible latency quantiles: p50=%v p99=%v", rep.P50Ns, rep.P99Ns)
	}
}

// Open-loop pacing: a rate target bounds the offered load. Generous
// margins — CI boxes stall — but a closed-loop runaway (tens of
// thousands of ops in 500ms in-process) must be caught.
func TestDriverRatePacing(t *testing.T) {
	tgt := NewAccountsCluster(core.WithReplicas(2), core.WithGossipEvery(5*time.Millisecond))
	defer tgt.Close()
	rep, err := Run(context.Background(), tgt, Spec{
		Workers:     2,
		Rate:        400,
		Duration:    500 * time.Millisecond,
		Keys:        16,
		DepositFrac: 1,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered < 50 || rep.Offered > 400 {
		t.Fatalf("offered %d ops in 500ms at 400 ops/s target, want roughly 200", rep.Offered)
	}
}

// The batch path must account per-op outcomes, not per-request.
func TestDriverBatch(t *testing.T) {
	tgt := NewAccountsCluster(core.WithReplicas(2), core.WithGossipEvery(2*time.Millisecond))
	defer tgt.Close()
	rep, err := Run(context.Background(), tgt, Spec{
		Workers:     2,
		Batch:       32,
		Duration:    300 * time.Millisecond,
		Keys:        64,
		DepositFrac: 1,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 || rep.Offered%32 != 0 {
		t.Fatalf("offered %d, want a positive multiple of the batch size", rep.Offered)
	}
	if rep.Offered != rep.Accepted+rep.Declined+rep.Errors {
		t.Fatalf("accounting mismatch: %+v", rep)
	}
}

// The same spec and seed must offer the same operation stream (the
// reproducibility contract scenarios rely on). Outcomes may differ —
// timing decides which guesses race — but the offered ops are a pure
// function of (seed, worker, sequence).
func TestGeneratorDeterminism(t *testing.T) {
	stream := func() []Op {
		spec := Spec{Keys: 32, DepositFrac: 0.7, SyncFrac: 0.1, Seed: 99, Dist: Zipf}
		spec = spec.withDefaults()
		r := newTestRand(99)
		gen := spec.gen(0, r)
		var out []Op
		for i := 0; i < 200; i++ {
			out = append(out, gen(r, 0))
		}
		return out
	}
	a, b := stream(), stream()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestLoadgenRaceSoak drives the loadgen against a live durable cluster
// while a churn goroutine hard-kills and recovers replicas and readers
// poll snapshots — the reader-snapshot / ingest-drain / crash-recovery
// interleavings all at once. Run it
// under -race; skip under -short.
func TestLoadgenRaceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	tgt := NewAccountsCluster(
		core.WithReplicas(3),
		core.WithDurability(t.TempDir()),
		core.WithGossipEvery(2*time.Millisecond),
	)
	defer tgt.Close()

	soakCtx, stopSoak := context.WithCancel(context.Background())
	var aux sync.WaitGroup

	// Churn: kill and recover replicas 1 and 2 alternately, never both
	// at once, so the cluster always has a majority of entry points up.
	aux.Add(1)
	var kills atomic.Int64
	go func() {
		defer aux.Done()
		victim := 1
		for soakCtx.Err() == nil {
			tgt.Kill(victim)
			kills.Add(1)
			time.Sleep(60 * time.Millisecond)
			rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := tgt.Recover(rctx, victim); err != nil {
				t.Errorf("recover replica %d: %v", victim, err)
				cancel()
				return
			}
			cancel()
			victim = 3 - victim // 1 ↔ 2
			time.Sleep(40 * time.Millisecond)
		}
	}()

	// Readers: hammer the published-snapshot read path concurrently with
	// ingest batches and recoveries.
	var reads atomic.Int64
	for r := 0; r < 2; r++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for soakCtx.Err() == nil {
				_ = tgt.C.States()
				_ = tgt.OpCounts()
				reads.Add(1)
			}
		}()
	}

	rep, err := Run(context.Background(), tgt, Spec{
		Workers:  4,
		Duration: 1500 * time.Millisecond,
		Keys:     128,
		Seed:     7,
	})
	stopSoak()
	aux.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted == 0 {
		t.Fatalf("soak accepted nothing: %+v", rep)
	}
	if reads.Load() == 0 {
		t.Fatal("reader goroutines never completed a read")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tgt.Converge(ctx); err != nil {
		t.Fatal(err)
	}
	// Accepted means fsynced: even with replicas dying mid-run, every
	// accepted op must be at every replica after recovery + convergence.
	// Surplus allowance: failed coordinated submits and transport errors
	// can record without acknowledging, and each hard kill can journal
	// the in-flight ops (≤ one per worker) before destroying their acks.
	allowed := rep.SyncDeclined + rep.Errors + kills.Load()*int64(rep.Workers)*int64(rep.Batch)
	for i, n := range tgt.OpCounts() {
		if int64(n) < rep.Accepted {
			t.Fatalf("replica %d lost ops: holds %d, accepted %d", i, n, rep.Accepted)
		}
		if int64(n) > rep.Accepted+allowed {
			t.Fatalf("replica %d surplus: holds %d, accepted %d, allowance %d", i, n, rep.Accepted, allowed)
		}
	}
}

// TestSlowDiskDifferential pins the slow-disk contract: fsync latency
// injected through the store's filesystem seam changes timing only. A
// seeded, sequential script run with and without the delay must produce
// identical per-op outcomes, identical final states, and identical
// apology ledgers.
func TestSlowDiskDifferential(t *testing.T) {
	control := runDiffScript(t, t.TempDir(), 0)
	slowed := runDiffScript(t, t.TempDir(), time.Millisecond)

	if len(control.outcomes) != len(slowed.outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(control.outcomes), len(slowed.outcomes))
	}
	for i := range control.outcomes {
		if control.outcomes[i] != slowed.outcomes[i] {
			t.Fatalf("op %d outcome differs: control %q, slow-disk %q",
				i, control.outcomes[i], slowed.outcomes[i])
		}
	}
	if len(control.state) != len(slowed.state) {
		t.Fatalf("final state sizes differ: %d vs %d keys", len(control.state), len(slowed.state))
	}
	for k, v := range control.state {
		if slowed.state[k] != v {
			t.Fatalf("final state differs at %s: control %d, slow-disk %d", k, v, slowed.state[k])
		}
	}
	if c, s := strings.Join(control.apologies, "\n"), strings.Join(slowed.apologies, "\n"); c != s {
		t.Fatalf("apology ledgers differ:\ncontrol:\n%s\nslow-disk:\n%s", c, s)
	}
	if len(control.apologies) == 0 {
		t.Fatal("script produced no apologies; the differential is not exercising the ledger")
	}
}

type diffResult struct {
	outcomes  []string
	state     daemon.Accounts
	apologies []string
}

// runDiffScript replays a fixed seeded script against a fresh durable
// 3-replica cluster: sequential blocking submits round-robin across
// replicas, with a full-convergence barrier every 16 ops. The barriers
// make outcomes a pure function of the script — between barriers each
// replica sees only the converged prefix plus its own submissions, so
// fsync timing cannot change any admission decision.
func runDiffScript(t *testing.T, dir string, delay time.Duration) diffResult {
	t.Helper()
	opts := []core.Option{core.WithReplicas(3), core.WithDurability(dir)}
	if delay > 0 {
		opts = append(opts, core.WithStoreFS(faultfs.New(faultfs.OS, 1, func(op faultfs.Op) faultfs.Decision {
			if op.Kind == faultfs.OpSync {
				return faultfs.Decision{Delay: delay}
			}
			return faultfs.Decision{}
		})))
	}
	tgt := NewAccountsCluster(opts...)
	defer tgt.Close()

	barrier := func() {
		deadline := time.Now().Add(30 * time.Second)
		for !tgt.C.Converged() {
			if time.Now().After(deadline) {
				t.Fatal("differential barrier did not converge")
			}
			tgt.C.GossipRound()
			time.Sleep(time.Millisecond)
		}
	}

	r := newTestRand(1234)
	var res diffResult
	ctx := context.Background()
	for i := 0; i < 240; i++ {
		op := Op{Kind: "deposit", Key: fmt.Sprintf("k%d", r.Intn(6)), Arg: 1 + r.Int63n(50)}
		// Overdraw-prone mix: enough withdrawals that merges discover
		// violations and the apology ledgers have content to compare.
		if r.Float64() < 0.45 {
			op.Kind = "withdraw"
			op.Arg = 1 + r.Int63n(80)
		}
		out, err := tgt.Submit(ctx, i%3, op)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		res.outcomes = append(res.outcomes, fmt.Sprintf("%s %s %d accepted=%v reason=%q",
			op.Kind, op.Key, op.Arg, out.Accepted, out.Reason))
		if (i+1)%16 == 0 {
			barrier()
		}
	}
	barrier()
	res.state = tgt.C.Replica(0).State()

	// Normalize the ledger: the discovering replica and the balance depth
	// at discovery (Amount) depend on which gossip push landed first
	// inside a barrier — nondeterministic by design. Identity, rule,
	// detail, and key are the violation's content and must match exactly.
	for _, a := range tgt.ApologyList() {
		res.apologies = append(res.apologies, fmt.Sprintf("%s|%s|%s|%s", a.ID, a.Rule, a.Detail, a.Key))
	}
	sort.Strings(res.apologies)
	return res
}
