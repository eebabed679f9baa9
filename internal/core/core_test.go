package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/oplog"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/uniq"
)

// counterApp is the simplest commutative application: per-key running
// sums of credits and debits — map state, in-place Step, deep-copy
// Snapshot, the shape real applications take.
type counterApp struct{}

type counterState map[string]int64

func (counterApp) Init() counterState { return counterState{} }

func (counterApp) Step(s counterState, op oplog.Entry) counterState {
	switch op.Kind {
	case "credit":
		s[op.Key] += op.Arg
	case "debit":
		s[op.Key] -= op.Arg
	}
	return s
}

func (counterApp) Snapshot(s counterState) counterState { return maps.Clone(s) }

// orderFreeApp is counterApp declaring what it is: its credits and debits
// commute, so a replica steps a late entry into the fold where it lands.
// counterApp itself keeps the canonical-order path, rewinds included,
// under test.
type orderFreeApp struct{ counterApp }

func (orderFreeApp) Commutes() {}

// noOverdraft declines debits the local guess can't cover and reports
// accounts below zero after merges.
func noOverdraft() Rule[counterState] {
	return Rule[counterState]{
		Name: "no-overdraft",
		Admit: func(s counterState, op oplog.Entry) bool {
			if op.Kind != "debit" {
				return true
			}
			return s[op.Key] >= op.Arg
		},
		Violated: func(s counterState) []Violation {
			var out []Violation
			for k, v := range s {
				if v < 0 {
					out = append(out, Violation{Detail: fmt.Sprintf("account %s overdrawn", k), Amount: -v})
				}
			}
			return out
		},
	}
}

func newTestCluster(seed int64, replicas int, rules ...Rule[counterState]) (*sim.Sim, *Cluster[counterState]) {
	s := sim.New(seed)
	c := New[counterState](counterApp{}, rules, WithTransport(rpc.NewSimTransport(s)), WithReplicas(replicas))
	return s, c
}

func submit(t *testing.T, s *sim.Sim, c *Cluster[counterState], rep int, kind, key string, arg int64, pol policy.Policy) Result {
	t.Helper()
	res, err := c.Submit(context.Background(), rep, NewOp(kind, key, arg), WithPolicy(pol))
	if err != nil {
		t.Fatalf("submit error: %v", err)
	}
	s.Run() // drain events left after the result resolved
	return res
}

func TestAsyncSubmitIsImmediate(t *testing.T) {
	s, c := newTestCluster(1, 3)
	res := submit(t, s, c, 0, "credit", "acct", 100, policy.AlwaysAsync())
	if !res.Accepted {
		t.Fatalf("declined: %s", res.Reason)
	}
	if res.Latency != 0 {
		t.Fatalf("async latency = %v, want 0 (local guess)", res.Latency)
	}
	if c.Replica(0).State()["acct"] != 100 {
		t.Fatal("op not applied locally")
	}
	if c.Replica(1).OpCount() != 0 {
		t.Fatal("async op leaked to peer without gossip")
	}
}

func TestSyncSubmitReachesAllReplicas(t *testing.T) {
	s, c := newTestCluster(1, 3)
	res := submit(t, s, c, 0, "credit", "acct", 100, policy.AlwaysSync())
	if !res.Accepted {
		t.Fatalf("declined: %s", res.Reason)
	}
	if res.Latency == 0 {
		t.Fatal("sync submit cannot be latency-free")
	}
	for i := 0; i < 3; i++ {
		if c.Replica(i).State()["acct"] != 100 {
			t.Fatalf("replica %d missing sync op", i)
		}
	}
}

func TestSyncSubmitFailsWhenReplicaDown(t *testing.T) {
	s, c := newTestCluster(1, 3)
	c.Transport().SetUp("r2", false)
	res := submit(t, s, c, 0, "credit", "acct", 100, policy.AlwaysSync())
	if res.Accepted {
		t.Fatal("sync submit succeeded with a replica down; must be conservative")
	}
	if c.Metrics().SyncDeclined.Value() != 1 {
		t.Fatalf("SyncDeclined = %d", c.Metrics().SyncDeclined.Value())
	}
	// The async path keeps working — availability vs consistency.
	res = submit(t, s, c, 0, "credit", "acct", 100, policy.AlwaysAsync())
	if !res.Accepted {
		t.Fatal("async submit must survive a down peer")
	}
}

func TestGossipConverges(t *testing.T) {
	s, c := newTestCluster(2, 4)
	for i := 0; i < 4; i++ {
		submit(t, s, c, i, "credit", "acct", int64(10*(i+1)), policy.AlwaysAsync())
	}
	if c.Converged() {
		t.Fatal("converged before any gossip?")
	}
	for round := 0; round < 4 && !c.Converged(); round++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("not converged after n gossip rounds")
	}
	for i, st := range c.States() {
		if st["acct"] != 100 {
			t.Fatalf("replica %d state = %d, want 100", i, st["acct"])
		}
	}
}

func TestStateIndependentOfArrivalOrder(t *testing.T) {
	// The §7.6 property at the cluster level: different gossip paths,
	// same final state.
	s, c := newTestCluster(3, 3)
	submit(t, s, c, 0, "credit", "a", 5, policy.AlwaysAsync())
	submit(t, s, c, 1, "debit", "a", 3, policy.AlwaysAsync())
	submit(t, s, c, 2, "credit", "b", 7, policy.AlwaysAsync())
	for round := 0; round < 3; round++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("not converged")
	}
	states := c.States()
	for i := 1; i < len(states); i++ {
		if states[i]["a"] != states[0]["a"] || states[i]["b"] != states[0]["b"] {
			t.Fatalf("replica states diverge: %v vs %v", states[i], states[0])
		}
	}
	if states[0]["a"] != 2 || states[0]["b"] != 7 {
		t.Fatalf("final state wrong: %v", states[0])
	}
}

func TestAdmitDeclinesLocally(t *testing.T) {
	s, c := newTestCluster(4, 2, noOverdraft())
	res := submit(t, s, c, 0, "debit", "acct", 50, policy.AlwaysAsync())
	if res.Accepted {
		t.Fatal("overdraft admitted against empty local state")
	}
	if res.Reason == "" {
		t.Fatal("declined result must carry a reason")
	}
	if c.Metrics().Declined.Value() != 1 {
		t.Fatalf("Declined = %d", c.Metrics().Declined.Value())
	}
}

func TestProbabilisticEnforcementProducesApology(t *testing.T) {
	// Two replicas each locally admit a 60-cent debit against a 100-cent
	// balance — each guess is fine alone, together they overdraw: the
	// §6.2 replicated-check-clearing anomaly.
	s, c := newTestCluster(5, 2, noOverdraft())
	if !submit(t, s, c, 0, "credit", "acct", 100, policy.AlwaysAsync()).Accepted {
		t.Fatal("seed credit failed")
	}
	for r := 0; r < 2; r++ {
		c.GossipRound()
		s.Run()
	}
	if !submit(t, s, c, 0, "debit", "acct", 60, policy.AlwaysAsync()).Accepted {
		t.Fatal("debit at r0 declined")
	}
	if !submit(t, s, c, 1, "debit", "acct", 60, policy.AlwaysAsync()).Accepted {
		t.Fatal("debit at r1 declined (r1 has not seen r0's debit)")
	}
	for r := 0; r < 2; r++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("not converged")
	}
	if got := c.States()[0]["acct"]; got != -20 {
		t.Fatalf("merged balance = %d, want -20", got)
	}
	if c.Apologies.Total() != 1 {
		t.Fatalf("apologies = %d, want exactly 1 (deduped across replicas)", c.Apologies.Total())
	}
}

func TestSyncPolicyPreventsTheApology(t *testing.T) {
	// Same scenario as above but the second debit coordinates: the
	// remote replica knows the truth and refuses.
	s, c := newTestCluster(6, 2, noOverdraft())
	submit(t, s, c, 0, "credit", "acct", 100, policy.AlwaysAsync())
	for r := 0; r < 2; r++ {
		c.GossipRound()
		s.Run()
	}
	submit(t, s, c, 0, "debit", "acct", 60, policy.AlwaysAsync())
	res := submit(t, s, c, 1, "debit", "acct", 60, policy.AlwaysSync())
	if res.Accepted {
		t.Fatal("coordinated debit should have been refused by r0")
	}
	for r := 0; r < 2; r++ {
		c.GossipRound()
		s.Run()
	}
	if c.Apologies.Total() != 0 {
		t.Fatalf("apologies = %d, want 0 under coordination", c.Apologies.Total())
	}
}

func TestThresholdPolicyRoutesByAmount(t *testing.T) {
	s, c := newTestCluster(7, 3)
	pol := policy.Threshold(10_000_00) // $10,000 in cents
	small := submit(t, s, c, 0, "credit", "acct", 500_00, pol)
	big := submit(t, s, c, 0, "credit", "acct", 25_000_00, pol)
	if !small.Accepted || !big.Accepted {
		t.Fatal("submits failed")
	}
	if small.Decision != policy.Async && small.Latency != 0 {
		t.Fatal("small check should clear locally")
	}
	if big.Latency == 0 {
		t.Fatal("big check must pay coordination latency")
	}
	if c.Metrics().SyncAccepted.Value() != 1 {
		t.Fatalf("SyncAccepted = %d", c.Metrics().SyncAccepted.Value())
	}
}

func TestPartitionedReplicasConvergeAfterHeal(t *testing.T) {
	s := sim.New(8)
	tr := rpc.NewSimTransport(s)
	c := New[counterState](counterApp{}, nil, WithTransport(tr), WithReplicas(4))
	tr.Partition([]string{"r0", "r1"}, []string{"r2", "r3"})
	submit(t, s, c, 0, "credit", "a", 1, policy.AlwaysAsync())
	submit(t, s, c, 2, "credit", "a", 2, policy.AlwaysAsync())
	for r := 0; r < 4; r++ {
		c.GossipRound()
		s.Run()
	}
	if c.Converged() {
		t.Fatal("converged across a partition?")
	}
	tr.Heal()
	for r := 0; r < 4 && !c.Converged(); r++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("not converged after heal")
	}
	if c.States()[0]["a"] != 3 {
		t.Fatalf("merged state = %v", c.States()[0])
	}
}

func TestCrashedReplicaRefusesSubmits(t *testing.T) {
	s, c := newTestCluster(9, 2)
	c.Transport().SetUp("r0", false)
	res := submit(t, s, c, 0, "credit", "a", 1, policy.AlwaysAsync())
	if res.Accepted {
		t.Fatal("crashed replica accepted a submit")
	}
	if res.Reason != "replica down" {
		t.Fatalf("reason = %q", res.Reason)
	}
}

func TestCrashedReplicaCatchesUpAfterRestart(t *testing.T) {
	s, c := newTestCluster(10, 3)
	c.Transport().SetUp("r2", false)
	submit(t, s, c, 0, "credit", "a", 42, policy.AlwaysAsync())
	c.GossipRound()
	s.Run()
	c.Transport().SetUp("r2", true)
	for r := 0; r < 3 && !c.Converged(); r++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("restarted replica never caught up")
	}
	if c.Replica(2).State()["a"] != 42 {
		t.Fatal("restarted replica state wrong")
	}
}

func TestLedgerRecordsGuessesAndMemories(t *testing.T) {
	s, c := newTestCluster(11, 2)
	submit(t, s, c, 0, "credit", "a", 1, policy.AlwaysAsync())
	rep := c.Replica(0)
	if rep.Ledger.Count(1) != 1 { // apology.Guess
		t.Fatalf("guesses = %d, want 1", rep.Ledger.Count(1))
	}
	if rep.Ledger.Count(0) != 1 { // apology.Memory
		t.Fatalf("memories = %d, want 1", rep.Ledger.Count(0))
	}
	c.GossipRound()
	s.Run()
	other := c.Replica(1)
	if other.Ledger.Count(0) != 1 {
		t.Fatal("gossiped op not recorded as memory at peer")
	}
	if other.Ledger.Count(1) != 0 {
		t.Fatal("peer recorded a guess it never made")
	}
}

// TestGossipIncrementalTransfer pins both gossip rules on two replicas
// after one submit, as OpsTransferred after each of four rounds. A
// volatile replica counts what its peer sent it as held, so the op
// travels once. A durable one does not (the sender may still lose it
// before its fsync), so the op comes back once, as the echo the ack
// answers, and never again.
func TestGossipIncrementalTransfer(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		want []int64
	}{
		{"volatile", nil, []int64{1, 1, 1, 1}},
		{"durable", []Option{WithDurability(t.TempDir())}, []int64{1, 2, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(12)
			opts := append([]Option{WithTransport(rpc.NewSimTransport(s)), WithReplicas(2)}, tc.opts...)
			c := New[counterState](counterApp{}, nil, opts...)
			defer c.Close()
			submit(t, s, c, 0, "credit", "a", 1, policy.AlwaysAsync())
			var moved []int64
			for range tc.want {
				c.GossipRound()
				s.Run()
				moved = append(moved, c.Metrics().OpsTransferred.Value())
			}
			if !slices.Equal(moved, tc.want) {
				t.Fatalf("OpsTransferred after each round = %v, want %v", moved, tc.want)
			}
		})
	}
}

// TestPropConvergenceUnderRandomGossip: any op mix at any replicas, any
// random gossip schedule — once quiesced and fully gossiped, all replicas
// agree and the balance equals credits minus debits.
func TestPropConvergenceUnderRandomGossip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, c := newTestCluster(seed, 3)
		var want int64
		for i := 0; i < 20; i++ {
			rep := r.Intn(3)
			arg := int64(r.Intn(50))
			kind := "credit"
			if r.Intn(2) == 0 {
				kind = "debit"
			}
			c.SubmitAsync(rep, NewOp(kind, "acct", arg), nil, WithPolicy(policy.AlwaysAsync()))
			if kind == "credit" {
				want += arg
			} else {
				want -= arg
			}
			if r.Intn(3) == 0 {
				c.GossipRound()
			}
			s.Run()
		}
		for i := 0; i < 6 && !c.Converged(); i++ {
			c.GossipRound()
			s.Run()
		}
		if !c.Converged() {
			return false
		}
		for _, st := range c.States() {
			if st["acct"] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStartGossipPeriodic(t *testing.T) {
	s, c := newTestCluster(13, 3)
	submit(t, s, c, 0, "credit", "a", 1, policy.AlwaysAsync())
	stop := c.StartGossip(10 * time.Millisecond)
	s.RunFor(100 * time.Millisecond)
	stop()
	s.Run()
	if !c.Converged() {
		t.Fatal("periodic gossip did not converge")
	}
	if c.Metrics().GossipRounds.Value() == 0 {
		t.Fatal("no gossip rounds counted")
	}
}

func TestSubmitAsyncIdempotentRetry(t *testing.T) {
	s, c := newTestCluster(20, 2)
	op := oplog.Entry{ID: "check-42", Kind: "credit", Key: "acct", Arg: 10}
	var first, second Result
	c.SubmitAsync(0, op, func(r Result) { first = r }, WithPolicy(policy.AlwaysAsync()))
	s.Run()
	// The same uniquified op presented again (a client retry) must be
	// accepted without double-applying.
	c.SubmitAsync(0, op, func(r Result) { second = r }, WithPolicy(policy.AlwaysAsync()))
	s.Run()
	if !first.Accepted || !second.Accepted {
		t.Fatalf("accepted = %v/%v", first.Accepted, second.Accepted)
	}
	if c.Replica(0).OpCount() != 1 {
		t.Fatalf("op recorded %d times", c.Replica(0).OpCount())
	}
	if c.Replica(0).State()["acct"] != 10 {
		t.Fatalf("state = %v, double-applied", c.Replica(0).State())
	}
}

// TestResubmitAcceptedAtTimeZeroKeepsItsStamp: an op a replica accepted
// at simulator time 0 carries At 0 and a Lamport stamp. Offered again at
// another replica later — a client retrying with the Result's Op — it
// must keep that At: restamped, the two replicas would hold one ID with
// two payloads, and gossip would never reconcile them.
func TestResubmitAcceptedAtTimeZeroKeepsItsStamp(t *testing.T) {
	s, c := newTestCluster(22, 2)
	res, err := c.Submit(context.Background(), 1, NewOp("credit", "acct", 5))
	if err != nil || !res.Accepted || res.Op.At != 0 || res.Op.Lam == 0 {
		t.Fatalf("first submit = %+v, %v; want accepted at t=0 with a Lamport stamp", res, err)
	}
	s.RunFor(6 * time.Millisecond)
	again, err := c.Submit(context.Background(), 0, res.Op)
	if err != nil || !again.Accepted {
		t.Fatalf("resubmit = %+v, %v", again, err)
	}
	if again.Op.At != 0 {
		t.Fatalf("the resubmitted op was restamped At %v", again.Op.At)
	}
	for i := 0; i < 20 && !c.Converged(); i++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("replicas holding one op under two stamps never converge")
	}
}

func TestLamportOrderMakesCausesFoldFirst(t *testing.T) {
	// A replica that sees a credit and then accepts a debit must fold the
	// credit first at EVERY replica, even one that receives them in the
	// same gossip batch — the Lamport ingress stamp carries the causality.
	s, c := newTestCluster(21, 2, noOverdraft())
	if !submit(t, s, c, 0, "credit", "acct", 100, policy.AlwaysAsync()).Accepted {
		t.Fatal("credit declined")
	}
	if !submit(t, s, c, 0, "debit", "acct", 60, policy.AlwaysAsync()).Accepted {
		t.Fatal("debit declined")
	}
	for i := 0; i < 2; i++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("not converged")
	}
	// If the debit folded before the credit anywhere, the no-overdraft
	// sweep would have flagged a (spurious) violation.
	if c.Apologies.Total() != 0 {
		t.Fatalf("spurious violations: %d — causality lost in fold order", c.Apologies.Total())
	}
	op0 := c.Replica(1).Ops().Entries()
	if op0[0].Kind != "credit" || op0[1].Kind != "debit" {
		t.Fatalf("fold order at peer = %s,%s", op0[0].Kind, op0[1].Kind)
	}
}

func TestSyncDeclinedByRemoteAdmit(t *testing.T) {
	// r1 knows about a debit that makes the coordinated op violate; the
	// sync path must surface the remote refusal.
	s, c := newTestCluster(22, 2, noOverdraft())
	submit(t, s, c, 1, "credit", "acct", 50, policy.AlwaysAsync())
	// r0 (balance unknown = 0 locally) tries a coordinated debit of 40:
	// its own Admit refuses first (local state empty).
	res := submit(t, s, c, 0, "debit", "acct", 40, policy.AlwaysSync())
	if res.Accepted {
		t.Fatal("debit accepted with empty local state")
	}
	// Now seed r0 so local admit passes but remote would overdraw.
	submit(t, s, c, 0, "credit", "acct", 100, policy.AlwaysAsync())
	submit(t, s, c, 1, "debit", "acct", 50, policy.AlwaysAsync()) // r1 balance now 0
	res = submit(t, s, c, 0, "debit", "acct", 80, policy.AlwaysSync())
	if res.Accepted {
		t.Fatal("remote replica should have refused (its view: 0 - 80 < 0)")
	}
	if res.Reason == "" || res.Decision != policy.Sync {
		t.Fatalf("result = %+v", res)
	}
}

// TestDerivedWorkDedupedByUniquifier reproduces §5.4's "irrational
// exuberance": processing a purchase order stimulates scheduling a
// shipment; two replicas may both get enthusiastic, but deriving the
// shipment's uniquifier from the order's identity makes the duplicate
// "identified as the knowledge sloshes through the network."
func TestDerivedWorkDedupedByUniquifier(t *testing.T) {
	s, c := newTestCluster(30, 2)
	po := oplog.Entry{ID: "po-123", Kind: "credit", Key: "orders", Arg: 1}
	c.SubmitAsync(0, po, func(Result) {}, WithPolicy(policy.AlwaysAsync()))
	s.Run()
	c.GossipRound()
	s.Run()

	// BOTH replicas react to the purchase order by scheduling a shipment.
	// The shipment op's ID is functionally dependent on the order's —
	// not freshly generated — so the two submissions are one operation.
	shipID := "po-123/shipment"
	for rep := 0; rep < 2; rep++ {
		c.SubmitAsync(rep, oplog.Entry{ID: uniq.ID(shipID), Kind: "credit", Key: "shipments", Arg: 1},
			func(r Result) {
				if !r.Accepted {
					t.Errorf("replica %d shipment refused", rep)
				}
			}, WithPolicy(policy.AlwaysAsync()))
		s.Run()
	}
	for i := 0; i < 3 && !c.Converged(); i++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("not converged")
	}
	for i, st := range c.States() {
		if st["shipments"] != 1 {
			t.Fatalf("replica %d scheduled %d shipments, want exactly 1", i, st["shipments"])
		}
	}
}

// ---------------------------------------------------------------------------
// Checkpointed incremental fold engine.
//
// hashApp is a deliberately order-SENSITIVE fold over a plain value state:
// acc = acc*31 + Arg. It is the sharpest oracle for the fold engine — any
// entry folded twice, skipped, or folded out of canonical order changes
// the hash. (Real Apps must commute; the engine itself must not rely on
// it.) int64 is plainly copyable, so the engine checkpoints it without a
// Snapshotter.

type hashApp struct{}

func (hashApp) Init() int64                        { return 0 }
func (hashApp) Step(s int64, op oplog.Entry) int64 { return s*31 + op.Arg }

// admitAll forces every submit to derive state without constraining it.
func admitAll[S any]() Rule[S] {
	return Rule[S]{Name: "admit-all", Admit: func(S, oplog.Entry) bool { return true }}
}

// oracle re-derives a replica's state from scratch, bypassing the cache.
func oracle(r *Replica[int64]) int64 {
	return oplog.Fold(r.Ops(), hashApp{}.Init(), hashApp{}.Step)
}

// TestFoldStepsLinearInNewEntries is the complexity regression test: n
// rule-checked submits must cost O(n) App.Step invocations in total, not
// O(n²) — each submit folds only the entries beyond the watermark.
func TestFoldStepsLinearInNewEntries(t *testing.T) {
	const n = 400
	s := sim.New(1)
	c := New[int64](hashApp{}, []Rule[int64]{admitAll[int64]()}, WithTransport(rpc.NewSimTransport(s)), WithReplicas(1))
	for i := 0; i < n; i++ {
		if _, err := c.Submit(context.Background(), 0, NewOp("op", "k", int64(i))); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	steps := c.Metrics().FoldSteps.Value()
	if steps > 3*n {
		t.Fatalf("FoldSteps = %d for %d submits; admission is replaying the ledger (O(n²))", steps, n)
	}
	if c.Replica(0).State() != oracle(c.Replica(0)) {
		t.Fatal("cached state diverged from full refold")
	}
}

// TestRewindOnBehindWatermarkMerge: an entry whose Lamport stamp sorts
// into the already-folded past must rewind the checkpoint, and the
// re-derived state must equal a from-genesis fold.
func TestRewindOnBehindWatermarkMerge(t *testing.T) {
	s := sim.New(2)
	c := New[int64](hashApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithReplicas(1))
	rep := c.Replica(0)
	c.SubmitAsync(0, oplog.Entry{ID: "late", Kind: "op", Arg: 7, Lam: 10}, nil, WithPolicy(policy.AlwaysAsync()))
	s.Run()
	if got, want := rep.State(), oracle(rep); got != want {
		t.Fatalf("state = %d, oracle %d", got, want)
	}
	// Now an entry that sorts BEFORE the folded one arrives (gossip from a
	// replica whose clock lagged).
	c.SubmitAsync(0, oplog.Entry{ID: "early", Kind: "op", Arg: 3, Lam: 1}, nil, WithPolicy(policy.AlwaysAsync()))
	s.Run()
	if c.Metrics().FoldRewinds.Value() == 0 {
		t.Fatal("behind-watermark entry did not rewind the checkpoint")
	}
	if got, want := rep.State(), oracle(rep); got != want {
		t.Fatalf("state after rewind = %d, oracle %d", got, want)
	}
	if rep.State() != 3*31+7 {
		t.Fatalf("fold order wrong after rewind: %d", rep.State())
	}
}

// TestPeriodicCheckpointsBoundReplay: with a tight checkpoint cadence, a
// behind-watermark merge near the tail replays from a recent snapshot,
// not genesis.
func TestPeriodicCheckpointsBoundReplay(t *testing.T) {
	const n = 100
	s := sim.New(3)
	c := New[int64](hashApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithReplicas(1), withFoldCheckpointEvery(10))
	rep := c.Replica(0)
	for i := 0; i < n; i++ {
		c.SubmitAsync(0, oplog.Entry{ID: uniq.ID(fmt.Sprintf("op-%03d", i)), Kind: "op", Arg: 1, Lam: uint64(10 + 2*i)}, nil, WithPolicy(policy.AlwaysAsync()))
		s.Run()
		rep.State() // fold as we go, taking periodic snapshots
	}
	if c.Metrics().FoldCheckpoints.Value() == 0 {
		t.Fatal("no periodic checkpoints taken")
	}
	before := c.Metrics().FoldSteps.Value()
	// Land an entry between the last two ops: behind the watermark, but
	// far after the second-newest snapshot.
	c.SubmitAsync(0, oplog.Entry{ID: "late", Kind: "op", Arg: 5, Lam: uint64(10 + 2*(n-1) - 1)}, nil, WithPolicy(policy.AlwaysAsync()))
	s.Run()
	if got, want := rep.State(), oracle(rep); got != want {
		t.Fatalf("state = %d, oracle %d", got, want)
	}
	replay := c.Metrics().FoldSteps.Value() - before
	if replay > 25 {
		t.Fatalf("rewind replayed %d steps; snapshots are not bounding the replay (cadence 10)", replay)
	}
}

// TestOrderFreeAppFoldsLateGossipInPlace: an order-free App holding 1024
// keys takes 1000 entries that gossip delivers behind its fold watermark
// with no rewind, no checkpoint and no clone — each is one Step at each
// replica — and a State() read before a late entry costs that entry's
// write exactly one clone.
func TestOrderFreeAppFoldsLateGossipInPlace(t *testing.T) {
	const keys, late = 1024, 1000
	s := sim.New(7)
	c := New[counterState](orderFreeApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithReplicas(2))
	r0 := c.Replica(0)
	for k := 0; k < keys; k++ {
		c.SubmitAsync(0, NewOp("credit", fmt.Sprintf("k%04d", k), 1), nil)
	}
	s.Run()
	// r1's entries carry stamps below the 1024 r0 has folded, so each
	// sorts behind r0's watermark when gossip brings it.
	lateEntry := func(i int) {
		op := NewOp("credit", fmt.Sprintf("k%04d", i%keys), 2)
		op.ID, op.Lam = uniq.ID(fmt.Sprintf("late-%04d", i)), uint64(1+i%late)
		c.SubmitAsync(1, op, nil)
		c.GossipRound()
		s.Run()
	}
	steps := c.Metrics().FoldSteps.Value()
	for i := 0; i < late; i++ {
		lateEntry(i)
	}
	m := c.Metrics()
	if m.FoldRewinds.Value() != 0 || m.FoldCheckpoints.Value() != 0 || m.FoldClones.Value() != 0 {
		t.Fatalf("%d late entries: %d rewinds, %d checkpoints, %d clones; want 0, 0, 0",
			late, m.FoldRewinds.Value(), m.FoldCheckpoints.Value(), m.FoldClones.Value())
	}
	// One step per late entry at each replica, and r1 folds r0's keys once.
	if got, want := m.FoldSteps.Value()-steps, int64(2*late+keys); got != want {
		t.Fatalf("FoldSteps moved %d, want %d", got, want)
	}
	for i := late; i < 2*late; i++ {
		r0.State()
		lateEntry(i)
	}
	m = c.Metrics()
	if m.FoldRewinds.Value() != 0 || m.FoldCheckpoints.Value() != 0 || m.FoldClones.Value() != late {
		t.Fatalf("%d late entries, each after a State() read: %d rewinds, %d checkpoints, %d clones; want 0, 0, %d",
			late, m.FoldRewinds.Value(), m.FoldCheckpoints.Value(), m.FoldClones.Value(), late)
	}
	if got, want := r0.State(), oplog.Fold(r0.Ops(), counterApp{}.Init(), counterApp{}.Step); !maps.Equal(got, want) {
		t.Fatal("r0's in-place fold differs from a canonical-order refold of its set")
	}
	if !c.Converged() || !maps.Equal(r0.State(), c.Replica(1).State()) {
		t.Fatal("replicas holding the same set derived different states")
	}
}

// TestSnapshotterKeepsReturnedStatesStable: with an in-place-mutating
// Step and a Snapshotter, states handed out by State() must not change as
// later operations fold in — through the canonical-order fold, and
// through an order-free App's in-place steps of late entries while other
// goroutines read (the -race half).
func TestSnapshotterKeepsReturnedStatesStable(t *testing.T) {
	t.Run("canonical order", func(t *testing.T) {
		s := sim.New(4)
		c := New[counterState](counterApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithReplicas(1))
		if _, err := c.Submit(context.Background(), 0, NewOp("credit", "a", 10)); err != nil {
			t.Fatal(err)
		}
		s.Run()
		snap := c.Replica(0).State()
		if snap["a"] != 10 {
			t.Fatalf("state = %v", snap)
		}
		if _, err := c.Submit(context.Background(), 0, NewOp("credit", "a", 5)); err != nil {
			t.Fatal(err)
		}
		s.Run()
		if now := c.Replica(0).State(); now["a"] != 15 {
			t.Fatalf("live state = %v", now)
		}
		if snap["a"] != 10 {
			t.Fatalf("previously returned state mutated in place: %v", snap)
		}
	})
	t.Run("order-free, late entries, concurrent readers", func(t *testing.T) {
		const keys, ahead, late = 16, 256, 300
		c := New[counterState](orderFreeApp{}, nil, WithReplicas(2))
		defer c.Close()
		r0 := c.Replica(0)
		for i := 0; i < ahead; i++ {
			mustSubmit(t, c, 0, NewOp("credit", fmt.Sprintf("k%d", i%keys), 1))
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		type heldState struct{ live, want counterState }
		held := make([][]heldState, 2)
		for rd := range held {
			wg.Add(1)
			go func(rd int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := r0.State()
					if len(held[rd]) < 512 {
						held[rd] = append(held[rd], heldState{st, maps.Clone(st)})
					}
					r0.View(func(v counterState) { _ = v["k0"] })
					time.Sleep(20 * time.Microsecond)
				}
			}(rd)
		}
		// Stamps below r0's: every entry r1 takes sorts behind r0's
		// watermark and is stepped in place while the readers run.
		for i := 0; i < late; i++ {
			op := NewOp("credit", fmt.Sprintf("k%d", i%keys), 1)
			op.ID, op.Lam = uniq.ID(fmt.Sprintf("late-%03d", i)), uint64(1+i%(ahead-1))
			mustSubmit(t, c, 1, op)
			for deadline := time.Now().Add(5 * time.Second); r0.OpCount() < ahead+i+1; time.Sleep(20 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("r0 never absorbed late entry %d", i)
				}
				c.GossipRound() // a round that finds the last push unacked sends nothing
			}
		}
		close(stop)
		wg.Wait()
		n := 0
		for _, hs := range held {
			for _, h := range hs {
				n++
				if !maps.Equal(h.live, h.want) {
					t.Fatalf("a held State() changed after hand-out: %v, was %v", h.live, h.want)
				}
			}
		}
		if n == 0 {
			t.Fatal("no snapshots held")
		}
		if m := c.Metrics(); m.FoldRewinds.Value() != 0 || m.FoldCheckpoints.Value() != 0 || m.FoldClones.Value() == 0 {
			t.Fatalf("order-free App: %d rewinds, %d checkpoints, %d clones; want 0, 0 and a late step on a state a reader held",
				m.FoldRewinds.Value(), m.FoldCheckpoints.Value(), m.FoldClones.Value())
		}
		if got := r0.State(); got["k0"] != (ahead+late+keys-1)/keys {
			t.Fatalf("k0 = %d after %d credits of 1", got["k0"], (ahead+late+keys-1)/keys)
		}
	})
}

// mapNoSnapshotApp folds into a map and offers no Snapshot: the one shape
// the engine cannot checkpoint.
type mapNoSnapshotApp struct{}

func (mapNoSnapshotApp) Init() counterState                              { return counterState{} }
func (mapNoSnapshotApp) Step(s counterState, _ oplog.Entry) counterState { return s }

// TestCloningContract pins how the engine decides it can clone a state:
// plainCopyable accepts exactly the types assignment copies in full, and
// New builds on a Snapshotter or a plain value and panics — naming the
// way out — on reference-typed state without Snapshot.
func TestCloningContract(t *testing.T) {
	type nested struct {
		N    int64
		Name string
		Arr  [3]struct{ A, B float64 }
	}
	for _, tc := range []struct {
		v    any
		want bool
	}{
		{int64(0), true}, {false, true}, {uint8(0), true}, {3.5, true}, {complex(1, 2), true},
		{"strings are immutable", true}, {[4]int{}, true}, {nested{}, true}, {struct{}{}, true},
		{new(int), false}, {map[string]int{}, false}, {[]int{}, false}, {make(chan int), false},
		{func() {}, false}, {[1]any{}, false}, {[2]*int{}, false},
		{struct{ Err error }{}, false},
		{struct {
			N   int
			Bal map[string]int64
		}{}, false},
		{struct{ In struct{ P *nested } }{}, false},
	} {
		if got := plainCopyable(reflect.TypeOf(tc.v)); got != tc.want {
			t.Errorf("plainCopyable(%T) = %v, want %v", tc.v, got, tc.want)
		}
	}

	New[counterState](counterApp{}, nil, WithTransport(rpc.NewSimTransport(sim.New(1))), WithReplicas(1)) // Snapshotter
	New[int64](hashApp{}, nil, WithTransport(rpc.NewSimTransport(sim.New(1))), WithReplicas(1))           // plain value
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "Snapshotter") || !strings.Contains(msg, "mapNoSnapshotApp") {
			t.Fatalf("New on map state without Snapshot: recovered %q, want a panic naming the App and Snapshotter", msg)
		}
	}()
	New[counterState](mapNoSnapshotApp{}, nil, WithTransport(rpc.NewSimTransport(sim.New(1))), WithReplicas(1))
}

// TestPropIncrementalFoldMatchesOracle is the engine's soundness
// property: under random Lamport stamps (forcing behind-watermark merges),
// random replicas, duplicate IDs, and random gossip, every replica's
// cached state always equals a from-genesis refold of its operation set.
func TestPropIncrementalFoldMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		c := New[int64](hashApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithReplicas(3), withFoldCheckpointEvery(4))
		for i := 0; i < 60; i++ {
			op := oplog.Entry{
				ID:   uniq.ID(fmt.Sprintf("op-%02d", r.Intn(40))), // dup IDs happen
				Kind: "op",
				Arg:  int64(r.Intn(9) + 1),
				Lam:  uint64(r.Intn(6) + 1), // adversarial: no ingress stamping
			}
			c.SubmitAsync(r.Intn(3), op, nil, WithPolicy(policy.AlwaysAsync()))
			if r.Intn(3) == 0 {
				c.GossipRound()
			}
			s.Run()
			rep := c.Replica(r.Intn(3))
			if rep.State() != oracle(rep) {
				return false
			}
		}
		for i := 0; i < 6; i++ {
			c.GossipRound()
			s.Run()
		}
		for i := 0; i < 3; i++ {
			if c.Replica(i).State() != oracle(c.Replica(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// journalOf reads a replica's gossip journal: how many entries it still
// holds, and how many it has truncated away once every gossip peer
// acknowledged them.
func journalOf[S any](r *Replica[S]) (retained, truncated int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journal.Retained(), r.journal.Base()
}

// TestJournalTruncatedAfterAcks pins the journal memory bound: once every
// gossip peer has acknowledged a prefix, the replica releases it, so a
// long-lived replica's journal tracks the gossip lag, not the total op
// count.
func TestJournalTruncatedAfterAcks(t *testing.T) {
	const n = 200
	s, c := newTestCluster(40, 3)
	for i := 0; i < n; i++ {
		submit(t, s, c, i%3, "credit", fmt.Sprintf("k%d", i%10), 1, policy.AlwaysAsync())
		if i%20 == 0 {
			c.GossipRound()
			s.Run()
		}
	}
	// Quiesce: enough rounds for every push to be acked and reciprocated.
	for i := 0; i < 6; i++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("not converged")
	}
	for i := 0; i < 3; i++ {
		rep := c.Replica(i)
		if rep.OpCount() != n {
			t.Fatalf("replica %d holds %d ops, want %d", i, rep.OpCount(), n)
		}
		retained, truncated := journalOf(rep)
		if retained != 0 {
			t.Fatalf("replica %d retains %d journal entries after full acknowledgement, want 0", i, retained)
		}
		if truncated < n {
			t.Fatalf("replica %d truncated only %d journal entries", i, truncated)
		}
	}
}

// TestJournalHeldForCrashedPeer is the safety half: entries a crashed
// peer has not acknowledged must survive truncation, and the revived
// peer must still catch up from them.
func TestJournalHeldForCrashedPeer(t *testing.T) {
	s, c := newTestCluster(41, 3)
	c.Transport().SetUp("r2", false)
	for i := 0; i < 30; i++ {
		submit(t, s, c, 0, "credit", "a", 1, policy.AlwaysAsync())
	}
	for i := 0; i < 4; i++ {
		c.GossipRound()
		s.Run()
	}
	// r1's journal: its successor r2 is down and has acked nothing, so the
	// 30 gossiped entries must all still be retained.
	if got, _ := journalOf(c.Replica(1)); got < 30 {
		t.Fatalf("r1 retains %d journal entries with its peer down; prefix truncated too eagerly", got)
	}
	c.Transport().SetUp("r2", true)
	for i := 0; i < 6 && !c.Converged(); i++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("revived replica never caught up — truncation lost entries it needed")
	}
	if got := c.Replica(2).State()["a"]; got != 30 {
		t.Fatalf("revived replica state = %d, want 30", got)
	}
	for i := 0; i < 4; i++ {
		c.GossipRound()
		s.Run()
	}
	for i := 0; i < 3; i++ {
		if got, _ := journalOf(c.Replica(i)); got != 0 {
			t.Fatalf("replica %d retains %d entries after the heal quiesced", i, got)
		}
	}
}

// pushRecorder passes a replica's calls through and records the encoded
// entry bytes of every gossip push it sends, by destination.
type pushRecorder struct {
	Node
	sent map[string][]int
}

func (p pushRecorder) Call(to, method string, req any, done func(resp any, ok bool)) {
	if m, ok := req.(pushReq); ok {
		n := 0
		for _, e := range m.Entries {
			n += oplog.EntrySize(e)
		}
		p.sent[to] = append(p.sent[to], n)
	}
	p.Node.Call(to, method, req, done)
}

// TestCatchUpIsPushedInBudgetedParts: a peer that fell behind by more
// than one push may carry is caught up over several pushes, each at most
// maxPushBytes of entries, and converges.
func TestCatchUpIsPushedInBudgetedParts(t *testing.T) {
	s, c := newTestCluster(43, 3)
	sent := map[string][]int{}
	for i := 0; i < 3; i++ {
		r := c.Replica(i)
		r.node = pushRecorder{Node: r.node, sent: sent}
	}
	c.Transport().SetUp("r2", false)
	note := strings.Repeat("n", 64<<10)
	const ops = 3 * maxPushBytes / (128 << 10) // 1.5 budgets of notes
	for i := 0; i < ops; i++ {
		op := NewOp("credit", "a", 1)
		op.Note = note
		if _, err := c.Submit(context.Background(), 0, op, WithPolicy(policy.AlwaysAsync())); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	for i := 0; i < 4; i++ {
		c.GossipRound()
		s.Run()
	}
	c.Transport().SetUp("r2", true)
	clear(sent)
	for i := 0; i < 10 && !c.Converged(); i++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("the lagging peer never caught up")
	}
	if got := c.Replica(2).State()["a"]; got != ops {
		t.Fatalf("caught-up replica state = %d, want %d", got, ops)
	}
	carried := 0
	for to, sizes := range sent {
		for _, n := range sizes {
			if n > maxPushBytes {
				t.Errorf("a push to %s carried %d entry bytes, over the %d budget", to, n, maxPushBytes)
			}
			if to == "r2" && n > 0 {
				carried++
			}
		}
	}
	if carried < 2 {
		t.Fatalf("the catch-up took %d pushes, want it split over at least 2", carried)
	}
}

// TestShardRoutingAndIsolation exercises the sharded engine on the
// simulator: ops route to the shard owning their key, groups converge
// independently, and a sync submit coordinates only within its shard.
func TestShardRoutingAndIsolation(t *testing.T) {
	s := sim.New(42)
	c := New[counterState](counterApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithShards(4), WithReplicas(2))
	if c.Shards() != 4 || c.Replicas() != 2 {
		t.Fatalf("Shards/Replicas = %d/%d", c.Shards(), c.Replicas())
	}
	if got := c.ShardReplica(2, 1).ID(); got != "s2/r1" {
		t.Fatalf("sharded node id = %q, want s2/r1", got)
	}
	if got := c.ShardReplica(1, 0).Shard(); got != 1 {
		t.Fatalf("Shard() = %d, want 1", got)
	}
	const keys = 16
	for k := 0; k < keys; k++ {
		submit(t, s, c, 0, "credit", fmt.Sprintf("k%d", k), int64(k+1), policy.AlwaysAsync())
	}
	// Each op must have landed on exactly the shard that owns its key.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		home := c.ShardOf(key)
		for sh := 0; sh < c.Shards(); sh++ {
			got := c.ShardReplica(sh, 0).State()[key]
			want := int64(0)
			if sh == home {
				want = int64(k + 1)
			}
			if got != want {
				t.Fatalf("key %s on shard %d: state %d, want %d (home %d)", key, sh, got, want, home)
			}
		}
	}
	for i := 0; i < 4 && !c.Converged(); i++ {
		c.GossipRound()
		s.Run()
	}
	if !c.Converged() {
		t.Fatal("sharded cluster did not converge")
	}
	// A coordinated submit touches only its own group's replicas.
	res := submit(t, s, c, 0, "credit", "sync-key", 5, policy.AlwaysSync())
	if !res.Accepted {
		t.Fatalf("sync submit declined: %s", res.Reason)
	}
	home := c.ShardOf("sync-key")
	for sh := 0; sh < c.Shards(); sh++ {
		for i := 0; i < c.Replicas(); i++ {
			has := c.ShardReplica(sh, i).Ops().Contains(res.Op.ID)
			if has != (sh == home) {
				t.Fatalf("sync op on shard %d replica %d: present=%v, home=%d", sh, i, has, home)
			}
		}
	}
	// Per-shard metrics saw the work; shards with no sync never coordinated.
	if c.ShardMetrics(home).SyncAccepted.Value() != 1 {
		t.Fatalf("home shard SyncAccepted = %d", c.ShardMetrics(home).SyncAccepted.Value())
	}
	var total int64
	for sh := 0; sh < c.Shards(); sh++ {
		total += c.ShardMetrics(sh).Accepted.Value()
	}
	if total != c.Metrics().Accepted.Value() || total != keys+1 {
		t.Fatalf("shard metrics sum %d, cluster %d, want %d", total, c.Metrics().Accepted.Value(), keys+1)
	}
}

// TestClusterMetricsSumsEveryField: Cluster.Metrics is the sum over
// shards of every field Metrics declares — a counter or histogram added
// to the struct and forgotten in merge shows up here as a zero.
func TestClusterMetricsSumsEveryField(t *testing.T) {
	c := New[counterState](counterApp{}, nil, WithTransport(rpc.NewSimTransport(sim.New(1))), WithShards(3), WithReplicas(1))
	for sh := 0; sh < c.Shards(); sh++ {
		m := reflect.ValueOf(c.ShardMetrics(sh)).Elem()
		for i := 0; i < m.NumField(); i++ {
			switch f := m.Field(i).Addr().Interface().(type) {
			case *stats.Counter:
				f.Addn(int64(sh + 1))
			case *stats.LatHist:
				f.Record(int64(sh + 1))
			default:
				t.Fatalf("Metrics.%s has type %T; teach this test (and merge) to sum it", m.Type().Field(i).Name, f)
			}
		}
	}
	sum := reflect.ValueOf(c.Metrics()).Elem()
	for i := 0; i < sum.NumField(); i++ {
		name := sum.Type().Field(i).Name
		switch f := sum.Field(i).Addr().Interface().(type) {
		case *stats.Counter:
			if f.Value() != 1+2+3 {
				t.Errorf("Metrics().%s = %d, want the shards' 1+2+3", name, f.Value())
			}
		case *stats.LatHist:
			if f.Count() != 3 || f.Sum() != 1+2+3 {
				t.Errorf("Metrics().%s holds %d samples summing %d, want 3 summing 6", name, f.Count(), f.Sum())
			}
		}
	}
}

// TestDuplicateLocalSubmitRecordsNoSecondGuess pins the ledger fix: a
// duplicate guess (a retry of work the replica already holds) must not
// record a second Guess for work that was only recorded once.
func TestDuplicateLocalSubmitRecordsNoSecondGuess(t *testing.T) {
	s := sim.New(5)
	c := New[counterState](counterApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithReplicas(1))
	rep := c.Replica(0)
	op := oplog.Entry{ID: "check-7", Kind: "credit", Key: "a", Arg: 1, Lam: 1}
	for i := 0; i < 2; i++ {
		var res Result
		c.SubmitAsync(0, op, func(r Result) { res = r })
		if !res.Accepted {
			t.Fatalf("submit #%d declined", i)
		}
	}
	if got := rep.Ledger.Count(1); got != 1 { // apology.Guess
		t.Fatalf("guesses = %d, want 1 — duplicate accept re-recorded a guess", got)
	}
	if got := rep.Ledger.Count(0); got != 1 { // apology.Memory
		t.Fatalf("memories = %d, want 1", got)
	}
	if rep.State()["a"] != 1 {
		t.Fatal("duplicate applied twice")
	}
}
