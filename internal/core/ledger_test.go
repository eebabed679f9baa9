package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/apology"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// TestLedgerDoesNotGrowWithOps: the op set is the memory, so a ledger
// counts per-op memories and guesses and stores lines only for what the
// op set cannot reproduce — regrets and lifecycle events. Twenty thousand
// guesses leave every count right and not one line; an overdraft still
// leaves exactly one attributed Regret line, and degrade and Recover —
// from a degraded disk and from a Kill — each still leave theirs.
func TestLedgerDoesNotGrowWithOps(t *testing.T) {
	t.Run("guesses and regrets", func(t *testing.T) {
		const perBatch, batches = 500, 40 // 20 000 guesses
		s := sim.New(18)
		c := New[counterState](counterApp{}, []Rule[counterState]{noOverdraft()}, WithTransport(rpc.NewSimTransport(s)), WithReplicas(3))
		local := [3]int{}
		for b := 0; b < batches; b++ {
			ops := make([]Op, perBatch)
			for i := range ops {
				ops[i] = NewOp("credit", fmt.Sprintf("acct-%d", i%17), 1)
			}
			rs, err := c.SubmitBatch(context.Background(), b%3, ops)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				if !r.Accepted {
					t.Fatalf("guess declined: %s", r.Reason)
				}
			}
			local[b%3] += perBatch
			c.GossipRound()
			s.Run()
		}
		convergeSim(t, s, c)
		lines := func() (n int) {
			for i := 0; i < 3; i++ {
				n += len(c.Replica(i).Ledger.Entries())
			}
			return n
		}
		check := func(ops int) {
			t.Helper()
			for i := 0; i < 3; i++ {
				r := c.Replica(i)
				if r.OpCount() != ops || r.Ledger.Count(apology.Memory) != ops {
					t.Fatalf("r%d: ops = %d, memories = %d, want %d each", i, r.OpCount(), r.Ledger.Count(apology.Memory), ops)
				}
				if got := r.Ledger.Count(apology.Guess); got != local[i] {
					t.Fatalf("r%d: guesses = %d, want the %d it accepted locally", i, got, local[i])
				}
			}
		}
		check(perBatch * batches)
		if n := lines(); n != 0 {
			t.Fatalf("%d ledger lines after %d guesses and no regret, want 0", n, perBatch*batches)
		}

		// The §6.2 anomaly: two replicas each clear a debit the other has
		// not seen. One apology, one Regret line, at the replica that found it.
		submit(t, s, c, 0, "credit", "hot", 100, policy.AlwaysAsync())
		local[0]++
		convergeSim(t, s, c)
		for i := 0; i < 2; i++ {
			if !submit(t, s, c, i, "debit", "hot", 60, policy.AlwaysAsync()).Accepted {
				t.Fatalf("debit at r%d declined", i)
			}
			local[i]++
		}
		convergeSim(t, s, c)
		check(perBatch*batches + 3)
		human := c.Apologies.Human()
		if len(human) != 1 {
			t.Fatalf("apologies = %d, want exactly 1", len(human))
		}
		if n := lines(); n != 1 {
			t.Fatalf("%d ledger lines after one regret, want 1", n)
		}
		for i := 0; i < 3; i++ {
			for _, l := range c.Replica(i).Ledger.Entries() {
				if l.Kind != apology.Regret || l.Ref != human[0].ID || l.Who != human[0].Replica ||
					l.Who != c.Replica(i).ID() || !strings.Contains(l.What, "no-overdraft") {
					t.Fatalf("regret line %+v does not attribute apology %+v", l, human[0])
				}
			}
		}
	})

	t.Run("lifecycle", func(t *testing.T) {
		var full atomic.Bool
		s := sim.New(19)
		c := New[counterState](counterApp{}, nil,
			WithTransport(rpc.NewSimTransport(s)), WithReplicas(3), WithDurability(t.TempDir()),
			WithStoreFS(replicaFS("r1", &full, syscall.ENOSPC)))
		defer c.Close()
		for i := 0; i < 6; i++ {
			mustSubmit(t, c, i%3, NewOp("credit", "k", 1))
		}
		convergeSim(t, s, c)
		r1 := c.Replica(1)
		wantLines := func(whats ...string) {
			t.Helper()
			got := r1.Ledger.Entries()
			if len(got) != len(whats) {
				t.Fatalf("ledger lines = %+v, want %d", got, len(whats))
			}
			for i, l := range got {
				if l.Kind != apology.Memory || l.Who != "r1" || !strings.Contains(l.What, whats[i]) {
					t.Fatalf("line %d = %+v, want a memory of %q", i, l, whats[i])
				}
			}
		}
		wantLines()

		full.Store(true)
		if res, err := c.Submit(context.Background(), 1, NewOp("credit", "k", 1)); err != nil || res.Accepted {
			t.Fatalf("submit on a full disk = %+v err=%v, want a decline", res, err)
		}
		wantLines("degraded")
		full.Store(false)
		if err := c.Recover(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		wantLines("degraded", "recovered")

		c.Kill(1) // the ledger is RAM: the crash takes it
		if err := c.Recover(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		wantLines("recovered")
	})
}

// TestGuessAllocatesNoLedgerString pins the write path's allocation
// count for one volatile single-replica guess — nobody reading between
// the writes — at the one it needs, the uniquifier, with one to spare: no
// submit config, no published read snapshot and no map clone (the fold
// is in place until a reader takes it), and nothing per op for the
// ledger: no line, no description string (there used to be two strings
// per guess).
func TestGuessAllocatesNoLedgerString(t *testing.T) {
	s := sim.New(20)
	c := New[counterState](counterApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithReplicas(1))
	op := NewOp("credit", "acct-17", 1)
	done := func(Result) {}
	for i := 0; i < 4096; i++ {
		c.SubmitAsync(0, op, done) // grow the set, ring and scratch buffers first
	}
	got := testing.AllocsPerRun(2000, func() { c.SubmitAsync(0, op, done) })
	if got > 2 {
		t.Fatalf("one guess allocates %.0f times, want at most 2", got)
	}
	if lines := len(c.Replica(0).Ledger.Entries()); lines != 0 {
		t.Fatalf("%d ledger lines for guesses", lines)
	}
}
