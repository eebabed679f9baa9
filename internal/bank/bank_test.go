package bank

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sim"
)

func newBank(seed int64, replicas int) (*sim.Sim, *Bank) {
	s := sim.New(seed)
	return s, New(30_00, core.WithTransport(rpc.NewSimTransport(s)), core.WithReplicas(replicas)) // $30 bounce fee
}

func deposit(t *testing.T, s *sim.Sim, b *Bank, rep int, acct string, cents int64) {
	t.Helper()
	ok := false
	b.Deposit(rep, acct, cents, func(r core.Result) { ok = r.Accepted })
	s.Run()
	if !ok {
		t.Fatalf("deposit of %d failed", cents)
	}
}

func clear(t *testing.T, s *sim.Sim, b *Bank, rep int, acct string, no int, cents int64) bool {
	t.Helper()
	var res core.Result
	b.ClearCheck(rep, acct, no, cents, policy.AlwaysAsync(), func(r core.Result) { res = r })
	s.Run()
	return res.Accepted
}

func converge(t *testing.T, s *sim.Sim, b *Bank) {
	t.Helper()
	for i := 0; i < b.C.Replicas()+2 && !b.C.Converged(); i++ {
		b.C.GossipRound()
		s.Run()
	}
	if !b.C.Converged() {
		t.Fatal("bank replicas failed to converge")
	}
}

func TestDepositAndClear(t *testing.T) {
	s, b := newBank(1, 2)
	deposit(t, s, b, 0, "acct", 100_00)
	if !clear(t, s, b, 0, "acct", b.NextCheckNo("acct"), 40_00) {
		t.Fatal("covered check declined")
	}
	if got := b.Balance(0, "acct"); got != 60_00 {
		t.Fatalf("balance = %d", got)
	}
}

func TestLocalGuessDeclinesOverdraft(t *testing.T) {
	s, b := newBank(2, 2)
	deposit(t, s, b, 0, "acct", 10_00)
	if clear(t, s, b, 0, "acct", 1, 50_00) {
		t.Fatal("check cleared against locally visible insufficient funds")
	}
}

// TestSameCheckAtTwoReplicasClearsOnce is §6.2's core idempotence claim:
// "each replica that clears a check will remember the check with its check
// number ... the usage of check numbers makes the processing of the check
// idempotent."
func TestSameCheckAtTwoReplicasClearsOnce(t *testing.T) {
	s, b := newBank(3, 2)
	deposit(t, s, b, 0, "acct", 100_00)
	converge(t, s, b)
	// The same physical check (number 7) is presented at both replicas.
	if !clear(t, s, b, 0, "acct", 7, 25_00) {
		t.Fatal("first presentation declined")
	}
	if !clear(t, s, b, 1, "acct", 7, 25_00) {
		t.Fatal("second presentation declined (idempotent accept expected)")
	}
	converge(t, s, b)
	if got := b.Balance(0, "acct"); got != 75_00 {
		t.Fatalf("balance = %d; the check debited more than once", got)
	}
}

// TestReplicatedClearingOverdraftBouncesOnce reproduces the §6.2 anomaly:
// two replicas clear different checks against the same funds; the merged
// truth shows an overdraft; exactly one automated bounce fee is charged.
func TestReplicatedClearingOverdraftBouncesOnce(t *testing.T) {
	s, b := newBank(4, 2)
	deposit(t, s, b, 0, "acct", 100_00)
	converge(t, s, b)
	// Both replicas see balance 100; each clears a 70¢00 check locally.
	if !clear(t, s, b, 0, "acct", 101, 70_00) {
		t.Fatal("check at r0 declined")
	}
	if !clear(t, s, b, 1, "acct", 102, 70_00) {
		t.Fatal("check at r1 declined (it cannot see r0's clearing)")
	}
	converge(t, s, b)
	s.Run()
	if b.Bounced.Value() != 1 {
		t.Fatalf("bounce fees = %d, want exactly 1", b.Bounced.Value())
	}
	converge(t, s, b) // spread the fee op
	// Final balance: 100 - 70 - 70 - 30 fee = -70.
	for rep := 0; rep < 2; rep++ {
		if got := b.Balance(rep, "acct"); got != -70_00 {
			t.Fatalf("replica %d balance = %d, want -7000", rep, got)
		}
	}
}

func TestTenThousandDollarPolicyPreventsOverdraft(t *testing.T) {
	s, b := newBank(5, 2)
	deposit(t, s, b, 0, "acct", 15_000_00)
	converge(t, s, b)
	pol := policy.Threshold(10_000_00)
	// Two $12k checks against $15k: the second must coordinate and be
	// refused, not guessed through.
	okA, okB := false, false
	b.ClearCheck(0, "acct", 201, 12_000_00, pol, func(r core.Result) { okA = r.Accepted })
	s.Run()
	converge(t, s, b)
	b.ClearCheck(1, "acct", 202, 12_000_00, pol, func(r core.Result) { okB = r.Accepted })
	s.Run()
	if !okA {
		t.Fatal("first big check declined")
	}
	if okB {
		t.Fatal("second big check cleared; coordination should have refused it")
	}
	if b.Bounced.Value() != 0 {
		t.Fatalf("bounce fees = %d under coordination", b.Bounced.Value())
	}
}

func TestConvergenceOrderIndependence(t *testing.T) {
	// Replicas clear disjoint checks in different orders; after
	// convergence all agree — §7.6 verbatim.
	s, b := newBank(6, 3)
	deposit(t, s, b, 0, "acct", 500_00)
	converge(t, s, b)
	clear(t, s, b, 0, "acct", 1, 50_00)
	clear(t, s, b, 1, "acct", 2, 60_00)
	clear(t, s, b, 2, "acct", 3, 70_00)
	converge(t, s, b)
	want := b.Balance(0, "acct")
	if want != 500_00-180_00 {
		t.Fatalf("balance = %d", want)
	}
	for rep := 1; rep < 3; rep++ {
		if got := b.Balance(rep, "acct"); got != want {
			t.Fatalf("replica %d balance %d != %d", rep, got, want)
		}
	}
}

func TestStatementsImmutableAndLateOpsRollForward(t *testing.T) {
	s, b := newBank(7, 2)
	deposit(t, s, b, 0, "acct", 100_00)
	clear(t, s, b, 0, "acct", 1, 20_00)
	converge(t, s, b) // replica 1 must know the funds to admit the late check
	march := b.IssueStatement(0, "acct", s.Now())
	if march.Opening != 0 || march.Closing != 80_00 || len(march.Lines) != 2 {
		t.Fatalf("march = %+v", march)
	}

	// A check dated before the March cutoff arrives late, via replica 1.
	lateAt := march.CutoffAt - 1
	b.C.SubmitAsync(1, oplogEntry("acct", 99, 10_00, lateAt), func(core.Result) {}, core.WithPolicy(policy.AlwaysAsync()))
	s.Run()
	converge(t, s, b)

	april := b.IssueStatement(0, "acct", s.Now())
	if april.Opening != 80_00 {
		t.Fatalf("april opening = %d, want march closing", april.Opening)
	}
	if len(april.Lines) != 1 || april.Lines[0].Arg != 10_00 {
		t.Fatalf("late check not on april statement: %+v", april.Lines)
	}
	// March must be untouched: "March's statement is never modified."
	stmts := b.Statements(0, "acct")
	if len(stmts[0].Lines) != 2 || stmts[0].Closing != 80_00 {
		t.Fatal("issued statement mutated")
	}
}

func TestStatementPerReplicaTiming(t *testing.T) {
	// §6.2: "a very untimely outage could result in the check landing in
	// next month's statement rather than this month but that's no big
	// deal." Replica 1 hasn't seen the check at cutoff; its statement
	// differs from replica 0's, but the closing balances reconcile after
	// the next statement.
	s, b := newBank(8, 2)
	deposit(t, s, b, 0, "acct", 100_00)
	m0 := b.IssueStatement(0, "acct", s.Now())
	m1 := b.IssueStatement(1, "acct", s.Now())
	if m0.Closing == m1.Closing {
		t.Fatal("replica 1 somehow saw the un-gossiped deposit")
	}
	converge(t, s, b)
	s.RunFor(time.Millisecond)
	n1 := b.IssueStatement(1, "acct", s.Now())
	if n1.Closing != m0.Closing {
		t.Fatalf("statements never reconcile: %d vs %d", n1.Closing, m0.Closing)
	}
}

// TestPropStatementsSumToBalance: however checks and deposits interleave,
// the final statement closing equals the replica's balance — the ledger
// and the account can't drift apart.
func TestPropStatementsSumToBalance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, b := newBank(seed, 2)
		no := 0
		for i := 0; i < 15; i++ {
			rep := r.Intn(2)
			if r.Intn(2) == 0 {
				b.Deposit(rep, "acct", int64(r.Intn(100)+1), func(core.Result) {})
			} else {
				no++
				b.ClearCheck(rep, "acct", no, int64(r.Intn(80)+1), policy.AlwaysAsync(), func(core.Result) {})
			}
			s.Run()
			if r.Intn(4) == 0 {
				b.IssueStatement(0, "acct", s.Now())
			}
			if r.Intn(3) == 0 {
				b.C.GossipRound()
				s.Run()
			}
		}
		for i := 0; i < 4; i++ {
			b.C.GossipRound()
			s.Run()
		}
		if !b.C.Converged() {
			return false
		}
		final := b.IssueStatement(0, "acct", s.Now())
		return final.Closing == b.Balance(0, "acct")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
