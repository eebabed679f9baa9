// Replicated check clearing — the paper's Example 5 (§6.2), written
// entirely against the public quicksand API.
//
// Two bank replicas clear checks against the same account while
// partitioned. Each guess looks fine locally; when the partition heals
// and the ledgers flow together, the merged truth shows an overdraft.
// The bank's designed apology — an automatic bounce fee — fires exactly
// once, and both replicas converge to the same (negative) balance. A
// second run with a Threshold risk policy shows §5.8's alternative:
// coordinate the big checks and pay latency instead of apologies.
//
// Run with: go run ./examples/banking
package main

import (
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	quicksand "repro"
)

// Operation kinds.
const (
	kindDeposit = "deposit"
	kindClear   = "clear-check"
	kindFee     = "bounce-fee"
)

// uncovered records a check that cleared against insufficient funds in
// the canonical history.
type uncovered struct {
	detail string
	acct   string
	amount int64
}

// accounts is the state derived from the operation ledger.
type accounts struct {
	bal       map[string]int64
	uncovered []uncovered
}

// bankApp folds banking operations; deposits and debits commute, and the
// uncovered list depends only on the canonical fold order, which the
// engine fixes identically at every replica.
type bankApp struct{}

func (bankApp) Init() *accounts { return &accounts{bal: make(map[string]int64)} }

func (bankApp) Step(s *accounts, op quicksand.Op) *accounts {
	switch op.Kind {
	case kindDeposit:
		s.bal[op.Key] += op.Arg
	case kindClear:
		if s.bal[op.Key] < op.Arg {
			s.uncovered = append(s.uncovered, uncovered{
				detail: fmt.Sprintf("check %s for %d¢ cleared against insufficient funds", op.ID, op.Arg),
				acct:   op.Key,
				amount: op.Arg,
			})
		}
		s.bal[op.Key] -= op.Arg
	case kindFee:
		s.bal[op.Key] -= op.Arg
	}
	return s
}

// Snapshot returns a deep copy of the accounts. Implementing
// quicksand.Snapshotter lets the engine advance each replica's balance
// fold from a checkpoint instead of replaying the whole ledger on every
// admission check.
func (bankApp) Snapshot(s *accounts) *accounts {
	return &accounts{bal: maps.Clone(s.bal), uncovered: slices.Clone(s.uncovered)}
}

// noOverdraft is the probabilistically enforced business rule: each
// replica guesses from its local balance, and merged truth is swept for
// violations that become apologies.
func noOverdraft() quicksand.Rule[*accounts] {
	return quicksand.Rule[*accounts]{
		Name: "no-overdraft",
		Admit: func(s *accounts, op quicksand.Op) bool {
			return op.Kind != kindClear || s.bal[op.Key] >= op.Arg
		},
		Violated: func(s *accounts) []quicksand.Violation {
			out := make([]quicksand.Violation, 0, len(s.uncovered))
			for _, u := range s.uncovered {
				out = append(out, quicksand.Violation{Detail: u.detail, Key: u.acct, Amount: u.amount})
			}
			return out
		},
	}
}

// check builds a uniquified clear-check op: the check number is the
// uniquifier, so presenting the same check twice debits the account once.
func check(acct string, no int, cents int64) quicksand.Op {
	op := quicksand.NewOp(kindClear, acct, cents)
	op.ID = quicksand.CheckNumber("quicksand-bank", acct, no)
	return op
}

func converge(s *quicksand.Sim, c *quicksand.Cluster[*accounts]) {
	s.Run()
	for !c.Converged() {
		c.GossipRound()
		s.Run()
	}
}

func balance(c *quicksand.Cluster[*accounts], rep int, acct string) float64 {
	return float64(c.Replica(rep).State().bal[acct]) / 100
}

func run(out io.Writer) {
	s := quicksand.NewSim(11)
	tr := quicksand.NewSimTransport(s)
	b := quicksand.New[*accounts](bankApp{}, []quicksand.Rule[*accounts]{noOverdraft()},
		quicksand.WithTransport(tr), quicksand.WithReplicas(2))
	ctx := context.Background()

	// The designed apology (§5.6): business-specific compensation code
	// that charges a $30 fee, with no human in the loop.
	bounced := 0
	b.Apologies.AddHandler(func(a quicksand.Apology) bool {
		bounced++
		fee := quicksand.NewOp(kindFee, a.Key, 30_00)
		fee.Note = "overdraft fee for " + a.Detail
		b.SubmitAsync(0, fee, nil)
		return true
	})

	fmt.Fprintln(out, "opening deposit of $100, gossiped to both replicas:")
	res, err := b.Submit(ctx, 0, quicksand.NewOp(kindDeposit, "acct-007", 100_00))
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "  deposit accepted=%v\n", res.Accepted)
	converge(s, b)
	fmt.Fprintf(out, "  r0 sees $%.2f, r1 sees $%.2f\n", balance(b, 0, "acct-007"), balance(b, 1, "acct-007"))

	fmt.Fprintln(out, "\nthe replicas partition; two $70 checks are presented, one at each:")
	tr.Partition([]string{"r0"}, []string{"r1"})
	for i, no := range []int{101, 102} {
		res, err := b.Submit(ctx, i, check("acct-007", no, 70_00))
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(out, "  r%d clears check #%d for $70: accepted=%v (its guess: funds are there)\n",
			i, no, res.Accepted)
	}

	fmt.Fprintln(out, "\npartition heals; memories flow together; the 'Oh, crap!' moment:")
	tr.Heal()
	converge(s, b)
	for _, a := range b.Apologies.Automated() {
		fmt.Fprintf(out, "  apology (automated): %s\n", a.Detail)
	}
	converge(s, b) // spread the bounce-fee compensation op too
	fmt.Fprintf(out, "\nbounce fees issued: %d (deduped across replicas)\n", bounced)
	fmt.Fprintf(out, "final balances: r0 $%.2f, r1 $%.2f — identical, order be damned\n",
		balance(b, 0, "acct-007"), balance(b, 1, "acct-007"))

	fmt.Fprintln(out, "\nnow the same scenario with the $10,000-style rule (coordinate big checks):")
	b2 := quicksand.New[*accounts](bankApp{}, []quicksand.Rule[*accounts]{noOverdraft()},
		quicksand.WithTransport(quicksand.NewSimTransport(s)), quicksand.WithReplicas(2),
		quicksand.WithDefaultPolicy(quicksand.Threshold(50_00))) // coordinate anything >= $50
	if _, err := b2.Submit(ctx, 0, quicksand.NewOp(kindDeposit, "acct-009", 100_00)); err != nil {
		panic(err)
	}
	converge(s, b2)
	resA, err := b2.Submit(ctx, 0, check("acct-009", 201, 70_00))
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "  r0 clears $70 check with coordination: accepted=%v\n", resA.Accepted)
	resB, err := b2.Submit(ctx, 1, check("acct-009", 202, 70_00))
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "  r1 tries the second $70 check: accepted=%v (%s)\n", resB.Accepted, resB.Reason)
	fmt.Fprintf(out, "no apologies under coordination: %d — you paid latency instead (§5.8)\n",
		b2.Apologies.Total())

	// Act three: durability. The same bank with a disk under it — a
	// replica is hard-killed (its RAM and fold state destroyed, not
	// merely silenced), recovered from its journal and snapshot alone,
	// and the money is still there.
	fmt.Fprintln(out, "\nfinally, §3.2's log-as-checkpoint: the bank on disk, killed and recovered:")
	dir, err := os.MkdirTemp("", "quicksand-banking-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	s3 := quicksand.NewSim(23)
	b3 := quicksand.New[*accounts](bankApp{}, []quicksand.Rule[*accounts]{noOverdraft()},
		quicksand.WithTransport(quicksand.NewSimTransport(s3)), quicksand.WithReplicas(2), quicksand.WithDurability(dir))
	defer b3.Close()
	if _, err := b3.Submit(ctx, 0, quicksand.NewOp(kindDeposit, "acct-011", 100_00)); err != nil {
		panic(err)
	}
	converge(s3, b3)
	fmt.Fprintf(out, "  $100 deposited and durable at both replicas (r1 holds %d ops)\n",
		b3.Replica(1).OpCount())

	b3.Kill(1)
	fmt.Fprintf(out, "  r1 is killed: RAM gone, it now derives $%.2f from %d ops\n",
		balance(b3, 1, "acct-011"), b3.Replica(1).OpCount())

	// Business continues on the survivor while r1 is dead.
	if _, err := b3.Submit(ctx, 0, check("acct-011", 301, 40_00)); err != nil {
		panic(err)
	}
	s3.Run()
	fmt.Fprintf(out, "  meanwhile r0 clears a $40 check on its own: r0 sees $%.2f\n", balance(b3, 0, "acct-011"))

	if err := b3.Recover(ctx, 1); err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "  r1 recovers from disk alone: %d ops replayed, $%.2f rebuilt\n",
		b3.Replica(1).OpCount(), balance(b3, 1, "acct-011"))
	converge(s3, b3)
	fmt.Fprintf(out, "  gossip catches r1 up on the missed check: r0 $%.2f, r1 $%.2f — the crash changed nothing\n",
		balance(b3, 0, "acct-011"), balance(b3, 1, "acct-011"))
}

func main() { run(os.Stdout) }
