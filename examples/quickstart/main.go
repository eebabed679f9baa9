// Quickstart: a replicated, eventually consistent ledger on the public
// quicksand API in under a screen of code.
//
// Three replicas running on real goroutines (the default live transport)
// accept debits and credits on local knowledge (guesses), gossip their
// operation ledgers in the background, and converge to the same balance
// no matter which replica saw which operation first — the ACID 2.0
// pattern of Building on Quicksand (CIDR 2009), §6.5–§8.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	quicksand "repro"
)

// ledgerApp derives a balance by folding credit/debit operations.
type ledgerApp struct{}

func (ledgerApp) Init() int64 { return 0 }

// Commutes declares the App order-free: credits and debits add up the
// same in any order, so a replica folds a late one in where it lands.
func (ledgerApp) Commutes() {}

func (ledgerApp) Step(bal int64, op quicksand.Op) int64 {
	if op.Kind == "credit" {
		return bal + op.Arg
	}
	return bal - op.Arg
}

func run(out io.Writer) {
	cluster := quicksand.New[int64](ledgerApp{}, nil,
		quicksand.WithReplicas(3),
		quicksand.WithGossipEvery(2*time.Millisecond))
	defer cluster.Close()
	ctx := context.Background()

	// Each replica accepts work independently — no coordination, no
	// waiting: every acceptance is a guess made on local knowledge.
	fmt.Fprintln(out, "submitting one operation at each replica:")
	for i, op := range []quicksand.Op{
		quicksand.NewOp("credit", "acct", 500),
		quicksand.NewOp("debit", "acct", 120),
		quicksand.NewOp("credit", "acct", 75),
	} {
		res, err := cluster.Submit(ctx, i, op)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(out, "  replica r%d accepted %s of %d¢: %v\n", i, op.Kind, op.Arg, res.Accepted)
	}

	// Bulk ingest goes through SubmitBatch: one blocking call, results
	// aligned with the ops by index.
	batch := []quicksand.Op{
		quicksand.NewOp("credit", "acct", 40),
		quicksand.NewOp("debit", "acct", 15),
	}
	results, err := cluster.SubmitBatch(ctx, 0, batch)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "batch of %d at r0: all accepted=%v\n", len(batch),
		results[0].Accepted && results[1].Accepted)

	// Memories flow together (§7.6): background gossip spreads every
	// operation everywhere within a few rounds.
	deadline := time.Now().Add(2 * time.Second)
	for !cluster.Converged() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	fmt.Fprintln(out, "\nafter gossip, every replica tells the same story:")
	for i, bal := range cluster.States() {
		fmt.Fprintf(out, "  r%d balance: %d¢ (%d ops)\n", i, bal, cluster.Replica(i).OpCount())
	}
	fmt.Fprintf(out, "\nconverged: %v — same ops, same fold, same answer, any order\n", cluster.Converged())
}

func main() { run(os.Stdout) }
