package experiment

import (
	"context"
	"fmt"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E13IncrementalFold measures what admission costs as the ledger grows:
// every rule-checked submit must derive replica state, and one can either
// advance a fold checkpoint by the new entries (O(new)) — what the engine
// does — or replay the whole operation set from genesis (O(ledger)) —
// what it did before checkpoints, reproduced here as the oracle. The
// experiment derives the same single-replica, rule-checked deposit
// workload both ways and counts App.Step invocations — the derivation
// work itself, independent of hardware — then checks both derived
// identical balances.
func E13IncrementalFold() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "Checkpointed folds: admission cost vs ledger size",
		Claim: `§7.6: "replicas that have seen the same work should see the same result, independent of the order in which the work has arrived" — the canonical fold defines the state, but nothing in §7.6 requires re-running it from scratch; §3.3: Tandem's DP2 stopped checkpointing every WRITE and instead sent "periodic checkpoints" anchored to the transaction log, decoupling checkpoint cost from write rate.`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E13 — App.Step invocations to admit n rule-checked deposits",
				"1 replica on the simulator; every submit admission-checks the no-overdraft rule against derived state; checkpointed fold vs full refold over 20 accounts; both engines must derive identical final balances.",
				"ops", "engine", "Step calls", "steps/submit", "refold speedup", "states equal")
			for _, n := range []int{1_000, 2_500, 5_000, 10_000} {
				s := sim.New(seed)
				b := bank.New(30_00, core.WithSim(s), core.WithReplicas(1))
				ops := make([]core.Op, n)
				for i := range ops {
					ops[i] = core.NewOp(bank.KindDeposit, fmt.Sprintf("acct-%02d", i%20), 100)
				}
				if _, err := b.C.SubmitBatch(context.Background(), 0, ops); err != nil {
					panic(fmt.Sprintf("E13: %v", err))
				}
				s.Run()
				// The baseline is genesis replay, run rather than assumed (the
				// engine has no such mode): re-derive the state each admission
				// leaves behind the pre-checkpoint way — Init, then Step over
				// the whole canonical prefix — with a Step that counts.
				var steps [2]int64
				var final [2]*bank.Accounts
				steps[0] = b.C.Metrics().FoldSteps.Value()
				final[0] = b.C.Replica(0).State()
				app := bank.App{}
				ledger := b.C.Replica(0).Ops().Entries()
				for k := 1; k <= len(ledger); k++ {
					final[1] = app.Init()
					for _, e := range ledger[:k] {
						final[1] = app.Step(final[1], e)
						steps[1]++
					}
				}
				equal := len(final[0].Bal) == len(final[1].Bal)
				for acct, bal := range final[0].Bal {
					if final[1].Bal[acct] != bal {
						equal = false
					}
				}
				for mode, name := range []string{"checkpointed", "full refold"} {
					tab.AddRow(fmt.Sprint(n), name,
						fmt.Sprint(steps[mode]),
						fmt.Sprintf("%.2f", float64(steps[mode])/float64(n)),
						fmt.Sprintf("%.1f×", float64(steps[1])/float64(steps[mode])),
						fmt.Sprint(equal))
				}
			}
			return tab
		},
	}
}
