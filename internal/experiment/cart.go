package experiment

import (
	"fmt"
	"time"

	"repro/internal/cart"
	"repro/internal/dynamo"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// cartShopper abstracts the two cart designs for shared drivers.
type cartShopper interface {
	Add(sku string, qty int64, done func(bool))
	Delete(sku string, done func(bool))
	Contents(done func([]cart.Item, bool))
}

// runCartScenario drives `sessions` concurrent shoppers against one cart
// with optional node churn, then quiesces and audits. Every shopper adds
// `adds` distinct SKUs (qty 1 each) and deletes one of them at the end.
// Returns acked adds, acked deletes, lost adds, resurrected deletes, and
// sibling reconciliations.
func runCartScenario(seed int64, sessions, adds int, churn bool, mk func(cl *dynamo.Cluster, key, actor string) cartShopper) (acked, ackedDel, lostAdds, resurrected, reconciliations int) {
	s := sim.New(seed)
	cl := dynamo.New(s, dynamo.Config{Nodes: 5, N: 3, R: 2, W: 2})

	type sessionState struct {
		shopper cartShopper
		deleted string
	}
	states := make([]*sessionState, sessions)
	expect := map[string]bool{}  // SKUs whose add was acked
	deleted := map[string]bool{} // SKUs whose delete was acked

	for i := 0; i < sessions; i++ {
		i := i
		actor := fmt.Sprintf("shopper-%d", i)
		st := &sessionState{shopper: mk(cl, "cart", actor)}
		states[i] = st
		workload.PoissonLoop(s, 3*time.Millisecond, adds+1, func(step int) {
			if step < adds {
				sku := fmt.Sprintf("sku-%d-%d", i, step)
				st.shopper.Add(sku, 1, func(ok bool) {
					if ok {
						acked++
						expect[sku] = true
					}
				})
				return
			}
			// Final step: delete this shopper's first SKU.
			sku := fmt.Sprintf("sku-%d-0", i)
			st.shopper.Delete(sku, func(ok bool) {
				if ok {
					ackedDel++
					deleted[sku] = true
				}
			})
		})
	}
	if churn {
		// One node bounces mid-run; another bounces later.
		s.At(10*time.Millisecond, func() { cl.SetUp("n1", false) })
		s.At(30*time.Millisecond, func() { cl.SetUp("n1", true) })
		s.At(40*time.Millisecond, func() { cl.SetUp("n3", false) })
		s.At(70*time.Millisecond, func() { cl.SetUp("n3", true) })
	}
	s.Run()
	for i := 0; i < 4; i++ {
		cl.AntiEntropyRound()
		s.Run()
	}

	// Audit through a fresh reader.
	reader := mk(cl, "cart", "auditor")
	var final []cart.Item
	reader.Contents(func(items []cart.Item, ok bool) {
		if ok {
			final = items
		}
	})
	s.Run()
	have := map[string]int64{}
	for _, it := range final {
		have[it.SKU] = it.Qty
	}
	for sku := range expect {
		if deleted[sku] {
			if have[sku] > 0 {
				resurrected++
			}
			continue
		}
		if have[sku] == 0 {
			lostAdds++
		}
	}
	for i := range states {
		switch sh := states[i].shopper.(type) {
		case *cart.Session:
			reconciliations += sh.Reconciliations
		case *cart.StateMergeSession:
			reconciliations += sh.Reconciliations
		}
	}
	return acked, ackedDel, lostAdds, resurrected, reconciliations
}

func opCartFactory(cl *dynamo.Cluster, key, actor string) cartShopper {
	return cart.NewSession(cl, key, actor)
}

func stateCartFactory(cl *dynamo.Cluster, key, actor string) cartShopper {
	return cart.NewStateMergeSession(cl, key, actor)
}

// E5CartReconciliation reproduces §6.1: concurrent sessions and node
// churn create sibling versions; operation-centric reconciliation loses no
// acked ADD.
func E5CartReconciliation() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "Dynamo shopping cart: sibling reconciliation under concurrency and churn",
		Claim: `§6.1: "These ADD-TO-CART, CHANGE-NUMBER, and DELETE-FROM-CART operations can usually be reconciled when a union of the operations is finally joined together"; §6.4: "items added to the cart will not be lost."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E5 — operation-centric cart on the Dynamo store",
				"8 concurrent sessions on one cart (N=3,R=2,W=2, 5 nodes); audit after anti-entropy.",
				"scenario", "acked adds", "acked deletes", "lost adds", "resurrected deletes", "sibling merges")
			for _, churn := range []bool{false, true} {
				acked, dels, lost, res, rec := runCartScenario(seed, 8, 6, churn, opCartFactory)
				name := "steady cluster"
				if churn {
					name = "node churn"
				}
				tab.AddRow(name, fmt.Sprint(acked), fmt.Sprint(dels), fmt.Sprint(lost), fmt.Sprint(res), fmt.Sprint(rec))
			}
			return tab
		},
	}
}

// A1OpVsStateMerge is the §6.4 ablation: the same workload through the
// operation-centric cart and the state-merge strawman.
func A1OpVsStateMerge() Experiment {
	return Experiment{
		ID:    "A1",
		Title: "Ablation: operation-centric cart vs READ/WRITE state-merge cart",
		Claim: `§6.4: "Storage systems alone cannot provide the commutativity we need ... We need the business operations to reorder. WRITE is not commutative."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("A1 — the same concurrent workload, two cart designs",
				"8 sessions × 6 adds + 1 delete each, same store parameters as E5 (with churn).",
				"cart design", "acked adds", "lost adds", "resurrected deletes", "sibling merges")
			for _, design := range []struct {
				name string
				mk   func(cl *dynamo.Cluster, key, actor string) cartShopper
			}{
				{"operation-centric", opCartFactory},
				{"state-merge (strawman)", stateCartFactory},
			} {
				acked, _, lost, res, rec := runCartScenario(seed, 8, 6, true, design.mk)
				tab.AddRow(design.name, fmt.Sprint(acked), fmt.Sprint(lost), fmt.Sprint(res), fmt.Sprint(rec))
			}
			return tab
		},
	}
}
