package experiment

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// seedAccounts deposits opening balances everywhere and converges.
func seedAccounts(s *sim.Sim, b *bank.Bank, accounts int, cents int64) {
	for a := 0; a < accounts; a++ {
		b.Deposit(0, fmt.Sprintf("acct-%04d", a), cents, func(core.Result) {})
	}
	s.Run()
	for i := 0; i < b.C.Replicas()+2; i++ {
		b.C.GossipRound()
		s.Run()
	}
}

// E6BankClearing reproduces §6.2's replicated check clearing: commutative
// debits and credits, convergence independent of order, and the rare
// overdraft as a quantified business risk.
func E6BankClearing() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Replicated check clearing: convergence and overdraft risk vs gossip lag",
		Claim: `§6.2: "There is a small (but present) possibility that multiple checks presented to different replicas will cause an overdraft that is not detected in time to bounce one of the checks"; §7.6: "replicas that have seen the same work should see the same result, independent of the order in which the work has arrived."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E6 — checks cleared at independent replicas",
				"20 accounts × $100 opening, salary deposits every 5th event; 600 events (checks lognormal ≈ $30 median) over 3s; overdrafts bounce automatically.",
				"replicas", "gossip every", "cleared", "declined", "bounce fees", "bounce rate", "convergence lag", "balances equal")
			for _, replicas := range []int{2, 3, 5} {
				for _, gossip := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
					s := sim.New(seed)
					b := bank.New(30_00, core.WithTransport(rpc.NewSimTransport(s)), core.WithReplicas(replicas))
					seedAccounts(s, b, 20, 100_00)

					r := s.Rand()
					keys := workload.UniformKeys(r, "acct", 20)
					amounts := workload.LogNormalCents(r, math.Log(30_00), 0.8)
					cleared, declined := 0, 0
					stop := b.C.StartGossip(gossip)
					// Once the last check lands, poll until every replica
					// holds the same ledger: the configuration's
					// time-to-consistency.
					var lastAcceptedAt, convergedAt time.Duration
					const total = 600
					probe := func() {
						var poll func()
						poll = func() {
							if b.C.Converged() {
								convergedAt = s.Now()
								return
							}
							if s.Now() < lastAcceptedAt+time.Minute {
								s.After(gossip/4, poll)
							}
						}
						poll()
					}
					workload.PoissonLoop(s, 5*time.Millisecond, total, func(i int) {
						acct := keys()
						done := func(res core.Result) {
							if res.Accepted {
								cleared++
								lastAcceptedAt = s.Now()
							} else {
								declined++
							}
							if i == total-1 {
								probe()
							}
						}
						if i%5 == 0 {
							// Salary day: replenishment keeps the checks
							// flowing all run long.
							b.Deposit(i%replicas, acct, 2*amounts(), done)
							return
						}
						b.ClearCheck(i%replicas, acct, i+1000, amounts(), policy.AlwaysAsync(), done)
					})
					s.RunUntil(10 * time.Second)
					stop()
					s.Run()
					for i := 0; i < replicas+2 && !b.C.Converged(); i++ {
						b.C.GossipRound()
						s.Run()
					}
					if !b.C.Converged() {
						panic("E6: never converged")
					}
					lag := convergedAt - lastAcceptedAt
					if convergedAt == 0 {
						lag = -1 // converged only after the forced rounds
					}
					equal := true
					base := b.C.Replica(0).State()
					for rep := 1; rep < replicas; rep++ {
						st := b.C.Replica(rep).State()
						for acct, bal := range base.Bal {
							if st.Bal[acct] != bal {
								equal = false
							}
						}
					}
					tab.AddRow(fmt.Sprint(replicas), gossip.String(),
						fmt.Sprint(cleared), fmt.Sprint(declined),
						fmt.Sprint(b.Bounced.Value()),
						stats.Pct(stats.Ratio(b.Bounced.Value(), int64(cleared))),
						lag.String(), fmt.Sprint(equal))
				}
			}
			return tab
		},
	}
}

// E10RiskPolicy reproduces §5.5/§5.8: slide the sync threshold and watch
// latency trade against dollar exposure.
func E10RiskPolicy() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Risk policy sweep: the $10,000-check rule as a latency/exposure dial",
		Claim: `§5.5: "Locally clear a check if the face value is less than $10,000. If it exceeds $10,000, double check with all the replicas to make sure it clears." §5.8: synchronous checkpoints OR apologies.`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E10 — clearing latency and at-risk dollars vs sync threshold",
				"3 replicas; 400 checks, lognormal amounts (median ≈ $2,000, heavy tail); gossip every 50ms.",
				"sync threshold", "%sync", "clear p50", "clear p99", "guessed $ exposure", "bounce fees")
			thresholds := []struct {
				name  string
				limit int64
			}{
				{"$0 (all sync)", 0},
				{"$1,000", 1_000_00},
				{"$10,000", 10_000_00},
				{"$100,000", 100_000_00},
				{"∞ (all async)", math.MaxInt64},
			}
			for _, th := range thresholds {
				s := sim.New(seed)
				b := bank.New(30_00, core.WithTransport(rpc.NewSimTransport(s)), core.WithReplicas(3))
				seedAccounts(s, b, 20, 50_000_00)
				r := s.Rand()
				keys := workload.UniformKeys(r, "acct", 20)
				amounts := workload.LogNormalCents(r, math.Log(2_000_00), 1.2)
				pol := policy.Threshold(th.limit)
				var syncCount, total int
				var exposure int64
				stop := b.C.StartGossip(50 * time.Millisecond)
				workload.PoissonLoop(s, 10*time.Millisecond, 400, func(i int) {
					amt := amounts()
					b.ClearCheck(i%3, keys(), i+1, amt, pol, func(res core.Result) {
						if !res.Accepted {
							return
						}
						total++
						if res.Decision == policy.Sync {
							syncCount++
						} else {
							exposure += amt
						}
					})
				})
				s.RunUntil(6 * time.Second)
				stop()
				s.Run()
				// Combined latency view across both paths.
				m := b.C.Metrics()
				merged := &m.AsyncLat
				merged.Merge(&m.SyncLat)
				tab.AddRow(th.name,
					stats.Pct(stats.Ratio(int64(syncCount), int64(total))),
					stats.Dur(merged.P50()), stats.Dur(merged.P99()),
					fmt.Sprintf("$%.0f", float64(exposure)/100),
					fmt.Sprint(b.Bounced.Value()))
			}
			return tab
		},
	}
}
