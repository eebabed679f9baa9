package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/oplog"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/twopc"
	"repro/internal/workload"
)

// capApp is a trivial commutative op-counter for the availability run.
type capApp struct{}

func (capApp) Init() int64                       { return 0 }
func (capApp) Step(s int64, _ oplog.Entry) int64 { return s + 1 }

// E12CAPAvailability reproduces §2.3/§8.2: coordination-per-operation is
// fragile under churn; ACID 2.0 gossip keeps accepting work and converges
// afterwards.
func E12CAPAvailability() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "CAP under churn: 2PC per operation vs ACID 2.0 gossip",
		Claim: `§2.3: "Distributed transactions (especially using the Two Phase Commit protocol) result in fragile systems and reduced availability." §8.2: with commutativity and associativity "it is possible to be very lazy about the sharing of information."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E12 — 500 operations over 5s, 3 nodes, crash churn (MTBF 400ms, MTTR 150ms)",
				"2PC needs every participant; the gossip cluster needs only the ingress replica.",
				"protocol", "attempted", "succeeded", "availability", "crashes injected", "converged after heal")
			const ops = 500
			mtbf, mttr := 400*time.Millisecond, 150*time.Millisecond

			// 2PC.
			{
				s := sim.New(seed)
				g := twopc.New(s, twopc.Config{Participants: 3, CallTimeout: 30 * time.Millisecond})
				inj := failure.NewInjector(s, g.Net(), g.ParticipantIDs(), mtbf, mttr, nil).Start()
				ok := 0
				workload.PoissonLoop(s, 10*time.Millisecond, ops, func(int) {
					g.Commit(func(c bool) {
						if c {
							ok++
						}
					})
				})
				s.RunUntil(8 * time.Second)
				inj.Stop()
				s.Run()
				tab.AddRow("2PC (classic ACID)", fmt.Sprint(ops), fmt.Sprint(ok),
					stats.Pct(stats.Ratio(int64(ok), ops)), fmt.Sprint(inj.Crashes()), "n/a")
			}

			// ACID 2.0 gossip cluster.
			{
				s := sim.New(seed)
				tr := rpc.NewSimTransport(s)
				c := core.New[int64](capApp{}, nil,
					core.WithTransport(tr), core.WithReplicas(3), core.WithCallTimeout(30*time.Millisecond))
				nodes := []string{"r0", "r1", "r2"}
				inj := failure.NewInjector(s, tr.Net(), nodes, mtbf, mttr, nil).Start()
				stop := c.StartGossip(50 * time.Millisecond)
				ok := 0
				workload.PoissonLoop(s, 10*time.Millisecond, ops, func(i int) {
					// Clients fail over to any live replica, as Dynamo
					// clients do.
					rep := i % 3
					for probe := 0; probe < 3; probe++ {
						if tr.Net().IsUp(nodes[(rep+probe)%3]) {
							rep = (rep + probe) % 3
							break
						}
					}
					c.SubmitAsync(rep, core.NewOp("op", "k", 1), func(res core.Result) {
						if res.Accepted {
							ok++
						}
					}, core.WithPolicy(policy.AlwaysAsync()))
				})
				s.RunUntil(8 * time.Second)
				inj.Stop()
				stop() // cancel the periodic gossip so the queue can drain
				s.Run()
				for i := 0; i < 6 && !c.Converged(); i++ {
					c.GossipRound()
					s.Run()
				}
				tab.AddRow("ACID 2.0 (gossip)", fmt.Sprint(ops), fmt.Sprint(ok),
					stats.Pct(stats.Ratio(int64(ok), ops)), fmt.Sprint(inj.Crashes()),
					fmt.Sprint(c.Converged()))
			}
			return tab
		},
	}
}
