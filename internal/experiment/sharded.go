package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// shardArm is the shard count the sharded arm of shard-aware experiments
// (E14) compares against the unsharded baseline.
const shardArm = 4

// E14ShardedHotKey partitions the §6.2 bank across independent replica
// groups and drives it with a hot-key skewed clearing workload: half of
// all checks hit one account, the rest spread over 39 cold ones. The
// same schedule runs unsharded and sharded; both arms must accept the
// same operations and surface the same number of uncovered-check
// apologies — sharding changes where work happens, never what the
// per-key truth is. The per-shard rows expose what the skew does to a
// partitioned deployment: the hot account pins its shard's share of ops
// (the serialized fraction that bounds scaling — BenchmarkLiveSharded
// measures the wall-clock realization) and every apology lands on the
// hot shard, while the other shards stay apology-free and lightly
// loaded.
func E14ShardedHotKey() Experiment {
	return Experiment{
		ID:    "E14",
		Title: "Sharded replica groups under a hot-key skewed workload",
		Claim: `§2.3: the applications that scale "have a unique identifier" for their data and are "designed to scale almost linearly" by partitioning those keys across machines; §6.2's replicated check clearing keeps per-account truth under eventual consistency, so carving the accounts into independent replica groups must preserve every per-key outcome — including which guesses turn into apologies.`,
		Run: func(seed int64) *stats.Table {
			const (
				coldAccounts = 39
				clears       = 1200
				hotSeed      = 300_00  // covers 30 of the 10_00¢ checks per replica guess
				coldSeed     = 1000_00 // covers any cold account's worst-case draw
				amount       = 10_00
			)
			tab := stats.NewTable(
				fmt.Sprintf("E14 — unsharded vs %d shards, %d checks, 50%% on one hot account", shardArm, clears),
				"3 replicas per group on the simulator; checks clear on local guesses with no gossip until quiesce, so concurrent clears of the hot account overdraw it; apologies are the uncovered checks discovered at convergence. op share is each shard's fraction of all accepted ops — the serialized fraction that bounds live scaling.",
				"shards", "shard", "ops", "op share", "apologies", "fold steps")

			type arm struct {
				totalOps  int
				apologies int
			}
			var arms []arm
			for _, shards := range []int{1, shardArm} {
				rng := rand.New(rand.NewSource(seed))
				s := sim.New(seed)
				c := core.New[*bank.Accounts](bank.App{}, []core.Rule[*bank.Accounts]{bank.NoOverdraft()},
					core.WithSim(s), core.WithReplicas(3), core.WithShards(shards))
				ctx := context.Background()

				account := func(i int) string {
					if i < 0 {
						return "acct-hot"
					}
					return fmt.Sprintf("acct-c%02d", i)
				}
				// Seed every account and converge, so each replica's later
				// guesses start from the same funded truth.
				deposit := func(acct string, cents int64) {
					if _, err := c.Submit(ctx, 0, core.NewOp(bank.KindDeposit, acct, cents)); err != nil {
						panic(fmt.Sprintf("E14 deposit: %v", err))
					}
				}
				deposit(account(-1), hotSeed)
				for i := 0; i < coldAccounts; i++ {
					deposit(account(i), coldSeed)
				}
				for i := 0; i < 2*3 && !c.Converged(); i++ {
					c.GossipRound()
					s.Run()
				}
				// The skewed clearing storm: no gossip while it runs, so
				// each replica guesses from what it alone has admitted.
				for i := 0; i < clears; i++ {
					acct := account(rng.Intn(coldAccounts))
					if rng.Intn(2) == 0 {
						acct = account(-1)
					}
					if _, err := c.Submit(ctx, i%3, core.NewOp(bank.KindClear, acct, amount)); err != nil {
						panic(fmt.Sprintf("E14 clear: %v", err))
					}
				}
				for i := 0; i < 4*3 && !c.Converged(); i++ {
					c.GossipRound()
					s.Run()
				}
				if !c.Converged() {
					panic("E14: cluster did not converge")
				}

				apologiesByShard := make([]int, c.Shards())
				for _, a := range c.Apologies.Human() {
					apologiesByShard[c.ShardOf(a.Key)]++
				}
				var a arm
				opsByShard := make([]int, c.Shards())
				for sh := 0; sh < c.Shards(); sh++ {
					opsByShard[sh] = c.ShardReplica(sh, 0).OpCount()
					a.totalOps += opsByShard[sh]
					a.apologies += apologiesByShard[sh]
				}
				for sh := 0; sh < c.Shards(); sh++ {
					tab.AddRow(fmt.Sprint(c.Shards()), fmt.Sprint(sh),
						fmt.Sprint(opsByShard[sh]),
						fmt.Sprintf("%.0f%%", 100*float64(opsByShard[sh])/float64(a.totalOps)),
						fmt.Sprint(apologiesByShard[sh]),
						fmt.Sprint(c.ShardMetrics(sh).FoldSteps.Value()))
				}
				arms = append(arms, a)
			}
			if arms[0].totalOps != arms[1].totalOps || arms[0].apologies != arms[1].apologies {
				panic(fmt.Sprintf("E14: arms diverged — ops %d vs %d, apologies %d vs %d",
					arms[0].totalOps, arms[1].totalOps, arms[0].apologies, arms[1].apologies))
			}
			return tab
		},
	}
}
