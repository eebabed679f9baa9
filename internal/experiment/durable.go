package experiment

import (
	"context"
	"fmt"
	"os"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E15DurableRecovery kills a durable replica in the middle of the §6.2
// check-clearing workload, recovers it from disk alone, and compares the
// whole run — accepted operations, apology count, final balances —
// against a never-crashed control arm driven by the identical schedule.
//
// The schedule is built from bursts: within a burst every live replica
// clears checks on its local guess with no gossip at all (concurrent
// clears on the hot account overdraw it — §5.2's probabilistic
// bookkeeping at work, identically in both arms), and between bursts the
// group converges fully. Replica r1 is killed after the second burst —
// its RAM, fold checkpoint, and gossip journal destroyed — and the rest
// of the workload runs on the survivors in both arms, so the only
// difference between the arms is the crash itself. r1 then recovers
// from journal replay alone and rejoins gossip.
//
// The claim checked: a crash-and-recovery cycle changes *nothing* about
// the business outcome. Ops, apologies, and every per-account balance
// must be byte-identical across arms, and the apologies that do appear
// are exactly the in-burst concurrent overdrafts the paper predicts —
// not artifacts of the crash.
func E15DurableRecovery() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Durable store: kill a replica mid-workload, recover from disk, nothing changes",
		Claim: `§3.2: the log "was also used to describe the changes that should be known to the backup" — checkpointing and logging are one stream, so a process that loses its memory can be rebuilt from the log it already wrote; §5.1: on restart you "examine the work in the tail of the log and determine what the heck to do"; §7.6 requires the recovered replica, once the memories flow back together, to reach the same answer as if it had never crashed.`,
		Run: func(seed int64) *stats.Table {
			const (
				hot     = "acct-hot"
				hotSeed = 100_00
				amount  = 10_00
			)
			tab := stats.NewTable(
				"E15 — never-crashed control vs kill+recover of r1 after burst 2",
				"3 replicas on the simulator, disk store per replica (its flush an event of the simulator), the journal the only copy of each ledger. Bursts clear checks on local guesses with no gossip (concurrent clears overdraw the hot account), full convergence between bursts. r1 ops at recovery counts what journal replay rebuilt before any gossip.",
				"arm", "ops", "r1 ops at kill", "r1 ops at recovery", "apologies", "hot balance", "converged")

			type armResult struct {
				ops       int
				apologies int
				balance   int64
			}
			var arms []armResult
			for _, crash := range []bool{false, true} {
				dir, err := os.MkdirTemp("", "quicksand-e15-*")
				if err != nil {
					panic(fmt.Sprintf("E15: %v", err))
				}
				s := sim.New(seed)
				c := core.New[*bank.Accounts](bank.App{}, []core.Rule[*bank.Accounts]{bank.NoOverdraft()},
					core.WithTransport(rpc.NewSimTransport(s)), core.WithReplicas(3),
					core.WithDurability(dir))
				ctx := context.Background()

				submit := func(rep int, kind string, cents int64) {
					if _, err := c.Submit(ctx, rep, core.NewOp(kind, hot, cents)); err != nil {
						panic(fmt.Sprintf("E15 submit: %v", err))
					}
				}
				gossip := func(rounds int) {
					for i := 0; i < rounds; i++ {
						c.GossipRound()
						s.Run()
					}
				}

				// Fund the hot account and make the truth common knowledge.
				submit(0, bank.KindDeposit, hotSeed)
				gossip(2)

				// Burst 1: every replica clears 3 on its guess of $100 — all
				// covered. Burst 2: every replica sees $10 and clears 1; the
				// merged truth is overdrawn by the two extra clears.
				for burst := 0; burst < 2; burst++ {
					for rep := 0; rep < 3; rep++ {
						for k := 0; k < 3; k++ {
							submit(rep, bank.KindClear, amount)
						}
					}
					gossip(2)
				}

				killOps := 0
				if crash {
					killOps = c.Replica(1).OpCount()
					c.Kill(1)
				}

				// Bursts 3 and 4 run on the survivors — the same schedule in
				// BOTH arms, so the arms differ only by the crash: deposits
				// refill the account, then concurrent clears overdraw it again.
				for _, rep := range []int{0, 2} {
					submit(rep, bank.KindDeposit, 30_00)
				}
				gossip(2)
				for burst := 0; burst < 2; burst++ {
					for _, rep := range []int{0, 2} {
						for k := 0; k < 2; k++ {
							submit(rep, bank.KindClear, amount)
						}
					}
					gossip(2)
				}

				recoveredOps := 0
				if crash {
					if err := c.Recover(ctx, 1); err != nil {
						panic(fmt.Sprintf("E15 recover: %v", err))
					}
					recoveredOps = c.Replica(1).OpCount()
					if recoveredOps != killOps {
						panic(fmt.Sprintf("E15: disk rebuilt %d ops, %d were durable at the kill", recoveredOps, killOps))
					}
				}
				gossip(4)
				if !c.Converged() {
					panic("E15: cluster did not converge")
				}

				res := armResult{
					ops:       c.Replica(1).OpCount(),
					apologies: len(c.Apologies.Human()) + len(c.Apologies.Automated()),
					balance:   c.Replica(1).State().Balance(hot),
				}
				arms = append(arms, res)
				arm, killCol, recCol := "control", "-", "-"
				if crash {
					arm = "kill+recover"
					killCol, recCol = fmt.Sprint(killOps), fmt.Sprint(recoveredOps)
				}
				tab.AddRow(arm, fmt.Sprint(res.ops), killCol, recCol,
					fmt.Sprint(res.apologies), fmt.Sprintf("%d¢", res.balance), fmt.Sprint(c.Converged()))
				c.Close()
				os.RemoveAll(dir)
			}
			if arms[0] != arms[1] {
				panic(fmt.Sprintf("E15: arms diverged — control %+v, crashed %+v", arms[0], arms[1]))
			}
			if arms[0].apologies == 0 {
				panic("E15: workload produced no apologies; the differential is vacuous")
			}
			return tab
		},
	}
}
