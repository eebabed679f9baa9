package experiment

import (
	"fmt"
	"time"

	"repro/internal/escrow"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workload"
)

// E7Escrow reproduces the §5.3 sidebar: escrow locking lets commutative
// add/subtract transactions interleave on a hot value where an exclusive
// lock serializes them.
func E7Escrow() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Escrow locking vs exclusive locking on a hot account",
		Claim: `§5.3 sidebar: "the work of multiple transactions can interleave as long as they are doing the commutative operations"; escrow locking "was implemented in Tandem's NonStop SQL ... to support high-throughput addition and subtraction."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E7 — throughput of add/subtract transactions, 10ms think time each",
				"Each client runs 30 transactions of ±10 against one account (bounds 0..1e6, start 5e5).",
				"clients", "scheme", "makespan", "txns/sec", "waits/conflicts")
			const txnsPerClient = 30
			think := 10 * time.Millisecond
			for _, clients := range []int{1, 2, 4, 8, 16, 32} {
				// Escrow: reservations interleave.
				{
					s := sim.New(seed)
					acct := escrow.NewAccount(500_000, 0, 1_000_000)
					done := 0
					for c := 0; c < clients; c++ {
						delta := int64(10)
						if c%2 == 1 {
							delta = -10
						}
						var run func(i int)
						run = func(i int) {
							if i == txnsPerClient {
								done++
								return
							}
							acct.Reserve(delta, func(txn uint64) {
								s.After(think, func() {
									acct.Commit(txn)
									run(i + 1)
								})
							})
						}
						run(0)
					}
					s.Run()
					if done != clients {
						panic("E7: escrow clients incomplete")
					}
					makespan := s.Now()
					tput := float64(clients*txnsPerClient) / makespan.Seconds()
					tab.AddRow(fmt.Sprint(clients), "escrow", makespan.String(),
						stats.F(tput, 0), fmt.Sprint(acct.Conflicts()))
				}
				// Exclusive: one holder at a time.
				{
					s := sim.New(seed)
					var mu escrow.Mutex
					val := int64(500_000)
					done := 0
					for c := 0; c < clients; c++ {
						delta := int64(10)
						if c%2 == 1 {
							delta = -10
						}
						var run func(i int)
						run = func(i int) {
							if i == txnsPerClient {
								done++
								return
							}
							mu.Acquire(func() {
								s.After(think, func() {
									val += delta
									mu.Release()
									run(i + 1)
								})
							})
						}
						run(0)
					}
					s.Run()
					if done != clients {
						panic("E7: mutex clients incomplete")
					}
					makespan := s.Now()
					tput := float64(clients*txnsPerClient) / makespan.Seconds()
					tab.AddRow(fmt.Sprint(clients), "exclusive", makespan.String(),
						stats.F(tput, 0), fmt.Sprint(mu.Waits()))
				}
			}
			return tab
		},
	}
}

// A2GroupCommit reproduces §3.2's city-bus economics at the log device.
func A2GroupCommit() Experiment {
	return Experiment{
		ID:    "A2",
		Title: "Ablation: group commit — a car per driver vs the city bus",
		Claim: `§3.2: "waiting to participate in shared buffer writes can, under the right circumstances, result in a reduction of latency since the overall system work is reduced."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("A2 — commit latency vs flush policy under load",
				"500 commits, Poisson arrivals; flush costs 1ms of device time; flushes serialize.",
				"arrival mean", "flush policy", "commit p50", "commit p99", "flushes", "mean batch")
			policies := []struct {
				name string
				cfg  wal.Config
			}{
				{"per-commit (car)", wal.Config{NoCoalesce: true, FlushCost: time.Millisecond}},
				{"coalescing", wal.Config{FlushCost: time.Millisecond}},
				{"timer 2ms (bus)", wal.Config{Interval: 2 * time.Millisecond, FlushCost: time.Millisecond}},
			}
			for _, arrival := range []time.Duration{5 * time.Millisecond, time.Millisecond, 600 * time.Microsecond} {
				for _, p := range policies {
					s := sim.New(seed)
					log := wal.New(nil)
					gc := wal.NewGroupCommitter(s, log, p.cfg)
					var lat stats.Histogram
					workload.PoissonLoop(s, arrival, 500, func(i int) {
						log.Append(wal.Record{Txn: uint64(i), Kind: wal.KindCommit})
						start := s.Now()
						gc.Commit(func() { lat.AddDur(s.Now() - start) })
					})
					s.Run()
					tab.AddRow(arrival.String(), p.name,
						stats.Dur(lat.P50()), stats.Dur(lat.P99()),
						fmt.Sprint(gc.Flushes()), stats.F(gc.MeanBatch(), 1))
				}
			}
			return tab
		},
	}
}
