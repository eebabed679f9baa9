package experiment

import (
	"fmt"
	"time"

	"repro/internal/logship"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E3LogShipLatency reproduces §4.1's latency argument: synchronous remote
// commit pays the WAN round trip on every transaction; asynchronous
// shipping keeps commit at local cost regardless of distance.
func E3LogShipLatency() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "Log shipping: commit latency, synchronous vs asynchronous, over distance",
		Claim: `§4.1: "the log shipping algorithm would need to stall the response to the commit request at the primary until the primary knows the backup has received the log. This delay is unacceptable in most installations."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E3 — commit latency vs one-way WAN latency",
				"300 commits per cell; async ships in the background, sync stalls the user.",
				"WAN one-way", "mode", "commit p50", "commit p99", "lag at quiesce")
			const commits = 300
			for _, wan := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond} {
				for _, syncMode := range []bool{false, true} {
					s := sim.New(seed)
					sys := logship.New(s, logship.Config{
						Sync:         syncMode,
						WANLatency:   wan,
						ShipInterval: 10 * time.Millisecond,
					})
					done := 0
					workload.PoissonLoop(s, 2*time.Millisecond, commits, func(i int) {
						sys.Commit(fmt.Sprintf("k%05d", i), "v", func(ok bool) {
							if ok {
								done++
							}
						})
					})
					s.Run()
					if done != commits {
						panic(fmt.Sprintf("E3: %d/%d commits acked", done, commits))
					}
					mode := "async"
					if syncMode {
						mode = "sync"
					}
					tab.AddRow(wan.String(), mode,
						stats.Dur(sys.M.CommitLat.P50()), stats.Dur(sys.M.CommitLat.P99()),
						fmt.Sprint(sys.BackupLagTxns()))
				}
			}
			return tab
		},
	}
}

// E4LogShipLoss reproduces §4.2: the window of acked-but-unshipped work
// that a takeover loses is the shipping lag times the throughput.
func E4LogShipLoss() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "Log shipping: committed work lost at takeover vs shipping lag",
		Claim: `§4.2: "a failure of the primary during this window will lock the work inside the primary ... the backup will move ahead without knowledge of the locked up work." §4.1: "when a fault DOES occur, some recent transactions are lost as the backup takes-over."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E4 — acked commits lost at takeover",
				"Poisson commits (mean 5ms) for 2s, crash at 1.5s; mean of 5 crash phases per cell. The naive window estimate is rate × (lag/2 + WAN); the shape (loss ∝ lag) is the claim.",
				"ship every", "mode", "mean lost/takeover", "naive estimate", "audit errors")
			rate := 5 * time.Millisecond
			for _, lag := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond} {
				var lost, audit int64
				const trials = 5
				for trial := 0; trial < trials; trial++ {
					s := sim.New(seed + int64(trial))
					sys := logship.New(s, logship.Config{
						WANLatency:   5 * time.Millisecond,
						ShipInterval: lag,
						DetectDelay:  time.Millisecond,
					})
					workload.PoissonLoop(s, rate, 400, func(i int) {
						sys.Commit(fmt.Sprintf("k%05d", i), "v", func(bool) {})
					})
					s.At(1500*time.Millisecond, func() { sys.CrashPrimary() })
					s.RunUntil(3 * time.Second)
					lost += sys.M.LostAtTakeover.Value()
					audit += int64(sys.Audit())
				}
				expected := float64(lag/2+5*time.Millisecond) / float64(rate)
				tab.AddRow(lag.String(), "async",
					stats.F(float64(lost)/trials, 1),
					stats.F(expected, 1),
					fmt.Sprint(audit))
			}
			// The sync row: transparency has no loss window at all.
			s := sim.New(seed)
			sys := logship.New(s, logship.Config{Sync: true, WANLatency: 5 * time.Millisecond, DetectDelay: time.Millisecond})
			workload.PoissonLoop(s, rate, 400, func(i int) {
				sys.Commit(fmt.Sprintf("k%05d", i), "v", func(bool) {})
			})
			s.At(1500*time.Millisecond, func() { sys.CrashPrimary() })
			s.RunUntil(3 * time.Second)
			tab.AddRow("-", "sync", fmt.Sprint(sys.M.LostAtTakeover.Value()), "0.0", fmt.Sprint(sys.Audit()))
			return tab
		},
	}
}
