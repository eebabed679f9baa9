package experiment

import (
	"fmt"
	"time"

	"repro/internal/dynamo"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// A3QuorumSweep measures the R/W quorum trade on the Dynamo store: R+W>N
// guarantees reads see the latest acked write; R+W<=N trades staleness for
// latency and availability.
func A3QuorumSweep() Experiment {
	return Experiment{
		ID:    "A3",
		Title: "Ablation: Dynamo R/W quorum sweep — latency, staleness, availability",
		Claim: `§6.1 (via the Dynamo design the paper builds on): choosing availability over consistency is a per-operation quorum choice; "Dynamo always accepts a PUT ... even if this may result in an inconsistent GET later."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("A3 — N=3 over 5 nodes, writer+reader on one key, one replica flapping",
				"200 write/read rounds; a read is stale when it misses the just-acked write.",
				"R/W", "put p50", "get p50", "stale reads", "failed ops")
			configs := []struct{ r, w int }{{1, 1}, {1, 3}, {2, 2}, {3, 1}, {3, 3}}
			for _, q := range configs {
				s := sim.New(seed)
				cl := dynamo.New(s, dynamo.Config{Nodes: 5, N: 3, R: q.r, W: q.w})

				// One node flaps throughout the run.
				flapping := true
				stopFlap := s.Every(40*time.Millisecond, func() {
					flapping = !flapping
					cl.SetUp("n0", flapping)
				})

				stale, failed := 0, 0
				// Rounds are strictly sequential (write, then read, then
				// pause) so a "stale" read really measures quorum
				// overlap, not overlap between rounds. The writer tracks
				// its own causal history so a stale read can never
				// regress its clock (dynamo.NextClock).
				var last vclock.VC
				ctx := vclock.New()
				round := 0
				var loop func()
				loop = func() {
					round++
					if round > 200 {
						return
					}
					next := func() { s.After(5*time.Millisecond, loop) }
					val := fmt.Sprintf("v%04d", round)
					use := ctx.Merge(last)
					last = dynamo.NextClock(use, "writer")
					cl.Put("hot", val, use, "writer", func(ok bool) {
						if !ok {
							failed++
							next()
							return
						}
						cl.Get("hot", func(versions []dynamo.Version, c vclock.VC, ok bool) {
							if !ok {
								failed++
								next()
								return
							}
							ctx = c
							found := false
							for _, v := range versions {
								if v.Value == val {
									found = true
								}
							}
							if !found {
								stale++
							}
							next()
						})
					})
				}
				loop()
				s.RunUntil(5 * time.Second)
				stopFlap()
				cl.SetUp("n0", true)
				s.Run()
				tab.AddRow(fmt.Sprintf("R=%d W=%d", q.r, q.w),
					stats.Dur(cl.M.PutLat.P50()), stats.Dur(cl.M.GetLat.P50()),
					fmt.Sprint(stale), fmt.Sprint(failed))
			}
			return tab
		},
	}
}
