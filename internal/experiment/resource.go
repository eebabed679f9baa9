package experiment

import (
	"fmt"
	"time"

	"repro/internal/resource"
	"repro/internal/seats"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E8Allocation reproduces §7.1: the over-provisioning / over-booking
// spectrum under disconnected, skewed demand.
func E8Allocation() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Over-provisioning vs over-booking across disconnection epochs",
		Claim: `§7.1: "It is possible to be conservative and ensure you NEVER have to apologize ... This will, however, sometimes result in you deciding to decline business you would rather have. You can dynamically slide between these positions."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E8 — 1,000 units, 4 replicas, 3 disconnection epochs, skewed demand for 1,100 units",
				"Demand is Zipf-skewed across replicas, so quotas strand stock where demand isn't.",
				"factor", "accepted", "declined", "declined w/ stock idle", "apologies", "fill rate")
			for _, factor := range []float64{1.0, 1.05, 1.1, 1.2, 1.5} {
				s := sim.New(seed)
				pool := resource.NewPool(1000, 4, factor)
				r := s.Rand()
				// Three disconnected epochs; demand heavily favors
				// replicas 0 and 1.
				demandReplica := func() int {
					x := r.Float64()
					switch {
					case x < 0.45:
						return 0
					case x < 0.80:
						return 1
					case x < 0.95:
						return 2
					default:
						return 3
					}
				}
				requests := 1100
				perEpoch := requests / 3
				for epoch := 0; epoch < 3; epoch++ {
					pool.Disconnect()
					n := perEpoch
					if epoch == 2 {
						n = requests - 2*perEpoch
					}
					for i := 0; i < n; i++ {
						pool.Request(demandReplica(), 1)
					}
					pool.Connect()
				}
				m := pool.Metrics()
				tab.AddRow(
					stats.F(factor, 2),
					fmt.Sprint(m.Accepted), fmt.Sprint(m.Declined),
					fmt.Sprint(m.DeclinedWithStockIdle),
					fmt.Sprint(m.Apologies),
					stats.Pct(stats.Ratio(m.Delivered, 1000)))
			}
			return tab
		},
	}
}

// E9Seats reproduces §7.3: bounded holds against an untrusted agent.
func E9Seats() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Seat reservation pattern: hold TTL vs a scalping adversary",
		Claim: `§7.3: "untrusted agents could exploit these aspects of the system to quickly start a set of transactions against prime seats, making them unavailable to others ... you have a bounded period of time, (typically minutes), to complete the transaction."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E9 — 40 prime seats, a scalper who holds and never buys, buyers arriving for 2h",
				"Buyers want a prime seat and retry for 10 minutes before giving up.",
				"hold TTL", "prime sold to buyers", "buyers turned away", "holds expired", "scalper holds")
			for _, ttl := range []time.Duration{0, 2 * time.Minute, 5 * time.Minute, 15 * time.Minute} {
				s := sim.New(seed)
				const prime = 40
				v := seats.NewVenue(s, prime, ttl)

				// The scalper camps every prime seat and re-camps when
				// a hold expires.
				scalperHolds := 0
				var camp func()
				camp = func() {
					for i := 0; i < prime; i++ {
						if v.Hold(i, "scalper") {
							scalperHolds++
						}
					}
					if s.Now() < 2*time.Hour {
						s.After(time.Minute, camp)
					}
				}
				camp()

				// Buyers arrive Poisson (one per ~90s), each retrying
				// for up to 10 minutes.
				bought, turnedAway := 0, 0
				buyer := 0
				workload.PoissonLoop(s, 90*time.Second, 70, func(int) {
					buyer++
					who := fmt.Sprintf("buyer-%d", buyer)
					deadline := s.Now() + 10*time.Minute
					var try func()
					try = func() {
						for i := 0; i < prime; i++ {
							if v.Hold(i, who) {
								v.Buy(i, who)
								bought++
								return
							}
						}
						if s.Now() < deadline {
							s.After(30*time.Second, try)
						} else {
							turnedAway++
						}
					}
					try()
				})
				s.RunUntil(3 * time.Hour)
				ttlName := ttl.String()
				if ttl == 0 {
					ttlName = "unbounded"
				}
				tab.AddRow(ttlName, fmt.Sprint(bought), fmt.Sprint(turnedAway),
					fmt.Sprint(v.M.Expired.Value()), fmt.Sprint(scalperHolds))
			}
			return tab
		},
	}
}
