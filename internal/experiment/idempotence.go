package experiment

import (
	"fmt"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/uniq"
)

// E11Idempotence reproduces §2.1/§5.4: with at-least-once retries, only a
// uniquifier-based dedup keeps the business effect at exactly once.
func E11Idempotence() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Retries and uniquifiers: duplicate business effects with and without dedup",
		Claim: `§2.1: "the fault tolerant server system had better make this work idempotent or the retries would occasionally result in duplicative work." §5.4: "One book ordered online should not (very often) result in two books delivered to the customer."`,
		Run: func(seed int64) *stats.Table {
			tab := stats.NewTable("E11 — 300 orders through a lossy network with client retries",
				"20% message loss each way; clients retry every 50ms until acknowledged.",
				"loss", "dedup", "orders", "requests sent", "books shipped", "duplicate shipments")
			for _, loss := range []float64{0.05, 0.2, 0.4} {
				for _, dedup := range []bool{false, true} {
					s := sim.New(seed)
					net := simnet.New(s,
						simnet.WithLatency(simnet.Fixed(2*time.Millisecond)),
						simnet.WithLoss(loss))
					server := rpc.NewEndpoint(net, "server", 20*time.Millisecond)
					client := rpc.NewEndpoint(net, "client", 20*time.Millisecond)

					shipped := 0
					seen := uniq.NewDedup()
					server.Handle("order", func(_ string, req any, reply func(any)) {
						id := req.(uniq.ID)
						if !dedup || seen.Record(id) {
							shipped++ // a book leaves the warehouse
						}
						reply(true)
					})

					const orders = 300
					requests := 0
					acked := 0
					for i := 0; i < orders; i++ {
						id := uniq.ContentID([]byte(fmt.Sprintf("order-%d", i)))
						var send func()
						send = func() {
							requests++
							client.Call("server", "order", id, func(_ any, ok bool) {
								if ok {
									acked++
									return
								}
								send() // §2.1: "a request is issued and if a timer expires, it is reissued"
							})
						}
						send()
					}
					s.Run()
					if acked != orders {
						panic(fmt.Sprintf("E11: %d/%d orders acked", acked, orders))
					}
					dupes := shipped - orders
					tab.AddRow(stats.Pct(loss), fmt.Sprint(dedup),
						fmt.Sprint(orders), fmt.Sprint(requests),
						fmt.Sprint(shipped), fmt.Sprint(dupes))
				}
			}
			return tab
		},
	}
}
