// The seat reservation pattern — §7.3 of the paper.
//
// A scalper's bots grab every prime seat and never complete the purchase.
// With unbounded holds (the trusted-agent design) real buyers are starved;
// with a bounded "purchase pending" window and a durable cleanup queue,
// abandoned holds expire and the seats sell.
//
// Run with: go run ./examples/seatreservation
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/seats"
	"repro/internal/sim"
)

func sellOut(ttl time.Duration) (sold, turnedAway int, expired int64) {
	s := sim.New(3)
	const prime = 12
	v := seats.NewVenue(s, prime, ttl)

	// Scalper bots camp all prime seats, re-camping as holds expire.
	var camp func()
	camp = func() {
		for i := 0; i < prime; i++ {
			v.Hold(i, "scalper-bot")
		}
		if s.Now() < 90*time.Minute {
			s.After(time.Minute, camp)
		}
	}
	camp()

	// Real buyers arrive every 5 minutes and retry for 15 minutes.
	for n := 0; n < 18; n++ {
		n := n
		s.At(time.Duration(n+1)*5*time.Minute, func() {
			who := fmt.Sprintf("buyer-%02d", n)
			deadline := s.Now() + 15*time.Minute
			var try func()
			try = func() {
				for i := 0; i < prime; i++ {
					if v.Hold(i, who) {
						v.Buy(i, who)
						sold++
						return
					}
				}
				if s.Now() < deadline {
					s.After(time.Minute, try)
				} else {
					turnedAway++
				}
			}
			try()
		})
	}
	s.RunUntil(2 * time.Hour)
	return sold, turnedAway, v.M.Expired.Value()
}

func run(out io.Writer) {
	fmt.Fprintln(out, "12 prime seats, a scalper who holds and never buys, 18 real buyers:")

	sold, away, _ := sellOut(0)
	fmt.Fprintf(out, "\nunbounded holds (trusted-agent design):\n")
	fmt.Fprintf(out, "  sold to real buyers: %d, turned away: %d\n", sold, away)
	fmt.Fprintln(out, "  the scalper parks 'purchase pending' forever — §7.3's exploit")

	sold, away, expired := sellOut(4 * time.Minute)
	fmt.Fprintf(out, "\n4-minute hold TTL + durable cleanup queue:\n")
	fmt.Fprintf(out, "  sold to real buyers: %d, turned away: %d, holds expired: %d\n", sold, away, expired)
	fmt.Fprintln(out, "  bounded pending time turns the exploit into background noise")
}

func main() { run(os.Stdout) }
