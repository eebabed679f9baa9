package seats

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestHoldBuyLifecycle(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 10, time.Minute)
	if !v.Hold(3, "alice") {
		t.Fatal("hold on available seat refused")
	}
	if st, who := v.StateOf(3); st != Pending || who != "alice" {
		t.Fatalf("state = %v/%s", st, who)
	}
	if !v.Buy(3, "alice") {
		t.Fatal("buy of held seat refused")
	}
	if st, who := v.StateOf(3); st != Purchased || who != "alice" {
		t.Fatalf("state = %v/%s", st, who)
	}
	s.Run()
	// The expiry that was enqueued must not reap a purchased seat.
	if st, _ := v.StateOf(3); st != Purchased {
		t.Fatal("janitor reaped a purchased seat")
	}
}

func TestHoldConflicts(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 2, time.Minute)
	v.Hold(0, "alice")
	if v.Hold(0, "bob") {
		t.Fatal("double hold granted")
	}
	if v.M.HoldRejected.Value() != 1 {
		t.Fatalf("HoldRejected = %d", v.M.HoldRejected.Value())
	}
	if v.Buy(0, "bob") {
		t.Fatal("bob bought alice's held seat")
	}
	if v.Buy(1, "bob") {
		t.Fatal("bought a seat that was never held")
	}
}

func TestReleaseReturnsSeat(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 1, time.Minute)
	v.Hold(0, "alice")
	if !v.Release(0, "alice") {
		t.Fatal("release refused")
	}
	if st, _ := v.StateOf(0); st != Available {
		t.Fatal("released seat not available")
	}
	if !v.Hold(0, "bob") {
		t.Fatal("re-hold after release refused")
	}
}

func TestReleaseWrongSessionRefused(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 1, time.Minute)
	v.Hold(0, "alice")
	if v.Release(0, "bob") {
		t.Fatal("bob released alice's hold")
	}
}

func TestExpiredHoldReaped(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 1, 2*time.Minute)
	v.Hold(0, "ghost")
	s.RunFor(3 * time.Minute)
	if st, _ := v.StateOf(0); st != Available {
		t.Fatalf("abandoned hold not reaped: %v", st)
	}
	if v.M.Expired.Value() != 1 {
		t.Fatalf("Expired = %d", v.M.Expired.Value())
	}
	if v.CleanupQueueDepth() != 0 {
		t.Fatal("cleanup queue not drained")
	}
}

func TestBuyJustBeforeExpiryWins(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 1, 2*time.Minute)
	v.Hold(0, "alice")
	s.After(time.Minute, func() {
		if !v.Buy(0, "alice") {
			t.Error("buy within TTL refused")
		}
	})
	s.RunFor(10 * time.Minute)
	if st, who := v.StateOf(0); st != Purchased || who != "alice" {
		t.Fatalf("state = %v/%s", st, who)
	}
}

func TestReholdInvalidatesStaleCleanup(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 1, 2*time.Minute)
	v.Hold(0, "alice")
	// Alice abandons; seat expires at 2m; bob holds at 3m. The stale
	// cleanup entry from alice's hold must not reap bob's.
	s.At(3*time.Minute, func() {
		if !v.Hold(0, "bob") {
			t.Error("re-hold refused after expiry")
		}
	})
	s.RunFor(4 * time.Minute)
	if st, who := v.StateOf(0); st != Pending || who != "bob" {
		t.Fatalf("state = %v/%s; stale cleanup reaped a live hold", st, who)
	}
	s.RunFor(10 * time.Minute)
	// Bob abandoned too: HIS hold expires on its own schedule.
	if st, _ := v.StateOf(0); st != Available {
		t.Fatal("bob's abandoned hold never reaped")
	}
}

func TestUnboundedHoldsNeverExpire(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 1, 0) // the trusted-agent design
	v.Hold(0, "scalper")
	s.RunFor(24 * time.Hour)
	if st, _ := v.StateOf(0); st != Pending {
		t.Fatal("unbounded hold expired")
	}
}

// TestScalperStarvedByTTL is §7.3 at unit scale: a scalper camps every
// prime seat; with no TTL the buyer never gets one, with a TTL the buyer
// does.
func TestScalperStarvedByTTL(t *testing.T) {
	run := func(ttl time.Duration) bool {
		s := sim.New(1)
		v := NewVenue(s, 4, ttl)
		for i := 0; i < 4; i++ {
			v.Hold(i, "scalper")
		}
		bought := false
		// A real buyer shows up every minute for an hour and tries every
		// seat.
		var attempt func()
		attempt = func() {
			for i := 0; i < 4 && !bought; i++ {
				if v.Hold(i, "buyer") {
					v.Buy(i, "buyer")
					bought = true
				}
			}
			if !bought && s.Now() < time.Hour {
				s.After(time.Minute, attempt)
			}
		}
		s.After(time.Minute, attempt)
		s.RunUntil(2 * time.Hour)
		return bought
	}
	if run(0) {
		t.Fatal("buyer got a seat despite unbounded scalper holds")
	}
	if !run(5 * time.Minute) {
		t.Fatal("buyer starved even with 5m hold TTL")
	}
}

func TestCountByState(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 5, time.Minute)
	v.Hold(0, "a")
	v.Hold(1, "b")
	v.Buy(1, "b")
	counts := v.CountByState()
	if counts[Available] != 3 || counts[Pending] != 1 || counts[Purchased] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestPurchasedByPrefix(t *testing.T) {
	s := sim.New(1)
	v := NewVenue(s, 10, time.Minute)
	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("buyer-%d", i)
		if i%2 == 0 {
			who = fmt.Sprintf("scalper-%d", i)
		}
		v.Hold(i, who)
		v.Buy(i, who)
	}
	if got := v.PurchasedBy(0, 10, "buyer-"); got != 2 {
		t.Fatalf("buyer purchases = %d", got)
	}
	if got := v.PurchasedBy(0, 10, "scalper-"); got != 2 {
		t.Fatalf("scalper purchases = %d", got)
	}
}

func TestStateString(t *testing.T) {
	if Available.String() != "available" || Pending.String() != "purchase pending" || Purchased.String() != "purchased" {
		t.Fatal("state names wrong")
	}
}

func TestBadSeatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range seat did not panic")
		}
	}()
	s := sim.New(1)
	NewVenue(s, 1, 0).Hold(5, "x")
}
