package logship

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPropLossAccountingExactUnderChaos: for any crash moment, shipping
// interval, and recovery strategy, every acknowledged commit is either
// visible at the active datacenter or accounted for as an orphan — the
// Audit never finds silent loss.
func TestPropLossAccountingExactUnderChaos(t *testing.T) {
	f := func(seed int64) bool {
		s := sim.New(seed)
		r := s.Rand()
		ship := time.Duration(r.Intn(190)+10) * time.Millisecond
		sys := New(s, Config{
			WANLatency:   time.Duration(r.Intn(20)+1) * time.Millisecond,
			ShipInterval: ship,
			DetectDelay:  time.Duration(r.Intn(10)+1) * time.Millisecond,
		})
		workload.PoissonLoop(s, 5*time.Millisecond, 200, func(i int) {
			sys.Commit(fmt.Sprintf("k%05d", i), fmt.Sprintf("v%d", i), func(bool) {})
		})
		crashAt := time.Duration(r.Intn(900)+100) * time.Millisecond
		s.At(crashAt, func() { sys.CrashPrimary() })
		s.RunUntil(2 * time.Second)

		// Post-takeover traffic at the backup.
		workload.PoissonLoop(s, 5*time.Millisecond, 30, func(i int) {
			sys.Commit(fmt.Sprintf("post%04d", i), "p", func(bool) {})
		})
		s.RunUntil(3 * time.Second)

		// Recover the failed primary with a random strategy.
		strategy := RecoveryStrategy(r.Intn(3))
		rep := sys.RestartPrimary(strategy)
		s.Run()
		if rep.Orphans != rep.Replayed+rep.Conflicts+rep.Queued+rep.Discarded {
			t.Logf("seed=%d report does not balance: %+v", seed, rep)
			return false
		}
		if got := sys.Audit(); got != 0 {
			t.Logf("seed=%d strategy=%v audit=%d", seed, strategy, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
