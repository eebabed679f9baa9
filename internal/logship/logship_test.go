package logship

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func commitN(s *sim.Sim, sys *System, n int, prefix string) (acked *int) {
	acked = new(int)
	var next func(i int)
	next = func(i int) {
		if i == n {
			return
		}
		sys.Commit(fmt.Sprintf("%s-%03d", prefix, i), fmt.Sprintf("v%d", i), func(ok bool) {
			if ok {
				*acked++
			}
			next(i + 1)
		})
	}
	next(0)
	return acked
}

func TestAsyncCommitIsLocalLatency(t *testing.T) {
	s := sim.New(1)
	sys := New(s, Config{WANLatency: 20 * time.Millisecond})
	var ok bool
	sys.Commit("k", "v", func(o bool) { ok = o })
	s.RunFor(10 * time.Millisecond)
	if !ok {
		t.Fatal("async commit not acked within local time")
	}
	// Commit latency must be group-commit local time, far below the WAN.
	if got := sys.M.CommitLat.MeanDur(); got >= 20*time.Millisecond {
		t.Fatalf("async commit latency %v, want << WAN 20ms", got)
	}
}

func TestSyncCommitPaysWANRoundTrip(t *testing.T) {
	s := sim.New(1)
	sys := New(s, Config{Sync: true, WANLatency: 20 * time.Millisecond})
	var ok bool
	sys.Commit("k", "v", func(o bool) { ok = o })
	s.Run()
	if !ok {
		t.Fatal("sync commit failed")
	}
	if got := sys.M.CommitLat.MeanDur(); got < 40*time.Millisecond {
		t.Fatalf("sync commit latency %v, want >= WAN round trip 40ms", got)
	}
}

func TestShippingCatchesUp(t *testing.T) {
	s := sim.New(1)
	sys := New(s, Config{WANLatency: 5 * time.Millisecond, ShipInterval: 10 * time.Millisecond})
	acked := commitN(s, sys, 10, "k")
	s.Run()
	if *acked != 10 {
		t.Fatalf("acked %d of 10", *acked)
	}
	if sys.M.ShippedTxns.Value() != 10 {
		t.Fatalf("backup replayed %d of 10", sys.M.ShippedTxns.Value())
	}
	if lag := sys.BackupLagTxns(); lag != 0 {
		t.Fatalf("lag = %d after quiesce", lag)
	}
}

func TestTakeoverLosesUnshippedTail(t *testing.T) {
	s := sim.New(1)
	sys := New(s, Config{
		WANLatency:   10 * time.Millisecond,
		ShipInterval: 100 * time.Millisecond, // long lag: big window
		DetectDelay:  5 * time.Millisecond,
	})
	acked := commitN(s, sys, 5, "k")
	// Crash before the first shipment departs (shipment at ~100ms).
	s.At(50*time.Millisecond, func() { sys.CrashPrimary() })
	s.Run()
	if *acked != 5 {
		t.Fatalf("acked %d of 5 before crash", *acked)
	}
	if sys.Active() != "dc2" {
		t.Fatalf("active = %s, want dc2 after takeover", sys.Active())
	}
	if got := sys.M.LostAtTakeover.Value(); got != 5 {
		t.Fatalf("lost = %d, want all 5 acked commits (nothing shipped)", got)
	}
	if sys.Orphans() != 5 {
		t.Fatalf("orphans = %d", sys.Orphans())
	}
	// The backup must not see the lost keys.
	sys.Read("k-000", func(v string, ok bool) {
		if ok {
			t.Error("lost commit visible at backup")
		}
	})
	if sys.Audit() != 0 {
		t.Fatalf("audit found %d unaccounted losses", sys.Audit())
	}
}

func TestFastShippingShrinksWindow(t *testing.T) {
	lost := func(shipEvery time.Duration) int64 {
		s := sim.New(3)
		sys := New(s, Config{
			WANLatency:   5 * time.Millisecond,
			ShipInterval: shipEvery,
			DetectDelay:  time.Millisecond,
		})
		// Commit steadily, then crash mid-shipping-window: with a 200ms
		// interval the last shipment departed around t=200, so ~10
		// commits are in the window at t=300; with a 10ms interval the
		// window holds at most a couple.
		var i int
		var loop func()
		loop = func() {
			i++
			sys.Commit(fmt.Sprintf("k%04d", i), "v", func(bool) {})
			if s.Now() < 400*time.Millisecond {
				s.After(10*time.Millisecond, loop)
			}
		}
		loop()
		s.At(300*time.Millisecond, func() { sys.CrashPrimary() })
		s.RunUntil(600 * time.Millisecond)
		return sys.M.LostAtTakeover.Value()
	}
	slow, fast := lost(200*time.Millisecond), lost(10*time.Millisecond)
	if fast >= slow {
		t.Fatalf("lost(fast ship)=%d >= lost(slow ship)=%d; window must shrink with lag", fast, slow)
	}
}

func TestSyncModeLosesNothing(t *testing.T) {
	s := sim.New(1)
	sys := New(s, Config{Sync: true, WANLatency: 5 * time.Millisecond, DetectDelay: time.Millisecond})
	acked := commitN(s, sys, 5, "k")
	s.At(200*time.Millisecond, func() { sys.CrashPrimary() })
	s.Run()
	if *acked != 5 {
		t.Fatalf("acked %d of 5", *acked)
	}
	if sys.M.LostAtTakeover.Value() != 0 {
		t.Fatalf("sync mode lost %d acked commits", sys.M.LostAtTakeover.Value())
	}
	// Every acked commit must be readable at the backup.
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k-%03d", i)
		sys.Read(key, func(v string, ok bool) {
			if !ok {
				t.Errorf("%s missing at backup in sync mode", key)
			}
		})
	}
}

func TestCommitsContinueAtBackupAfterTakeover(t *testing.T) {
	s := sim.New(1)
	sys := New(s, Config{WANLatency: 5 * time.Millisecond, DetectDelay: time.Millisecond})
	sys.CrashPrimary()
	s.RunFor(10 * time.Millisecond)
	var ok bool
	sys.Commit("post", "takeover", func(o bool) { ok = o })
	s.Run()
	if !ok {
		t.Fatal("commit at backup after takeover failed")
	}
	sys.Read("post", func(v string, got bool) {
		if !got || v != "takeover" {
			t.Errorf("post-takeover read = %q,%v", v, got)
		}
	})
	if sys.Audit() != 0 {
		t.Fatalf("audit = %d", sys.Audit())
	}
}

func recoveryScenario(t *testing.T, strategy RecoveryStrategy, overwrite bool) (RecoveryReport, *System, *sim.Sim) {
	t.Helper()
	s := sim.New(1)
	sys := New(s, Config{
		WANLatency:   5 * time.Millisecond,
		ShipInterval: time.Hour, // never ships: everything orphans
		DetectDelay:  time.Millisecond,
	})
	acked := commitN(s, sys, 3, "k")
	s.RunFor(50 * time.Millisecond)
	if *acked != 3 {
		t.Fatalf("acked %d of 3", *acked)
	}
	sys.CrashPrimary()
	s.RunFor(10 * time.Millisecond)
	if overwrite {
		// A post-takeover client overwrites one orphaned key.
		sys.Commit("k-001", "newer", func(bool) {})
		s.RunFor(50 * time.Millisecond)
	}
	rep := sys.RestartPrimary(strategy)
	s.Run()
	return rep, sys, s
}

func TestRecoveryDiscard(t *testing.T) {
	rep, sys, _ := recoveryScenario(t, Discard, false)
	if rep.Orphans != 3 || rep.Discarded != 3 {
		t.Fatalf("report = %+v", rep)
	}
	sys.Read("k-000", func(_ string, ok bool) {
		if ok {
			t.Error("discarded orphan resurrected")
		}
	})
	if sys.Audit() != 0 {
		t.Fatalf("audit = %d (discards must be accounted)", sys.Audit())
	}
}

func TestRecoveryQueueForHumans(t *testing.T) {
	rep, _, _ := recoveryScenario(t, Queue, false)
	if rep.Queued != 3 || rep.Replayed != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRecoveryReplayCleanKeys(t *testing.T) {
	rep, sys, _ := recoveryScenario(t, Replay, false)
	if rep.Replayed != 3 || rep.Conflicts != 0 {
		t.Fatalf("report = %+v", rep)
	}
	sys.Read("k-002", func(v string, ok bool) {
		if !ok || v != "v2" {
			t.Errorf("replayed orphan = %q,%v", v, ok)
		}
	})
	if sys.Audit() != 0 {
		t.Fatalf("audit = %d", sys.Audit())
	}
}

func TestRecoveryReplayDetectsConflicts(t *testing.T) {
	rep, sys, _ := recoveryScenario(t, Replay, true)
	if rep.Replayed != 2 || rep.Conflicts != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// The post-takeover write must win over the orphan.
	sys.Read("k-001", func(v string, ok bool) {
		if !ok || v != "newer" {
			t.Errorf("conflicted key = %q,%v; newer write must survive", v, ok)
		}
	})
	if sys.Audit() != 0 {
		t.Fatalf("audit = %d", sys.Audit())
	}
}

func TestStrategyString(t *testing.T) {
	if Discard.String() != "discard" || Queue.String() != "queue" || Replay.String() != "replay" {
		t.Fatal("strategy names wrong")
	}
}

func TestCommitDuringCrashWindowNotAcked(t *testing.T) {
	s := sim.New(1)
	sys := New(s, Config{WANLatency: 5 * time.Millisecond, GroupInterval: 10 * time.Millisecond, DetectDelay: time.Millisecond})
	var acked, resolved bool
	sys.Commit("k", "v", func(ok bool) { resolved = true; acked = ok })
	// Crash before the group-commit flush completes.
	s.At(2*time.Millisecond, func() { sys.CrashPrimary() })
	s.Run()
	if !resolved {
		t.Fatal("commit callback never resolved")
	}
	if acked {
		t.Fatal("commit acked despite primary crashing before durability")
	}
	if sys.M.LostAtTakeover.Value() != 0 {
		t.Fatalf("unacked commit counted as lost: %d", sys.M.LostAtTakeover.Value())
	}
}

func TestSyncModeDegradesToLocalWhenBackupDown(t *testing.T) {
	// With the backup dead, even sync mode acks locally — the real-world
	// fallback (run unprotected and alert) rather than total outage.
	// The commits are then exposed: they count as lost if the primary
	// dies before the backup returns.
	s := sim.New(9)
	sys := New(s, Config{Sync: true, WANLatency: 5 * time.Millisecond, DetectDelay: time.Millisecond})
	sys.net.SetUp("dc2", false)
	var ok bool
	sys.Commit("k", "v", func(o bool) { ok = o })
	s.Run()
	if !ok {
		t.Fatal("sync commit with dead backup should degrade to local ack")
	}
	if got := sys.M.CommitLat.MeanDur(); got >= 10*time.Millisecond {
		t.Fatalf("degraded commit paid WAN latency: %v", got)
	}
	sys.net.SetUp("dc2", true)
	sys.CrashPrimary()
	s.Run()
	if sys.M.LostAtTakeover.Value() != 1 {
		t.Fatalf("lost = %d; the unprotected commit must be counted", sys.M.LostAtTakeover.Value())
	}
}

func TestReadAtPrimaryBeforeTakeover(t *testing.T) {
	s := sim.New(9)
	sys := New(s, Config{WANLatency: 5 * time.Millisecond})
	var ok bool
	sys.Commit("k", "v", func(o bool) { ok = o })
	s.Run()
	if !ok {
		t.Fatal("commit failed")
	}
	sys.Read("k", func(v string, found bool) {
		if !found || v != "v" {
			t.Errorf("read = %q,%v", v, found)
		}
	})
}
