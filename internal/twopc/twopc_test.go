package twopc

import (
	"testing"

	"repro/internal/sim"
)

func TestCommitWithAllAlive(t *testing.T) {
	s := sim.New(1)
	g := New(s, Config{Participants: 3})
	var ok, fired bool
	g.Commit(func(c bool) { fired, ok = true, c })
	s.Run()
	if !fired || !ok {
		t.Fatalf("commit fired=%v ok=%v", fired, ok)
	}
	if g.M.Committed.Value() != 1 || g.M.Aborted.Value() != 0 {
		t.Fatalf("metrics = %d/%d", g.M.Committed.Value(), g.M.Aborted.Value())
	}
	// Every participant must have learned the decision.
	for i, p := range g.parts {
		if !p.decided[1] {
			t.Fatalf("participant %d missed the commit decision", i)
		}
	}
}

func TestOneDeadParticipantAbortsEverything(t *testing.T) {
	s := sim.New(1)
	g := New(s, Config{Participants: 3})
	g.Net().SetUp("p1", false)
	aborts := 0
	for i := 0; i < 5; i++ {
		g.Commit(func(c bool) {
			if !c {
				aborts++
			}
		})
	}
	s.Run()
	if aborts != 5 {
		t.Fatalf("aborts = %d, want 5 — one dead participant must stop the world", aborts)
	}
}

func TestPartitionAbortsCommits(t *testing.T) {
	s := sim.New(1)
	g := New(s, Config{Participants: 3})
	g.Net().Partition([]string{"coord", "p0"}, []string{"p1", "p2"})
	var ok, fired bool
	g.Commit(func(c bool) { fired, ok = true, c })
	s.Run()
	if !fired {
		t.Fatal("commit never resolved")
	}
	if ok {
		t.Fatal("commit succeeded across a partition")
	}
	g.Net().Heal()
	g.Commit(func(c bool) { ok = c })
	s.Run()
	if !ok {
		t.Fatal("commit failed after heal")
	}
}

func TestRecoveryAfterRestart(t *testing.T) {
	s := sim.New(1)
	g := New(s, Config{Participants: 2})
	g.Net().SetUp("p0", false)
	g.Commit(func(bool) {})
	s.Run()
	g.Net().SetUp("p0", true)
	var ok bool
	g.Commit(func(c bool) { ok = c })
	s.Run()
	if !ok {
		t.Fatal("commit failed after participant restart")
	}
	if g.M.Committed.Value() != 1 || g.M.Aborted.Value() != 1 {
		t.Fatalf("metrics = %d/%d", g.M.Committed.Value(), g.M.Aborted.Value())
	}
}
