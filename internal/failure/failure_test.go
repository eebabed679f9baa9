package failure

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func newNet(seed int64, nodes ...string) (*sim.Sim, *simnet.Network) {
	s := sim.New(seed)
	n := simnet.New(s)
	for _, id := range nodes {
		n.AddNode(id, func(simnet.Message) {})
	}
	return s, n
}

func TestInjectorCrashesAndRepairs(t *testing.T) {
	s, n := newNet(42, "a", "b", "c")
	in := NewInjector(s, n, []string{"a", "b", "c"}, 100*time.Millisecond, 20*time.Millisecond, nil).Start()
	s.RunUntil(10 * time.Second)
	in.Stop()
	s.Run() // drain pending repairs
	if in.Crashes() == 0 {
		t.Fatal("injector never crashed anything over 10s with 100ms MTBF")
	}
	for _, id := range []string{"a", "b", "c"} {
		if !n.IsUp(id) {
			t.Fatalf("node %s still down after Stop + drain", id)
		}
	}
}

func TestInjectorStopHaltsNewFaults(t *testing.T) {
	s, n := newNet(42, "a")
	in := NewInjector(s, n, []string{"a"}, 10*time.Millisecond, time.Millisecond, nil).Start()
	s.RunUntil(time.Second)
	in.Stop()
	before := in.Crashes()
	s.RunUntil(10 * time.Second)
	if in.Crashes() != before {
		t.Fatalf("crashes rose from %d to %d after Stop", before, in.Crashes())
	}
}

func TestInjectorObserverSeesSymmetricEvents(t *testing.T) {
	s, n := newNet(7, "a", "b")
	downs, ups := 0, 0
	in := NewInjector(s, n, []string{"a", "b"}, 50*time.Millisecond, 10*time.Millisecond, func(e Event) {
		if e.Up {
			ups++
		} else {
			downs++
		}
	}).Start()
	s.RunUntil(5 * time.Second)
	in.Stop()
	s.Run()
	if downs == 0 {
		t.Fatal("no crashes observed")
	}
	if downs != ups {
		t.Fatalf("downs=%d ups=%d; every crash must eventually repair", downs, ups)
	}
}

func TestInjectorSkipsWhenAllDown(t *testing.T) {
	s, n := newNet(7, "a")
	n.SetUp("a", false)
	// With the only node already down and a huge MTTR, the injector must
	// not panic or crash anything new.
	in := NewInjector(s, n, []string{"a"}, time.Millisecond, time.Hour, nil).Start()
	s.RunUntil(100 * time.Millisecond)
	in.Stop()
	if in.Crashes() != 0 {
		t.Fatalf("crashed %d nodes while all were down", in.Crashes())
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() int {
		s, n := newNet(99, "a", "b", "c")
		in := NewInjector(s, n, []string{"a", "b", "c"}, 30*time.Millisecond, 5*time.Millisecond, nil).Start()
		s.RunUntil(3 * time.Second)
		in.Stop()
		s.Run()
		return in.Crashes()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced %d vs %d crashes", a, b)
	}
}
