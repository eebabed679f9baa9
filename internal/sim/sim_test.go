package sim

import (
	"testing"
	"time"
)

func TestNowStartsAtZero(t *testing.T) {
	s := New(1)
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New(1)
	var fired time.Duration
	s.After(5*time.Millisecond, func() { fired = s.Now() })
	s.Run()
	if fired != 5*time.Millisecond {
		t.Fatalf("fired at %v, want 5ms", fired)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v, want 5ms", s.Now())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got order %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("got order %v, want ascending", got)
		}
	}
}

func TestSchedulingInPastRunsNow(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() {
		s.At(0, func() {
			if s.Now() != time.Second {
				t.Errorf("past event ran at %v, want clamped to 1s", s.Now())
			}
		})
	})
	s.Run()
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := New(1)
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v, want 0", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Run()
	if ran {
		t.Fatal("stopped timer still fired")
	}
}

func TestStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.After(time.Millisecond, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop() after fire = true, want false")
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	count := 0
	var stop func()
	stop = s.Every(10*time.Millisecond, func() {
		count++
		if count == 5 {
			stop()
		}
	})
	s.RunFor(time.Second)
	if count != 5 {
		t.Fatalf("ticks = %d, want 5 (stop must cancel future firings)", count)
	}
}

func TestEveryPanicsOnZeroInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	s := New(1)
	s.RunUntil(time.Minute)
	if s.Now() != time.Minute {
		t.Fatalf("Now() = %v, want 1m", s.Now())
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	s := New(1)
	ran := false
	s.After(2*time.Second, func() { ran = true })
	s.RunUntil(time.Second)
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	s.Run()
	if !ran {
		t.Fatal("event never ran after Run()")
	}
}

func TestDeterminismAcrossSeeds(t *testing.T) {
	history := func(seed int64) []int64 {
		s := New(seed)
		var h []int64
		for i := 0; i < 50; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
			s.After(d, func() { h = append(h, int64(s.Now())) })
		}
		s.Run()
		return h
	}
	a, b := history(42), history(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("histories diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(time.Microsecond, recurse)
		}
	}
	s.After(0, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Fatal("Step() on empty queue = true")
	}
}
