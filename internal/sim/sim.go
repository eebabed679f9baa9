// Package sim provides a deterministic discrete-event simulator.
//
// Every distributed system in this repository — the Tandem process pairs,
// log shipping, the Dynamo-style store, the replicated bank — runs on top
// of a Sim instead of wall-clock time and real threads. Virtual time plus
// a seeded random source make every test and every experiment reproducible
// bit-for-bit, which is what lets the benchmark harness regenerate the
// same tables on every run.
//
// The model is a classic event loop: callbacks are scheduled at virtual
// timestamps and executed in (time, sequence) order. There is no
// parallelism inside a Sim; "concurrency" between simulated nodes is
// interleaving of their events, exactly as in the fail-fast,
// message-passing world the paper describes.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // tiebreak so same-time events run in schedule order
	fn  func()
	idx int // heap index; -1 while not queued
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Sim is a deterministic discrete-event simulator. The zero value is not
// usable; construct with New.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	rng    *rand.Rand
}

// New returns a simulator whose random source is seeded with seed.
// Two simulators built with the same seed and fed the same schedule of
// events produce identical histories.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time: the offset since the start of the
// simulation. Simulated clocks share no epoch with the host, so an offset
// is all a virtual timestamp is.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's random source. All randomness in a
// simulation must come from here to preserve determinism.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Timer is a scheduled callback that can be cancelled and re-armed: the
// event it queues is its own, so re-arming one allocates nothing.
type Timer struct {
	s  *Sim
	ev event
}

// NewTimer returns an unarmed timer that runs fn each time it fires.
func (s *Sim) NewTimer(fn func()) *Timer {
	return &Timer{s: s, ev: event{fn: fn, idx: -1}}
}

// Stop cancels the timer. It reports whether the callback was pending
// (and therefore will now not run). Stopping a fired or stopped timer is
// a no-op.
func (t *Timer) Stop() bool {
	if t == nil || t.ev.idx < 0 {
		return false
	}
	heap.Remove(&t.s.events, t.ev.idx)
	return true
}

// Reset arms the timer to fire d after the current time (now, if d is
// negative), after every event already scheduled for that instant,
// cancelling a pending firing. It reports whether one was pending.
func (t *Timer) Reset(d time.Duration) bool {
	pending, s := t.Stop(), t.s
	t.ev.at, t.ev.seq = s.now+max(d, 0), s.seq
	s.seq++
	heap.Push(&s.events, &t.ev)
	return pending
}

// At schedules fn to run at virtual time at. Scheduling in the past (or
// at the present instant) runs the callback at the current time but after
// all previously scheduled events for that time.
func (s *Sim) At(at time.Duration, fn func()) *Timer { return s.After(at-s.now, fn) }

// After schedules fn to run d after the current time.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	t := s.NewTimer(fn)
	t.Reset(d)
	return t
}

// Every schedules fn to run every interval, first firing after interval.
// The returned stop function cancels future firings. interval must be
// positive; Every panics otherwise, since a zero interval would wedge the
// event loop at a single instant.
func (s *Sim) Every(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every interval must be positive, got %v", interval))
	}
	stopped := false
	var timer *Timer
	timer = s.NewTimer(func() {
		fn()
		if !stopped {
			timer.Reset(interval)
		}
	})
	timer.Reset(interval)
	return func() {
		stopped = true
		timer.Stop()
	}
}

// Step executes the single next event, advancing virtual time to its
// timestamp. It reports whether an event was executed (false when the
// queue is empty).
func (s *Sim) Step() bool {
	if s.events.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event) // fired: Stop after this reports false
	s.now = e.at
	e.fn()
	return true
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t even if no event lands exactly there. Events scheduled later
// remain queued.
func (s *Sim) RunUntil(t time.Duration) {
	for s.events.Len() > 0 {
		if s.peek().at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor executes events within the next d of virtual time.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

func (s *Sim) peek() *event { return s.events[0] }
