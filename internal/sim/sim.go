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
	at   time.Duration
	seq  uint64 // tiebreak so same-time events run in schedule order
	fn   func()
	dead bool // set by Timer.Stop
	idx  int  // heap index
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

// Timer identifies a scheduled event and allows cancelling it.
type Timer struct{ ev *event }

// Stop cancels the timer. It reports whether the callback had not yet run
// (and therefore will never run). Stopping an already-fired or
// already-stopped timer is a no-op.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// At schedules fn to run at virtual time at. Scheduling in the past (or
// at the present instant) runs the callback at the current time but after
// all previously scheduled events for that time.
func (s *Sim) At(at time.Duration, fn func()) *Timer {
	if at < s.now {
		at = s.now
	}
	e := &event{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return &Timer{ev: e}
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
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
	var tick func()
	var timer *Timer
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			timer = s.After(interval, tick)
		}
	}
	timer = s.After(interval, tick)
	return func() {
		stopped = true
		timer.Stop()
	}
}

// Step executes the single next event, advancing virtual time to its
// timestamp. It reports whether an event was executed (false when the
// queue is empty).
func (s *Sim) Step() bool {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		if e.dead {
			continue
		}
		e.dead = true // fired; Stop after this point reports false
		s.now = e.at
		e.fn()
		return true
	}
	return false
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
