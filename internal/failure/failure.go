// Package failure injects fail-fast faults into simulated systems.
//
// The paper's fault model (§2.2) is fail fast: "a component is either
// functioning correctly or simply stops functioning." This package turns
// that model into a stochastic Injector driven by exponential MTBF/MTTR
// for endurance-style experiments; a scenario that needs one specific
// takeover schedules its SetUp calls on the simulator directly.
package failure

import (
	"math"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Event is a single scheduled state change of one node.
type Event struct {
	At   time.Duration
	Node string
	Up   bool
}

// Injector crashes and restarts a set of nodes at random, with
// exponentially distributed time-between-failures and repair times. All
// randomness comes from the simulator's seeded source.
type Injector struct {
	s        *sim.Sim
	net      *simnet.Network
	nodes    []string
	mtbf     time.Duration
	mttr     time.Duration
	onChange func(Event)
	stopped  bool
	crashes  int
}

// NewInjector builds an injector over the given nodes. mtbf is the mean
// time between failures across the whole set (a failure picks a random up
// node); mttr is the mean repair time. onChange may be nil.
func NewInjector(s *sim.Sim, net *simnet.Network, nodes []string, mtbf, mttr time.Duration, onChange func(Event)) *Injector {
	return &Injector{s: s, net: net, nodes: nodes, mtbf: mtbf, mttr: mttr, onChange: onChange}
}

// Start begins injecting faults. It returns the injector for chaining.
func (in *Injector) Start() *Injector {
	in.scheduleNext()
	return in
}

// Stop halts future fault injection. Nodes currently down still get their
// scheduled repair, so the system is eventually whole again.
func (in *Injector) Stop() { in.stopped = true }

// Crashes reports how many crashes the injector has inflicted.
func (in *Injector) Crashes() int { return in.crashes }

func (in *Injector) scheduleNext() {
	d := exponential(in.s, in.mtbf)
	in.s.After(d, func() {
		if in.stopped {
			return
		}
		in.crashOne()
		in.scheduleNext()
	})
}

func (in *Injector) crashOne() {
	up := make([]string, 0, len(in.nodes))
	for _, id := range in.nodes {
		if in.net.IsUp(id) {
			up = append(up, id)
		}
	}
	if len(up) == 0 {
		return
	}
	victim := up[in.s.Rand().Intn(len(up))]
	in.crashes++
	in.net.SetUp(victim, false)
	if in.onChange != nil {
		in.onChange(Event{At: in.s.Now(), Node: victim, Up: false})
	}
	repair := exponential(in.s, in.mttr)
	in.s.After(repair, func() {
		in.net.SetUp(victim, true)
		if in.onChange != nil {
			in.onChange(Event{At: in.s.Now(), Node: victim, Up: true})
		}
	})
}

// exponential draws an exponentially distributed duration with the given
// mean, clamped away from zero so the event loop always advances.
func exponential(s *sim.Sim, mean time.Duration) time.Duration {
	if mean <= 0 {
		return time.Nanosecond
	}
	u := s.Rand().Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := time.Duration(-float64(mean) * math.Log(u))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}
