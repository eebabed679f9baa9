// Package failure injects fail-fast faults into simulated systems.
//
// The paper's fault model (§2.2) is fail fast: "a component is either
// functioning correctly or simply stops functioning." This package turns
// that model into two tools: deterministic Scripts (crash node X at t1,
// restart at t2) for reproducing specific takeover scenarios, and a
// stochastic Injector driven by exponential MTBF/MTTR for endurance-style
// experiments.
package failure

import (
	"math"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Event is a single scheduled state change of one node.
type Event struct {
	At   time.Duration
	Node simnet.NodeID
	Up   bool
}

// Script is a deterministic fault plan.
type Script []Event

// Crash appends a crash of node at t and returns the extended script.
func (sc Script) Crash(node simnet.NodeID, at time.Duration) Script {
	return append(sc, Event{At: at, Node: node, Up: false})
}

// Restart appends a restart of node at t and returns the extended script.
func (sc Script) Restart(node simnet.NodeID, at time.Duration) Script {
	return append(sc, Event{At: at, Node: node, Up: true})
}

// Outage appends a crash at from and a restart at from+downFor.
func (sc Script) Outage(node simnet.NodeID, from time.Duration, downFor time.Duration) Script {
	return sc.Crash(node, from).Restart(node, from+downFor)
}

// Apply schedules every event of the script on the simulator. onChange, if
// non-nil, is invoked after each state flip so components can run takeover
// or recovery logic.
func (sc Script) Apply(s *sim.Sim, net *simnet.Network, onChange func(Event)) {
	evs := make(Script, len(sc))
	copy(evs, sc)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, e := range evs {
		e := e
		s.At(e.At, func() {
			net.SetUp(e.Node, e.Up)
			if onChange != nil {
				onChange(e)
			}
		})
	}
}

// Injector crashes and restarts a set of nodes at random, with
// exponentially distributed time-between-failures and repair times. All
// randomness comes from the simulator's seeded source.
type Injector struct {
	s        *sim.Sim
	net      *simnet.Network
	nodes    []simnet.NodeID
	mtbf     time.Duration
	mttr     time.Duration
	onChange func(Event)
	stopped  bool
	crashes  int
}

// NewInjector builds an injector over the given nodes. mtbf is the mean
// time between failures across the whole set (a failure picks a random up
// node); mttr is the mean repair time. onChange may be nil.
func NewInjector(s *sim.Sim, net *simnet.Network, nodes []simnet.NodeID, mtbf, mttr time.Duration, onChange func(Event)) *Injector {
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
	up := make([]simnet.NodeID, 0, len(in.nodes))
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
