// Package simnet provides a simulated message network on top of the
// discrete-event simulator in internal/sim.
//
// It models exactly the failure domain the paper assumes (§2.2): fail-fast
// nodes that are either functioning or stopped, connected by links with
// configurable latency and loss, and subject to partitions.
// Message counts are tracked so experiments can charge protocols for their
// chatter — the heart of the DP1-vs-DP2 comparison is how many messages sit
// on the critical path of a WRITE.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Message is a payload in flight between two nodes.
type Message struct {
	From, To string
	Payload  any
}

// Handler consumes messages delivered to a node.
type Handler func(Message)

// Latency models per-message delivery delay.
type Latency interface {
	Sample(r *rand.Rand) time.Duration
}

// Fixed is a constant delivery delay.
type Fixed time.Duration

// Sample returns the fixed delay.
func (f Fixed) Sample(*rand.Rand) time.Duration { return time.Duration(f) }

// Jitter is a uniform delay in [Base, Base+Spread).
type Jitter struct {
	Base, Spread time.Duration
}

// Sample returns Base plus a uniform draw from [0, Spread).
func (j Jitter) Sample(r *rand.Rand) time.Duration {
	if j.Spread <= 0 {
		return j.Base
	}
	return j.Base + time.Duration(r.Int63n(int64(j.Spread)))
}

// Counters aggregates network-wide message statistics.
type Counters struct {
	Sent      int64 // Send calls
	Delivered int64 // handler invocations
	Lost      int64 // dropped by random loss
	DownDrop  int64 // dropped because receiver was down at delivery
	PartDrop  int64 // dropped because sender and receiver were partitioned
}

type node struct {
	handler Handler
	up      bool
	group   int // partition group; nodes in different groups cannot talk
}

// Network is a simulated message fabric. Construct with New.
type Network struct {
	s        *sim.Sim
	nodes    map[string]*node
	latency  Latency
	lossProb float64
	counters Counters
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the default link latency model (default: Fixed 1ms).
func WithLatency(l Latency) Option { return func(n *Network) { n.latency = l } }

// WithLoss sets the probability a message is silently dropped.
func WithLoss(p float64) Option { return func(n *Network) { n.lossProb = p } }

// New builds a network bound to simulator s.
func New(s *sim.Sim, opts ...Option) *Network {
	n := &Network{
		s:       s,
		nodes:   make(map[string]*node),
		latency: Fixed(time.Millisecond),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Sim returns the simulator the network is bound to.
func (n *Network) Sim() *sim.Sim { return n.s }

// AddNode registers a node and its message handler. Nodes start up (alive)
// and unpartitioned. Re-adding an existing node panics: silently replacing
// a live handler is always a test bug.
func (n *Network) AddNode(id string, h Handler) {
	if _, ok := n.nodes[id]; ok {
		panic(fmt.Sprintf("simnet: node %q already registered", id))
	}
	n.nodes[id] = &node{handler: h, up: true}
}

// SetUp marks a node alive or crashed. Messages are not delivered to
// crashed nodes; a message in flight when its receiver crashes is lost,
// matching fail-fast semantics.
func (n *Network) SetUp(id string, up bool) { n.mustNode(id).up = up }

// IsUp reports whether the node is alive.
func (n *Network) IsUp(id string) bool { return n.mustNode(id).up }

// Partition splits the network into the given groups. Nodes in different
// groups cannot exchange messages; nodes not named in any group land in an
// implicit extra group together. Calling Partition replaces any previous
// partition.
func (n *Network) Partition(groups ...[]string) {
	for _, nd := range n.nodes {
		nd.group = 0 // implicit group for unnamed nodes
	}
	for i, g := range groups {
		for _, id := range g {
			n.mustNode(id).group = i + 1
		}
	}
}

// Heal removes any partition.
func (n *Network) Heal() {
	for _, nd := range n.nodes {
		nd.group = 0
	}
}

// Reachable reports whether a message from a to b would currently be
// routed (both registered, not partitioned apart; says nothing about b
// being up at delivery time).
func (n *Network) Reachable(a, b string) bool {
	na, nb := n.mustNode(a), n.mustNode(b)
	return na.group == nb.group
}

// Send routes payload from one node to another, applying latency, loss,
// partitions, and crash state. Sending from a crashed node is
// a silent no-op (a stopped process sends nothing). Delivery happens on
// the simulator event loop.
func (n *Network) Send(from, to string, payload any) {
	src := n.mustNode(from)
	dst := n.mustNode(to)
	if !src.up {
		return
	}
	n.counters.Sent++
	if src.group != dst.group {
		n.counters.PartDrop++
		return
	}
	if n.lossProb > 0 && n.s.Rand().Float64() < n.lossProb {
		n.counters.Lost++
		return
	}
	n.s.After(n.latency.Sample(n.s.Rand()), func() {
		if !dst.up {
			n.counters.DownDrop++
			return
		}
		n.counters.Delivered++
		dst.handler(Message{From: from, To: to, Payload: payload})
	})
}

// Counters returns a snapshot of network-wide message statistics.
func (n *Network) Counters() Counters { return n.counters }

func (n *Network) mustNode(id string) *node {
	nd, ok := n.nodes[id]
	if !ok {
		panic(fmt.Sprintf("simnet: unknown node %q", id))
	}
	return nd
}
