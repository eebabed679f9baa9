package core

import (
	"context"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// SimTransport runs a cluster on the deterministic discrete-event
// simulator: one simnet.Network carries the messages, and Await drives the
// event loop. Everything the simulated world offers — latency models,
// partitions, crash/restart, message loss — is available through Net and
// the convenience methods, and a fixed seed reproduces every run
// bit-for-bit.
//
// A blocking Submit on a SimTransport steps the event loop itself, so it
// must not be called from inside a simulator callback (use SubmitAsync
// there — the event loop is already running).
type SimTransport struct {
	s   *sim.Sim
	net *simnet.Network
}

// NewSimTransport binds a transport to simulator s with its own private
// network. Links default to 5ms ± 2ms (cross-site latency); options
// configure the network further (latency, loss, duplication) and win
// over the default.
func NewSimTransport(s *sim.Sim, opts ...simnet.Option) *SimTransport {
	defaults := []simnet.Option{
		simnet.WithLatency(simnet.Jitter{Base: 5 * time.Millisecond, Spread: 2 * time.Millisecond}),
	}
	return &SimTransport{s: s, net: simnet.New(s, append(defaults, opts...)...)}
}

// Sim returns the underlying simulator, for scheduling workload events and
// driving virtual time.
func (t *SimTransport) Sim() *sim.Sim { return t.s }

// Net exposes the simulated network for fault injection beyond what the
// Transport interface offers (loss, link latency, message counters).
func (t *SimTransport) Net() *simnet.Network { return t.net }

// Now returns the current virtual time.
func (t *SimTransport) Now() sim.Time { return t.s.Now() }

// Node registers a node on the simulated network.
func (t *SimTransport) Node(id string, callTimeout time.Duration) Node {
	return &simNode{ep: rpc.NewEndpoint(t.net, simnet.NodeID(id), callTimeout)}
}

// Every schedules fn on the simulator's virtual clock.
func (t *SimTransport) Every(interval time.Duration, fn func()) (stop func()) {
	return t.s.Every(interval, fn)
}

// Await steps the event loop until ready closes. Cancellation is checked
// between events, so a context cancelled by a simulated event (or already
// cancelled on entry) is honoured deterministically; if the event queue
// drains with ready still open, Await reports ErrStalled.
func (t *SimTransport) Await(ctx context.Context, ready <-chan struct{}) error {
	for {
		select {
		case <-ready:
			return nil
		default:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !t.s.Step() {
			select {
			case <-ready:
				return nil
			default:
				return ErrStalled
			}
		}
	}
}

// SetUp marks a node alive or crashed.
func (t *SimTransport) SetUp(id string, up bool) { t.net.SetUp(simnet.NodeID(id), up) }

// IsUp reports whether the node is alive.
func (t *SimTransport) IsUp(id string) bool { return t.net.IsUp(simnet.NodeID(id)) }

// Reachable reports whether a and b are in the same partition group.
func (t *SimTransport) Reachable(a, b string) bool {
	return t.net.Reachable(simnet.NodeID(a), simnet.NodeID(b))
}

// Partition splits the network into the given groups; nodes in different
// groups cannot exchange messages.
func (t *SimTransport) Partition(groups ...[]string) {
	conv := make([][]simnet.NodeID, len(groups))
	for i, g := range groups {
		ids := make([]simnet.NodeID, len(g))
		for j, id := range g {
			ids[j] = simnet.NodeID(id)
		}
		conv[i] = ids
	}
	t.net.Partition(conv...)
}

// Heal removes any partition.
func (t *SimTransport) Heal() { t.net.Heal() }

// simNode adapts an rpc.Endpoint to the Node interface.
type simNode struct {
	ep *rpc.Endpoint
}

func (n *simNode) ID() string    { return string(n.ep.ID()) }
func (n *simNode) Crashed() bool { return n.ep.Crashed() }

func (n *simNode) Handle(method string, h Handler) {
	n.ep.Handle(method, func(from simnet.NodeID, req any, reply func(any)) {
		h(string(from), req, reply)
	})
}

func (n *simNode) Call(to string, method string, req any, done func(resp any, ok bool)) {
	n.ep.Call(simnet.NodeID(to), method, req, done)
}

func (n *simNode) Broadcast(to []string, method string, req any, done func(resps []any, oks int)) {
	ids := make([]simnet.NodeID, len(to))
	for i, id := range to {
		ids[i] = simnet.NodeID(id)
	}
	n.ep.Broadcast(ids, method, req, done)
}
