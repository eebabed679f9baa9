package rpc

import (
	"context"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
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
// configure the network further (latency, loss) and win over the default.
func NewSimTransport(s *sim.Sim, opts ...simnet.Option) *SimTransport {
	defaults := []simnet.Option{
		simnet.WithLatency(simnet.Jitter{Base: 5 * time.Millisecond, Spread: 2 * time.Millisecond}),
	}
	return &SimTransport{s: s, net: simnet.New(s, append(defaults, opts...)...)}
}

// Net exposes the simulated network for fault injection beyond what the
// Transport interface offers (loss, message counters).
func (t *SimTransport) Net() *simnet.Network { return t.net }

// Now returns the current virtual time.
func (t *SimTransport) Now() time.Duration { return t.s.Now() }

// Node registers a node on the simulated network. The node is the
// *Endpoint itself, the one the paper's systems use.
func (t *SimTransport) Node(id string, callTimeout time.Duration) transport.Node {
	return NewEndpoint(t.net, id, callTimeout)
}

// Every schedules fn on the simulator's virtual clock.
func (t *SimTransport) Every(interval time.Duration, fn func()) (stop func()) {
	return t.s.Every(interval, fn)
}

// NewTimer returns a timer that fires as an event of the simulator.
func (t *SimTransport) NewTimer(fn func()) transport.Timer { return t.s.NewTimer(fn) }

// Await steps the event loop until ready closes. Cancellation is checked
// between events, so a context cancelled by a simulated event (or already
// cancelled on entry) is honoured deterministically; if the event queue
// drains with ready still open, Await reports transport.ErrStalled.
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
				return transport.ErrStalled
			}
		}
	}
}

// SetUp marks a node alive or crashed.
func (t *SimTransport) SetUp(id string, up bool) { t.net.SetUp(id, up) }

// IsUp reports whether the node is alive.
func (t *SimTransport) IsUp(id string) bool { return t.net.IsUp(id) }

// Reachable reports whether a and b are in the same partition group.
func (t *SimTransport) Reachable(a, b string) bool { return t.net.Reachable(a, b) }

// Partition splits the network into the given groups; nodes in different
// groups cannot exchange messages.
func (t *SimTransport) Partition(groups ...[]string) { t.net.Partition(groups...) }

// Heal removes any partition.
func (t *SimTransport) Heal() { t.net.Heal() }
