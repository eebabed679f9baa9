// Package rpc is the simulated world's one RPC layer: request/response
// calls with timeouts over the simulated network, and SimTransport, which
// runs an engine cluster on it.
//
// Every protocol in this repository — disk-process checkpoints, log
// shipping, Dynamo quorum reads, two-phase commit, and the engine itself
// on SimTransport — talks through an Endpoint, and an Endpoint is a
// transport.Node: one handler type, one call contract and one fan-out
// (transport.Broadcast) for the paper's systems and the engine alike. A
// call that receives no response within its timeout fails, which is the
// only way a fail-fast world lets you observe a crash (§2.2: a component
// "simply stops functioning").
package rpc

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

var _ transport.Node = (*Endpoint)(nil)

// callMsg and respMsg are the wire envelopes.
type callMsg struct {
	ID     uint64
	Method string
	Req    any
}

type respMsg struct {
	ID   uint64
	Resp any
}

// Endpoint is a node that can issue and serve RPCs. Construct with
// NewEndpoint, which registers the node on the network.
type Endpoint struct {
	net      *simnet.Network
	id       string
	timeout  time.Duration
	handlers map[string]transport.Handler
	pending  map[uint64]*call
	nextID   uint64
}

type call struct {
	done  func(resp any, ok bool)
	timer *sim.Timer
}

// NewEndpoint registers id on the network and returns its endpoint.
// timeout bounds every outbound call.
func NewEndpoint(net *simnet.Network, id string, timeout time.Duration) *Endpoint {
	e := &Endpoint{
		net:      net,
		id:       id,
		timeout:  timeout,
		handlers: make(map[string]transport.Handler),
		pending:  make(map[uint64]*call),
	}
	net.AddNode(id, e.dispatch)
	return e
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() string { return e.id }

// Handle registers the handler for method. reply may be invoked
// immediately or later (e.g. after a checkpoint round trip completes);
// invoking it twice panics. Registering a method twice panics: two state
// machines fighting over a method name is a bug.
func (e *Endpoint) Handle(method string, h transport.Handler) {
	if _, dup := e.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for %q on %q", method, e.id))
	}
	e.handlers[method] = h
}

// Call invokes method on node to. done fires exactly once: with the
// response and ok=true, or with nil and ok=false if the deadline passes
// (crashed node, partition, lost message). done may be nil for
// fire-and-forget notifications.
func (e *Endpoint) Call(to string, method string, req any, done func(resp any, ok bool)) {
	e.nextID++
	id := e.nextID
	if done != nil {
		c := &call{done: done}
		c.timer = e.net.Sim().After(e.timeout, func() {
			delete(e.pending, id)
			done(nil, false)
		})
		e.pending[id] = c
	}
	e.net.Send(e.id, to, callMsg{ID: id, Method: method, Req: req})
}

// Broadcast calls method on every node in to through the shared
// transport.Broadcast: done fires once, after every call has resolved,
// with the responses that arrived in time, in arrival order. resps is
// valid only for the duration of done.
func (e *Endpoint) Broadcast(to []string, method string, req any, done func(resps []any, oks int)) {
	transport.Broadcast(e, to, method, req, done)
}

// Crashed reports whether this endpoint's node is currently down.
func (e *Endpoint) Crashed() bool { return !e.net.IsUp(e.id) }

func (e *Endpoint) dispatch(m simnet.Message) {
	switch msg := m.Payload.(type) {
	case callMsg:
		h, ok := e.handlers[msg.Method]
		if !ok {
			panic(fmt.Sprintf("rpc: node %q has no handler for %q", e.id, msg.Method))
		}
		replied := false
		h(m.From, msg.Req, func(resp any) {
			if replied {
				panic(fmt.Sprintf("rpc: double reply to %q on %q", msg.Method, e.id))
			}
			replied = true
			e.net.Send(e.id, m.From, respMsg{ID: msg.ID, Resp: resp})
		})
	case respMsg:
		c, ok := e.pending[msg.ID]
		if !ok {
			return // response landed after timeout; drop it
		}
		delete(e.pending, msg.ID)
		c.timer.Stop()
		c.done(msg.Resp, true)
	}
}
