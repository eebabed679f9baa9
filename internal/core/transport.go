package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/sim"
)

// Handler serves one RPC method on a Node. reply must be invoked exactly
// once per request; it may fire immediately or after further round trips.
type Handler func(from string, req any, reply func(resp any))

// Node is one addressable participant on a Transport: it serves methods
// and issues calls with a per-call timeout. A call that receives no reply
// within the timeout resolves with ok=false — the only way a fail-fast
// world lets you observe a crash (§2.2).
type Node interface {
	// ID returns the node's name.
	ID() string
	// Crashed reports whether the node is currently down.
	Crashed() bool
	// Handle registers the handler for method. Registering a method twice
	// panics.
	Handle(method string, h Handler)
	// Call invokes method on node to. done fires exactly once: with the
	// response and ok=true, or with nil and ok=false on timeout. done may
	// be nil for fire-and-forget notifications.
	Call(to string, method string, req any, done func(resp any, ok bool))
	// Broadcast calls method on every node in to, invoking done once with
	// the responses that arrived in time after all calls resolve. resps is
	// valid only for the duration of done.
	Broadcast(to []string, method string, req any, done func(resps []any, oks int))
}

// Broadcast is the fan-out behind Node.Broadcast on both wall-clock
// transports — LiveTransport's nodes and internal/netx's: it calls method
// on every node in to through n.Call and hands done the responses that
// arrived in time, in arrival order, once every call has resolved. One
// pooled collector carries the round, its resps slice and its per-call
// callback reused, so resps is valid only for the duration of done.
func Broadcast(n Node, to []string, method string, req any, done func(resps []any, oks int)) {
	if len(to) == 0 {
		done(nil, 0)
		return
	}
	f, _ := fanoutPool.Get().(*fanout)
	if f == nil {
		f = &fanout{}
		f.collect = f.add
	}
	f.done, f.remaining = done, len(to)
	for _, peer := range to {
		n.Call(peer, method, req, f.collect)
	}
}

// fanout collects one Broadcast. It is back in the pool once done returns:
// every call has resolved by then, and each resolves exactly once.
type fanout struct {
	mu        sync.Mutex
	resps     []any
	oks       int
	remaining int
	done      func(resps []any, oks int)
	collect   func(resp any, ok bool) // f.add, bound once
}

var fanoutPool sync.Pool // *fanout

func (f *fanout) add(resp any, ok bool) {
	f.mu.Lock()
	if ok {
		f.resps = append(f.resps, resp)
		f.oks++
	}
	f.remaining--
	last := f.remaining == 0
	f.mu.Unlock()
	if !last {
		return
	}
	f.done(f.resps, f.oks)
	clear(f.resps)
	f.resps, f.oks, f.done = f.resps[:0], 0, nil
	fanoutPool.Put(f)
}

// Transport is the seam between the replication engine and the world that
// carries its messages and its clock. Two implementations ship with the
// package: SimTransport runs replicas on the deterministic discrete-event
// simulator (every experiment uses it), and LiveTransport runs them on
// real goroutines and wall-clock time so benchmarks can exercise true
// concurrency. The same Cluster code runs unchanged on either.
type Transport interface {
	// Now returns the transport's current time: virtual for the simulator,
	// elapsed wall clock for the live transport.
	Now() sim.Time
	// Node registers a node and returns its handle. Registering the same
	// id twice panics.
	Node(id string, callTimeout time.Duration) Node
	// Every schedules fn to run every interval until the returned stop
	// function is called.
	Every(interval time.Duration, fn func()) (stop func())
	// Await blocks until ready is closed or receives one value, or ctx is
	// done, driving whatever machinery the transport needs to make
	// progress (the simulator's event loop; nothing for real goroutines).
	// It returns nil at the first receive from ready — taking at most that
	// one value, so a caller that reuses a buffered ready finds it empty
	// again — ctx.Err() on cancellation, or ErrStalled if the transport
	// can prove no further progress is possible. Submit and SubmitBatch
	// rely on the single-receive half: their ready is a pooled 1-buffered
	// channel that is sent to, never closed.
	Await(ctx context.Context, ready <-chan struct{}) error
	// SetUp marks a node alive or crashed, for fault injection.
	SetUp(id string, up bool)
	// IsUp reports whether the node is alive.
	IsUp(id string) bool
	// Reachable reports whether a message from a to b would currently be
	// routed (it says nothing about b being up at delivery time).
	Reachable(a, b string) bool
}

// Scatterer is an optional Transport capability: run independent work
// functions to completion, in parallel when the transport's world allows
// it. The sharded SubmitBatch uses it to fan a batch out across shards —
// the live transport runs one goroutine per function so shard groups
// ingest concurrently; the simulator deliberately does not implement it
// and falls back to sequential dispatch, keeping runs deterministic.
type Scatterer interface {
	Scatter(fns []func())
}

// ErrStalled reports that a blocking Submit can never resolve because the
// transport ran out of work to do — on the simulator, the event queue
// drained with the submit still pending.
var ErrStalled = errors.New("quicksand: submit stalled: transport has no further work")
