// Package transport is the seam between the replication engine and the
// world that carries its messages and its clock. It names what a world
// must offer — addressable nodes with timed calls, a clock, a schedule,
// a way to wait — and nothing else, so it imports only the standard
// library. Each world's transport lives beside the world it carries:
// core.LiveTransport (goroutines and wall-clock time), netx.Transport
// (TCP between processes) and rpc.SimTransport (the deterministic
// discrete-event simulator), whose nodes are the rpc.Endpoints the
// paper's systems use, with no adapter between them and this Node.
package transport

import (
	"context"
	"errors"
	"sync"
	"time"
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

// Broadcast is the fan-out behind Node.Broadcast on every transport: it
// calls method on every node in to through n.Call and hands done the
// responses that arrived in time, in arrival order, once every call has
// resolved. One pooled collector carries the round, its resps slice and
// its per-call callback reused, so resps is valid only for the duration
// of done.
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

// Transport carries a cluster's messages and its clock. The same Cluster
// code runs unchanged on any implementation: the simulator's for every
// experiment, real goroutines for benchmarks, TCP for the daemon.
type Transport interface {
	// Now returns the transport's current time: virtual for the simulator,
	// elapsed wall clock for the live transport.
	Now() time.Duration
	// Node registers a node and returns its handle. Registering the same
	// id twice panics.
	Node(id string, callTimeout time.Duration) Node
	// Every schedules fn to run every interval until the returned stop
	// function is called.
	Every(interval time.Duration, fn func()) (stop func())
	// NewTimer returns an unarmed one-shot timer that runs fn on the
	// transport's clock each time it fires: on a goroutine of its own for
	// real time, as an event of the simulator's loop for virtual time.
	NewTimer(fn func()) Timer
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

// Timer is a re-armable one-shot timer, as time.AfterFunc makes: Reset
// arms it to fire once, d from now, Stop disarms it, and each reports
// whether it was armed. One that fired stays unarmed until Reset.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// Wall is real time, the clock of the transports that run on it: Now is
// the time elapsed since Epoch, and a timer is time.AfterFunc's.
type Wall struct{ Epoch time.Time }

func (w Wall) Now() time.Duration { return time.Since(w.Epoch) }

// NewTimer returns an unarmed timer that runs fn on its own goroutine.
func (Wall) NewTimer(fn func()) Timer {
	t := time.AfterFunc(time.Hour, fn)
	t.Stop()
	return t
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
