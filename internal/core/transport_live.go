package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// LiveTransport runs a cluster on real goroutines and wall-clock time:
// message deliveries run on per-node delivery workers, every timeout is a
// real timer. It trades the simulator's determinism for true parallelism,
// which is what `go test -bench` and cmd/quicksand-bench use to measure
// the engine at hardware speed. Nodes can still be crashed (SetUp) for
// fault-injection tests; partitions are not modelled — Reachable is
// always true between registered nodes.
//
// Delivery does not spawn a goroutine per message: each node owns an
// inbox drained by one coalescing worker goroutine, spawned when traffic
// arrives and exiting when the inbox empties. A gossip storm of N pushes
// at a node therefore costs one goroutine wake instead of N goroutine
// starts, and deliveries to one node run in arrival order. Handlers must
// not block waiting for another delivery to the same node (none of the
// engine's do — every reply and follow-up call is asynchronous).
//
// A call is one pooled record (liveCall) from Call to done: the request
// rides the callee's inbox, the response rides the caller's, and one timer
// reports the timeout, so a steady-state round trip allocates nothing.
type LiveTransport struct {
	mu    sync.RWMutex // guards the node map; hot paths take it read-only
	start time.Time
	nodes map[string]*liveNode
}

// NewLiveTransport returns an empty live transport. Messages are delivered
// as fast as the scheduler allows.
func NewLiveTransport() *LiveTransport {
	return &LiveTransport{
		start: time.Now(),
		nodes: make(map[string]*liveNode),
	}
}

// Now returns the wall-clock time elapsed since the transport was built.
func (t *LiveTransport) Now() sim.Time { return sim.Time(time.Since(t.start)) }

// Node registers a node. Registering the same id twice panics.
func (t *LiveTransport) Node(id string, callTimeout time.Duration) Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.nodes[id]; dup {
		panic(fmt.Sprintf("quicksand: live node %q already registered", id))
	}
	n := &liveNode{
		t:        t,
		id:       id,
		timeout:  callTimeout,
		handlers: make(map[string]Handler),
	}
	n.drain = n.drainInbox
	t.nodes[id] = n
	return n
}

// Every runs fn every interval on its own goroutine until stopped.
func (t *LiveTransport) Every(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("quicksand: Every interval must be positive, got %v", interval))
	}
	ticker := time.NewTicker(interval)
	quit := make(chan struct{})
	var stopped atomic.Bool
	go func() {
		for {
			select {
			case <-ticker.C:
				fn()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		if stopped.CompareAndSwap(false, true) {
			ticker.Stop()
			close(quit)
		}
	}
}

// Scatter runs every fn on its own goroutine and waits for all of them —
// the live half of the Scatterer capability, which lets a sharded
// SubmitBatch drive independent shard groups in true parallel.
func (t *LiveTransport) Scatter(fns []func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// Await blocks until ready closes or ctx is done. Real goroutines make
// their own progress, so there is nothing to drive.
func (t *LiveTransport) Await(ctx context.Context, ready <-chan struct{}) error {
	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SetUp marks a node alive or crashed. A crashed node sends nothing and
// receives nothing; messages in flight to it are dropped at delivery.
func (t *LiveTransport) SetUp(id string, up bool) { t.node(id).setUp(up) }

// IsUp reports whether the node is alive.
func (t *LiveTransport) IsUp(id string) bool { return !t.node(id).Crashed() }

// Reachable reports whether both nodes are registered; the live transport
// does not model partitions.
func (t *LiveTransport) Reachable(a, b string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, okA := t.nodes[a]
	_, okB := t.nodes[b]
	return okA && okB
}

func (t *LiveTransport) node(id string) *liveNode {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.nodes[id]
	if !ok {
		panic(fmt.Sprintf("quicksand: unknown live node %q", id))
	}
	return n
}

// liveNode is one participant on a LiveTransport. Handler registration
// happens before traffic starts; the handlers map is read-only afterwards.
type liveNode struct {
	t        *LiveTransport
	id       string
	timeout  time.Duration
	down     atomic.Bool
	mu       sync.Mutex
	handlers map[string]Handler

	// The inbox is two slices the drain swaps: producers append to inbox
	// while the worker runs the batch it took, and the emptied batch comes
	// back as spare for the next swap.
	inboxMu  sync.Mutex
	inbox    []*liveCall
	spare    []*liveCall
	draining bool
	drain    func() // n.drainInbox, bound once: starting the worker allocates nothing
}

func (n *liveNode) ID() string { return n.id }

func (n *liveNode) Crashed() bool { return n.down.Load() }

func (n *liveNode) setUp(up bool) { n.down.Store(!up) }

func (n *liveNode) Handle(method string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.handlers[method]; dup {
		panic(fmt.Sprintf("quicksand: duplicate handler for %q on %q", method, n.id))
	}
	n.handlers[method] = h
}

func (n *liveNode) handler(method string) Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.handlers[method]
	if !ok {
		panic(fmt.Sprintf("quicksand: node %q has no handler for %q", n.id, method))
	}
	return h
}

// enqueue appends c to the node's inbox and ensures a worker is draining
// it. The worker is coalescing: it exists only while the inbox is
// non-empty, so idle nodes hold no goroutine and a burst of messages
// shares one.
func (n *liveNode) enqueue(c *liveCall) {
	n.inboxMu.Lock()
	n.inbox = append(n.inbox, c)
	if n.draining {
		n.inboxMu.Unlock()
		return
	}
	n.draining = true
	n.inboxMu.Unlock()
	go n.drain()
}

// drainInbox runs queued records in arrival order until the inbox
// empties, then exits.
func (n *liveNode) drainInbox() {
	var batch []*liveCall
	for {
		n.inboxMu.Lock()
		if batch != nil {
			n.spare = batch[:0]
		}
		if len(n.inbox) == 0 {
			n.draining = false
			n.inboxMu.Unlock()
			return
		}
		batch, n.inbox, n.spare = n.inbox, n.spare, nil
		n.inboxMu.Unlock()
		for i, c := range batch {
			batch[i] = nil
			c.run()
		}
	}
}

// Call matches the fail-fast semantics of the simulated rpc layer: a
// crashed sender sends nothing (the caller observes a timeout), a crashed
// receiver drops the message, and a reply landing after the deadline is
// discarded.
func (n *liveNode) Call(to string, method string, req any, done func(resp any, ok bool)) {
	c, _ := liveCallPool.Get().(*liveCall)
	if c == nil {
		c = &liveCall{}
		c.reply = c.onReply
		c.timer = time.AfterFunc(time.Hour, c.expire)
		c.timer.Stop() // armed below, on every use alike
	}
	c.from, c.method, c.req, c.done = n, method, req, done
	c.state.Store(0)
	c.timer.Reset(n.timeout)
	if n.Crashed() {
		return // a stopped process sends nothing; the timer reports it
	}
	c.to = n.t.node(to)
	c.h = c.to.handler(method)
	c.to.enqueue(c)
}

func (n *liveNode) Broadcast(to []string, method string, req any, done func(resps []any, oks int)) {
	Broadcast(n, to, method, req, done)
}

// A call record's state only ever gains bits.
const (
	callReplied  int32 = 1 << iota // the handler invoked reply
	callReturned                   // the handler returned
	callDone                       // done fired: with the response, or with a timeout
)

// liveCall is one call on a LiveTransport, from Call to done. It rides the
// callee's inbox as a request and, once answered, the caller's inbox as a
// response; its timer — created with the record, re-armed with Reset on
// every reuse — reports a timeout if the response has not landed by then.
//
// Who owns a record, and until when: Call takes it from the pool and arms
// the timer. The callee's worker runs the handler; the response is queued
// to the caller by whichever of "the handler replied" and "the handler
// returned" happens second, so a handler that replies twice before
// returning always panics on its own record. The caller's worker stops
// the timer and fires done. The record goes back to the pool only when
// that response was delivered and timer.Stop returned true — then nothing
// else can reach it. A record whose timer fired, whose request met a
// crashed callee, or whose response was lost to a crashed caller is
// abandoned to the garbage collector: a late reply, or a timer func
// already running, may still touch it, so it is never reused. A handler
// must not touch reply after its one call.
type liveCall struct {
	from, to *liveNode
	h        Handler
	method   string
	req      any
	done     func(resp any, ok bool)
	resp     any
	state    atomic.Int32

	timer *time.Timer    // runs c.expire, bound once
	reply func(resp any) // c.onReply, bound once
}

var liveCallPool sync.Pool // *liveCall

// run is the record's turn on a worker: a request at the callee until the
// handler has replied, the response at the caller after.
func (c *liveCall) run() {
	if c.state.Load()&callReplied != 0 {
		c.complete()
		return
	}
	if c.to.Crashed() {
		return // dropped at a crashed receiver; the timer reports it
	}
	c.h(c.from.id, c.req, c.reply)
	if c.state.Or(callReturned)&callReplied != 0 {
		c.respond()
	}
}

func (c *liveCall) onReply(resp any) {
	if c.state.Load()&callReplied == 0 {
		c.resp = resp // a second reply panics below and keeps the first's
	}
	old := c.state.Or(callReplied)
	if old&callReplied != 0 {
		panic(fmt.Sprintf("quicksand: double reply to %q on %q", c.method, c.to.id))
	}
	if old&callReturned != 0 {
		c.respond() // replied after the handler returned
	}
}

// respond queues the response at the caller — unless the call already
// timed out, or the caller crashed: a response to a crashed caller is
// lost.
func (c *liveCall) respond() {
	if c.state.Load()&callDone != 0 || c.from.Crashed() {
		return
	}
	c.from.enqueue(c)
}

// complete delivers the response at the caller.
func (c *liveCall) complete() {
	stopped := c.timer.Stop()
	if c.state.Or(callDone)&callDone != 0 {
		return // the timer won and reported a timeout
	}
	done, resp := c.done, c.resp
	if stopped {
		c.from, c.to, c.h, c.method, c.req, c.done, c.resp = nil, nil, nil, "", nil, nil, nil
		liveCallPool.Put(c)
	}
	if done != nil {
		done(resp, true)
	}
}

// expire is the timer's func: report the timeout unless the response
// landed first.
func (c *liveCall) expire() {
	if c.state.Or(callDone)&callDone == 0 && c.done != nil {
		c.done(nil, false)
	}
}
