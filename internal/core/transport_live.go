package core

import (
	"context"
	"fmt"
	"sync"
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
	var once sync.Once
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
		once.Do(func() {
			ticker.Stop()
			close(quit)
		})
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
	mu       sync.Mutex
	handlers map[string]Handler
	down     bool

	inboxMu  sync.Mutex
	inbox    []func()
	draining bool
}

func (n *liveNode) ID() string { return n.id }

func (n *liveNode) Crashed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

func (n *liveNode) setUp(up bool) {
	n.mu.Lock()
	n.down = !up
	n.mu.Unlock()
}

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

// enqueue appends fn to the node's inbox and ensures a worker is
// draining it. The worker is coalescing: it exists only while the inbox
// is non-empty, so idle nodes hold no goroutine and a burst of messages
// shares one.
func (n *liveNode) enqueue(fn func()) {
	n.inboxMu.Lock()
	n.inbox = append(n.inbox, fn)
	if n.draining {
		n.inboxMu.Unlock()
		return
	}
	n.draining = true
	n.inboxMu.Unlock()
	go n.drainInbox()
}

// drainInbox runs queued deliveries in arrival order until the inbox
// empties, then exits.
func (n *liveNode) drainInbox() {
	for {
		n.inboxMu.Lock()
		batch := n.inbox
		if len(batch) == 0 {
			n.draining = false
			n.inboxMu.Unlock()
			return
		}
		n.inbox = nil
		n.inboxMu.Unlock()
		for _, fn := range batch {
			fn()
		}
	}
}

// Call matches the fail-fast semantics of the simulated rpc layer: a
// crashed sender sends nothing (the caller observes a timeout), a crashed
// receiver drops the message, and a reply landing after the deadline is
// discarded.
func (n *liveNode) Call(to string, method string, req any, done func(resp any, ok bool)) {
	var once sync.Once
	fire := func(resp any, ok bool) {
		once.Do(func() {
			if done != nil {
				done(resp, ok)
			}
		})
	}
	timer := time.AfterFunc(n.timeout, func() { fire(nil, false) })
	if n.Crashed() {
		return // a stopped process sends nothing; the timer reports it
	}
	peer := n.t.node(to)
	peer.enqueue(func() {
		if peer.Crashed() {
			return
		}
		replied := false
		peer.handler(method)(n.id, req, func(resp any) {
			if replied {
				panic(fmt.Sprintf("quicksand: double reply to %q on %q", method, peer.id))
			}
			replied = true
			if n.Crashed() {
				return // response to a crashed caller is lost
			}
			n.enqueue(func() {
				timer.Stop()
				fire(resp, true)
			})
		})
	})
}

func (n *liveNode) Broadcast(to []string, method string, req any, done func(resps []any, oks int)) {
	if len(to) == 0 {
		done(nil, 0)
		return
	}
	var mu sync.Mutex
	var resps []any
	oks, remaining := 0, len(to)
	for _, peer := range to {
		n.Call(peer, method, req, func(resp any, ok bool) {
			mu.Lock()
			if ok {
				resps = append(resps, resp)
				oks++
			}
			remaining--
			last := remaining == 0
			r, o := resps, oks
			mu.Unlock()
			if last {
				done(r, o)
			}
		})
	}
}
