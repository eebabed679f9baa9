// Package netx implements the Transport seam over real TCP sockets, so
// a cluster's replicas can live in different processes on different
// machines — the world Building on Quicksand actually describes, where
// messages are lost, peers die, and links slow down for real.
//
// A netx.Transport is one process's view of the cluster: the replicas it
// hosts ride an embedded in-process LiveTransport (local traffic never
// touches a socket), and every other replica is a configured peer
// address. Replica-to-replica messages — gossip pushes, sync-coordination
// admits and applies — cross the wire as length-prefixed binary frames
// using the core wire codec (which in turn reuses the oplog entry codec,
// the disk journal's own format).
//
// Failure semantics are deliberately those of the paper, not of TCP:
//   - every call carries the engine's own timeout; a silent peer is
//     observed as ok=false, never as a hung goroutine;
//   - writes carry deadlines, and a peer that stops draining its socket
//     fails the write instead of wedging the sender;
//   - a dead peer costs one dial attempt per backoff interval; frames
//     queued meanwhile are dropped — a partitioned replica in §2's
//     sense, degrading gossip to "catch up later", never blocking ingest;
//   - reconnection is automatic with exponential backoff, and the first
//     frame of every connection is an authenticated hello, so a stray
//     process cannot join the gossip mesh.
package netx

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// Config wires one process into the cluster.
type Config struct {
	// Listen is the TCP address to accept peer traffic on. Empty means
	// this transport only dials out (a client-only process).
	Listen string
	// Peers maps remote node IDs (core.NodeID naming) to the TCP address
	// of the process hosting them. Several node IDs — all the replicas
	// one daemon hosts — typically share one address.
	Peers map[string]string
	// Token authenticates peer connections: both ends must present the
	// same value in their hello frame. Empty disables authentication.
	Token string
	// Logf, when set, receives connection lifecycle events (dials,
	// drops, auth failures). Nil means silent.
	Logf func(format string, args ...any)
	// Faults configures deterministic outbound link faults (see the
	// Faults type); the zero value injects nothing. Rates can be changed
	// later with SetFaults.
	Faults Faults
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// writeTimeout bounds every frame write: a peer that accepts the
	// connection but stops reading fails fast.
	writeTimeout = 2 * time.Second
	// maxBackoff caps the reconnect backoff, which starts at 50ms and
	// doubles per failed dial.
	maxBackoff = 2 * time.Second
	// sendQueue bounds the per-peer outbound frame queue. When it fills —
	// a dead or slow peer — further frames are dropped, exactly like
	// packets to a partitioned machine.
	sendQueue = 1024
)

// Transport carries one process's slice of the cluster over TCP. It
// implements transport.Transport (and transport.Scatterer); build it with
// New, register the locally hosted nodes through the cluster as usual
// (core.WithTransport + core.WithLocalReplicas), and Close it after the
// cluster.
type Transport struct {
	cfg   Config
	local *core.LiveTransport
	ln    net.Listener

	mu         sync.Mutex
	nodes      map[string]*netNode // locally hosted
	peers      map[string]*peer    // by address
	peerOf     map[string]*peer    // by remote node id
	remoteDown map[string]bool     // fault injection: remote ids marked down locally
	conns      map[net.Conn]bool   // accepted connections, for Close

	seq    atomic.Uint64
	callMu sync.Mutex
	calls  map[uint64]*remoteCall // remote calls awaiting their response frame

	faults        atomic.Pointer[Faults] // current outbound fault schedule
	corruptFrames atomic.Int64           // inbound frames rejected by the checksum

	closed chan struct{}
	wg     sync.WaitGroup
}

// New builds a transport and, if cfg.Listen is set, starts accepting
// peer connections immediately (the bound address is Addr, so ":0"
// works for tests).
func New(cfg Config) (*Transport, error) {
	if helloSize(cfg.Token) > maxHelloFrame {
		return nil, fmt.Errorf("netx: a token of %d bytes does not fit a %d-byte hello", len(cfg.Token), maxHelloFrame)
	}
	t := &Transport{
		cfg:        cfg,
		local:      core.NewLiveTransport(),
		nodes:      make(map[string]*netNode),
		peers:      make(map[string]*peer),
		peerOf:     make(map[string]*peer),
		remoteDown: make(map[string]bool),
		conns:      make(map[net.Conn]bool),
		calls:      make(map[uint64]*remoteCall),
		closed:     make(chan struct{}),
	}
	f := t.cfg.Faults
	t.faults.Store(&f)
	for id, addr := range t.cfg.Peers {
		p, ok := t.peers[addr]
		if !ok {
			p = newPeer(t, addr)
			t.peers[addr] = p
			t.wg.Add(1)
			go p.run()
		}
		t.peerOf[id] = p
	}
	if t.cfg.Listen != "" {
		ln, err := net.Listen("tcp", t.cfg.Listen)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("netx: listen %s: %w", t.cfg.Listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// AddPeer registers (or re-addresses) one remote node after
// construction. Daemons normally configure Peers up front; tests and
// dynamically wired topologies use this to break the "both addresses
// must exist before either transport" cycle.
func (t *Transport) AddPeer(id, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, local := t.nodes[id]; local {
		panic(fmt.Sprintf("netx: node %q is hosted locally", id))
	}
	p, ok := t.peers[addr]
	if !ok {
		p = newPeer(t, addr)
		t.peers[addr] = p
		t.wg.Add(1)
		go p.run()
	}
	t.peerOf[id] = p
}

// SetFaults replaces the outbound fault schedule at runtime (the chaos
// scenarios use this to start and stop a mangling episode). The zero
// value turns injection off. Each link's rng persists across calls, so
// re-enabling the same rates continues the same deterministic schedule.
func (t *Transport) SetFaults(f Faults) {
	t.faults.Store(&f)
}

// CorruptFrames reports how many inbound frames this transport has
// rejected for a failed length or checksum check. Each one also cost a
// connection: corruption closes the link and lets backoff own recovery.
func (t *Transport) CorruptFrames() int64 { return t.corruptFrames.Load() }

// noteReadErr classifies one connection's fatal read error, counting
// checksum rejections so operators can see corruption as a number
// rather than a mystery of flapping links.
func (t *Transport) noteReadErr(conn net.Conn, err error) {
	if errors.Is(err, errCorruptFrame) {
		t.corruptFrames.Add(1)
		t.cfg.logf("netx: %s: closing link on corrupt frame: %v", conn.RemoteAddr(), err)
	}
}

// PeerStat is one outbound link's health snapshot: liveness plus the
// frame/byte counters and the propagation timestamp of the last
// successful write.
type PeerStat struct {
	Addr          string
	Up            bool
	FramesSent    int64
	BytesSent     int64
	FramesDropped int64
	FramesMangled int64 // frames the fault injector touched (dropped, duplicated, held, or flipped)
	Reconnects    int64
	LastSendNs    int64 // UnixNano of the last successful write; 0 before any
}

// PeerStats snapshots every configured outbound peer link, sorted by
// address for stable /metrics output.
func (t *Transport) PeerStats() []PeerStat {
	t.mu.Lock()
	out := make([]PeerStat, 0, len(t.peers))
	for addr, p := range t.peers {
		out = append(out, PeerStat{
			Addr:          addr,
			Up:            p.dialed.Load() && !p.down.Load(),
			FramesSent:    p.framesSent.Load(),
			BytesSent:     p.bytesSent.Load(),
			FramesDropped: p.framesDropped.Load(),
			FramesMangled: p.framesMangled.Load(),
			Reconnects:    p.reconnects.Load(),
			LastSendNs:    p.lastSendNs.Load(),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Addr reports the bound listen address ("" when not listening).
func (t *Transport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Close shuts the listener and every peer connection down and waits for
// the transport's goroutines. In-flight calls resolve through their
// timeouts; close the cluster first.
func (t *Transport) Close() error {
	select {
	case <-t.closed:
		return nil
	default:
	}
	close(t.closed)
	if t.ln != nil {
		t.ln.Close()
	}
	t.mu.Lock()
	for conn := range t.conns {
		conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// --- transport.Transport ---

// Now returns wall-clock time elapsed since the transport was built.
func (t *Transport) Now() time.Duration { return t.local.Now() }

// Node registers a locally hosted node. Remote nodes are never
// registered here — they are Peers configuration.
func (t *Transport) Node(id string, callTimeout time.Duration) transport.Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.nodes[id]; dup {
		panic(fmt.Sprintf("netx: node %q already registered", id))
	}
	if _, isPeer := t.peerOf[id]; isPeer {
		panic(fmt.Sprintf("netx: node %q is configured as a remote peer", id))
	}
	n := &netNode{
		t:        t,
		id:       id,
		timeout:  callTimeout,
		inner:    t.local.Node(id, callTimeout),
		handlers: make(map[string]transport.Handler),
	}
	t.nodes[id] = n
	return n
}

// Every delegates periodic work (gossip schedules) to real timers.
func (t *Transport) Every(interval time.Duration, fn func()) (stop func()) {
	return t.local.Every(interval, fn)
}

// NewTimer is the LiveTransport's: a real timer.
func (t *Transport) NewTimer(fn func()) transport.Timer { return t.local.NewTimer(fn) }

// Scatter runs every fn on its own goroutine and waits — the live half
// of the Scatterer capability, same as LiveTransport.
func (t *Transport) Scatter(fns []func()) { t.local.Scatter(fns) }

// Await is the LiveTransport's: real goroutines make their own progress.
func (t *Transport) Await(ctx context.Context, ready <-chan struct{}) error {
	return t.local.Await(ctx, ready)
}

// SetUp marks a node alive or crashed. For a locally hosted node this is
// the LiveTransport's crash flag; for a remote node it is a local mark —
// this process stops sending to (and accepting liveness of) the peer,
// which is how tests inject a one-sided partition.
func (t *Transport) SetUp(id string, up bool) {
	t.mu.Lock()
	_, local := t.nodes[id]
	if !local {
		if _, known := t.peerOf[id]; !known {
			t.mu.Unlock()
			panic(fmt.Sprintf("netx: unknown node %q", id))
		}
		t.remoteDown[id] = !up
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.local.SetUp(id, up)
}

// IsUp reports liveness: the real crash flag for local nodes, and this
// process's best knowledge for remote ones — not marked down, and its
// peer link not currently failing its dials.
func (t *Transport) IsUp(id string) bool {
	t.mu.Lock()
	_, local := t.nodes[id]
	if !local {
		p, known := t.peerOf[id]
		down := t.remoteDown[id]
		t.mu.Unlock()
		if !known {
			panic(fmt.Sprintf("netx: unknown node %q", id))
		}
		return !down && !p.down.Load()
	}
	t.mu.Unlock()
	return t.local.IsUp(id)
}

// Reachable reports whether a message from a to b would currently be
// routed: both ends known to this process and neither marked down.
func (t *Transport) Reachable(a, b string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	known := func(id string) bool {
		if _, ok := t.nodes[id]; ok {
			return true
		}
		_, ok := t.peerOf[id]
		return ok && !t.remoteDown[id]
	}
	return known(a) && known(b)
}

func (t *Transport) isLocal(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.nodes[id]
	return ok
}

func (t *Transport) localNode(id string) *netNode {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nodes[id]
}

func (t *Transport) peerFor(id string) (p *peer, markedDown bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peerOf[id], t.remoteDown[id]
}

func (t *Transport) addCall(seq uint64, c *remoteCall) {
	t.callMu.Lock()
	t.calls[seq] = c
	t.callMu.Unlock()
}

// takeCall claims the call pending under seq: nil when its response
// already landed, its send failed, or its timer fired. A seq is never
// reused, so a late or duplicated response frame finds nothing.
func (t *Transport) takeCall(seq uint64) *remoteCall {
	t.callMu.Lock()
	c := t.calls[seq]
	delete(t.calls, seq)
	t.callMu.Unlock()
	return c
}

// --- the node ---

// netNode is one locally hosted participant. Local destinations ride the
// embedded LiveTransport (per-node inbox workers, artificial latency if
// any); remote destinations are encoded onto the peer's connection.
type netNode struct {
	t       *Transport
	id      string
	timeout time.Duration
	inner   transport.Node

	hmu      sync.Mutex
	handlers map[string]transport.Handler
}

func (n *netNode) ID() string    { return n.id }
func (n *netNode) Crashed() bool { return n.inner.Crashed() }

func (n *netNode) Handle(method string, h transport.Handler) {
	// Register on the inner node (local callers) and in the transport's
	// own registry (frames arriving from peers).
	n.inner.Handle(method, h)
	n.hmu.Lock()
	defer n.hmu.Unlock()
	if _, dup := n.handlers[method]; dup {
		panic(fmt.Sprintf("netx: duplicate handler for %q on %q", method, n.id))
	}
	n.handlers[method] = h
}

func (n *netNode) handler(method string) transport.Handler {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	return n.handlers[method]
}

// Call matches the engine's fail-fast semantics across the socket: done
// fires exactly once, with the response, or with ok=false when the
// timeout expires, the peer is unreachable, or the frame could not be
// sent (a full queue or a dead link loses messages, it never blocks the
// caller).
func (n *netNode) Call(to string, method string, req any, done func(resp any, ok bool)) {
	if n.t.isLocal(to) {
		n.inner.Call(to, method, req, done)
		return
	}
	p, markedDown := n.t.peerFor(to)
	if p == nil {
		panic(fmt.Sprintf("netx: node %q is neither local nor a configured peer", to))
	}
	c, _ := remoteCallPool.Get().(*remoteCall)
	if c == nil {
		c = &remoteCall{}
		c.timer = time.AfterFunc(time.Hour, c.expire)
		c.timer.Stop() // armed below, on every use alike
	}
	c.n, c.done, c.seq = n, done, 0
	c.fired.Store(false)
	if n.Crashed() || markedDown {
		// A stopped process sends nothing, and a peer partitioned away
		// locally receives nothing: the timer reports either.
		c.timer.Reset(n.timeout)
		return
	}
	c.seq = n.t.seq.Add(1)
	frame, err := encodeReq(c.seq, n.id, to, method, req)
	if err != nil {
		panic(fmt.Sprintf("netx: %v", err)) // non-wire payload: a programming error
	}
	n.t.addCall(c.seq, c)
	c.timer.Reset(n.timeout)
	if !p.send(frame) {
		// The frame is already lost (queue full, link down, transport
		// closed): resolve now instead of waiting out the timer.
		if n.t.takeCall(c.seq) == c {
			c.resolve(nil, false)
		}
	}
}

// Broadcast fans Call out through the engine's one collector, the same
// as the in-process transports.
func (n *netNode) Broadcast(to []string, method string, req any, done func(resps []any, oks int)) {
	transport.Broadcast(n, to, method, req, done)
}

// remoteCall is one call to a node in another process, from Call to done:
// the same record shape as core's live calls. Its timer is created with
// the record and re-armed on every reuse; while the call is pending the
// transport's calls map holds it under its seq. Whoever takes it out of
// the map — the response frame, or a failed send — resolves it; the
// timer resolves it otherwise. It goes back to the pool only when it was
// resolved by its response (or its lost frame) and timer.Stop returned
// true. A record whose timer fired, or whose response reached a crashed
// caller, is abandoned to the garbage collector.
type remoteCall struct {
	n     *netNode // the caller
	done  func(resp any, ok bool)
	seq   uint64
	fired atomic.Bool
	timer *time.Timer // runs c.expire, bound once
}

var remoteCallPool sync.Pool // *remoteCall

// resolve fires done with the call's outcome unless the timer already did.
func (c *remoteCall) resolve(resp any, ok bool) {
	stopped := c.timer.Stop()
	if c.fired.Swap(true) {
		return
	}
	done := c.done
	if stopped {
		c.n, c.done = nil, nil
		remoteCallPool.Put(c)
	}
	if done != nil {
		done(resp, ok)
	}
}

// expire is the timer's func: report the timeout, and drop the pending
// entry a response will now never claim.
func (c *remoteCall) expire() {
	if c.fired.Swap(true) {
		return
	}
	if c.seq != 0 {
		c.n.t.takeCall(c.seq)
	}
	if c.done != nil {
		c.done(nil, false)
	}
}

// --- inbound connections ---

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		t.conns[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func (t *Transport) dropConn(conn net.Conn) {
	conn.Close()
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// serveConn authenticates one inbound connection, then processes its
// request frames for the life of the connection. Responses are written
// back on the same connection, serialized under a write deadline.
func (t *Transport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer t.dropConn(conn)
	fr := newFrameReader(conn)
	conn.SetReadDeadline(time.Now().Add(dialTimeout + writeTimeout))
	// The hello is read before its sender has proven anything, so it
	// gets the hello's bound, not a frame's.
	payload, err := fr.read(maxHelloFrame)
	if err != nil || payload[0] != frameHello {
		t.cfg.logf("netx: %s: connection without hello rejected", conn.RemoteAddr())
		return
	}
	token, err := decodeHello(payload[1:])
	if err != nil || token != t.cfg.Token {
		t.cfg.logf("netx: %s: bad hello token rejected", conn.RemoteAddr())
		return
	}
	conn.SetReadDeadline(time.Time{})
	w := &connWriter{conn: conn}
	for {
		payload, err := fr.read(maxFrame)
		if err != nil {
			t.noteReadErr(conn, err)
			return
		}
		t.handleFrame(fr, payload, w)
	}
}

// handleFrame dispatches one decoded frame: requests go to the target
// node's handler (whose asynchronous reply is written back on w),
// responses resolve their pending call. Damaged frames and frames for
// unknown or crashed nodes are dropped — the caller's timeout is the
// error path, exactly as for an in-process crashed node. The payload is
// fr's buffer: nothing decoded from it refers to it.
func (t *Transport) handleFrame(fr *frameReader, payload []byte, w *connWriter) {
	kind, body := payload[0], payload[1:]
	switch kind {
	case frameReq:
		req, err := fr.decodeReq(body)
		if err != nil {
			t.cfg.logf("netx: dropping bad request frame: %v", err)
			return
		}
		nd := t.localNode(req.to)
		if nd == nil || nd.Crashed() {
			return // unknown or crashed target: silence, the caller times out
		}
		h := nd.handler(req.method)
		if h == nil {
			t.cfg.logf("netx: node %s has no handler for %q", req.to, req.method)
			return
		}
		var replied atomic.Bool
		h(req.from, req.msg, func(resp any) {
			if replied.Swap(true) {
				panic(fmt.Sprintf("netx: double reply to %q on %q", req.method, req.to))
			}
			if nd.Crashed() {
				return // a reply from a crashed node is lost
			}
			out, err := encodeResp(req.seq, resp)
			if err != nil {
				t.cfg.logf("netx: cannot encode response to %q: %v", req.method, err)
				return
			}
			if err := w.write(out); err != nil {
				t.cfg.logf("netx: response write to %s failed: %v", req.from, err)
			}
		})
	case frameResp:
		seq, msg, err := decodeResp(body)
		if err != nil {
			t.cfg.logf("netx: dropping bad response frame: %v", err)
			return
		}
		c := t.takeCall(seq)
		if c == nil {
			return // late, or a duplicate: the call already resolved
		}
		if c.n.Crashed() {
			return // a response to a crashed caller is lost; the timer reports it
		}
		c.resolve(msg, true)
	case frameHello:
		// Duplicate hello after authentication: harmless.
	default:
		t.cfg.logf("netx: dropping frame of unknown kind %d", kind)
	}
}

// --- outbound peer links ---

// peer owns the outbound connection to one remote address: a bounded
// send queue drained by a single writer goroutine that dials on demand,
// reconnects with exponential backoff, and drops frames while the link
// is down. Responses to this process's calls return on the same
// connection, consumed by a reader goroutine per established conn.
type peer struct {
	t      *Transport
	addr   string
	sendq  chan []byte
	down   atomic.Bool // last dial or write failed; cleared on reconnect
	mangle *mangler    // seeded fault state, owned by the writer goroutine

	// Link-health telemetry, exported per peer on the daemon's /metrics.
	framesSent    atomic.Int64
	bytesSent     atomic.Int64
	framesDropped atomic.Int64 // queue full, link down, or transport closed
	framesMangled atomic.Int64 // frames the fault injector dropped, duplicated, held, or flipped
	reconnects    atomic.Int64 // successful dials after the first
	dialed        atomic.Bool  // a dial has succeeded at least once
	lastSendNs    atomic.Int64 // wall clock (UnixNano) of the last successful write
}

func newPeer(t *Transport, addr string) *peer {
	return &peer{
		t:      t,
		addr:   addr,
		sendq:  make(chan []byte, sendQueue),
		mangle: newMangler(t.cfg.Faults.Seed, addr),
	}
}

// send enqueues one frame, dropping it when the queue is full or the
// transport is closed — a lossy link, never a blocking one.
func (p *peer) send(frame []byte) bool {
	select {
	case <-p.t.closed:
		p.framesDropped.Add(1)
		return false
	default:
	}
	select {
	case p.sendq <- frame:
		return true
	default:
		p.framesDropped.Add(1)
		return false
	}
}

// run is the writer goroutine: it drains the queue, dialing (with
// backoff) whenever the link is down. A failed write closes the
// connection and drops the frame; the engine's timeouts and gossip
// retries own redelivery.
//
// While disconnected, the writer also probes the peer on the backoff
// cadence independent of traffic. This matters because the engine stops
// *sending* to a peer it observes as down (gossip skips crashed nodes) —
// without an unprompted probe, a restarted peer would never be
// rediscovered and the partition would outlive the outage.
func (p *peer) run() {
	defer p.t.wg.Done()
	var conn net.Conn
	var lastDial time.Time
	backoff := 50 * time.Millisecond
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		var frame []byte
		if conn == nil {
			select {
			case <-p.t.closed:
				return
			case frame = <-p.sendq:
			case <-time.After(backoff): // reconnect probe, no traffic needed
			}
			if time.Since(lastDial) < backoff {
				continue // link recently failed: drop without redialing
			}
			lastDial = time.Now()
			c, err := p.dial()
			if err != nil {
				p.down.Store(true)
				backoff = min(2*backoff, maxBackoff)
				p.t.cfg.logf("netx: dial %s failed (retry in %v): %v", p.addr, backoff, err)
				continue // the frame, if any, is dropped — a lossy link
			}
			conn = c
			p.down.Store(false)
			if p.dialed.Swap(true) {
				p.reconnects.Add(1)
			}
			backoff = 50 * time.Millisecond
			p.t.cfg.logf("netx: connected to %s", p.addr)
			if frame == nil {
				continue // probe tick: connection re-established, nothing to send
			}
		} else {
			select {
			case <-p.t.closed:
				return
			case frame = <-p.sendq:
			}
		}
		frames := [][]byte{frame}
		if f := *p.t.faults.Load(); f.active() {
			var mangled bool
			frames, mangled = p.mangle.apply(f, frame)
			if mangled {
				p.framesMangled.Add(1)
			}
			if d := p.mangle.delay(f); d > 0 {
				select {
				case <-p.t.closed:
					return
				case <-time.After(d):
				}
			}
		}
		for _, fr := range frames {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := conn.Write(fr); err != nil {
				p.t.cfg.logf("netx: write to %s failed: %v", p.addr, err)
				conn.Close()
				conn = nil
				p.down.Store(true)
				p.framesDropped.Add(1)
				break
			}
			p.framesSent.Add(1)
			p.bytesSent.Add(int64(len(fr)))
			p.lastSendNs.Store(time.Now().UnixNano())
		}
	}
}

// dial establishes and authenticates one outbound connection, and
// starts its response reader.
func (p *peer) dial() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(encodeHello(p.t.cfg.Token)); err != nil {
		conn.Close()
		return nil, err
	}
	p.t.mu.Lock()
	p.t.conns[conn] = true
	p.t.mu.Unlock()
	p.t.wg.Add(1)
	go p.readLoop(conn)
	return conn, nil
}

// readLoop consumes response frames from one outbound connection until
// it dies. (A well-behaved peer sends only responses here; anything else
// goes through the same dispatcher and is handled or dropped.)
func (p *peer) readLoop(conn net.Conn) {
	defer p.t.wg.Done()
	defer p.t.dropConn(conn)
	w := &connWriter{conn: conn}
	fr := newFrameReader(conn)
	for {
		payload, err := fr.read(maxFrame)
		if err != nil {
			p.t.noteReadErr(conn, err)
			return
		}
		p.t.handleFrame(fr, payload, w)
	}
}
