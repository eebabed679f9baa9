package netx

// The call contract every Transport keeps, held to one table over the
// three worlds a cluster runs on: the deterministic simulator, the
// in-process live transport, and two netx transports on loopback TCP.
// The live worlds reuse call records, so "done fires exactly once, with
// its own response" is something these tests have to show rather than
// something the allocator guarantees.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oplog"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/uniq"
)

// contractTimeout bounds every call in the table: long enough that a
// loopback round trip under -race never meets it, short enough that the
// timeout cases stay quick.
const contractTimeout = 150 * time.Millisecond

// world is one transport under test: a caller a and the callees b, c
// and d, and the controls a case needs, each expressed in the world's own
// time.
type world struct {
	a, b, c, d transport.Node
	crash      func(id string)
	settle     func(d time.Duration)       // let the world run for d
	waitFor    func(cond func() bool) bool // run until cond holds; false if it never does
	tr         *Transport                  // the caller's side, on the netx world
}

var worlds = []struct {
	name string
	open func(t *testing.T) *world
}{
	{"sim", func(t *testing.T) *world {
		s := sim.New(1)
		tr := rpc.NewSimTransport(s, simnet.WithLatency(simnet.Fixed(time.Millisecond)))
		return &world{
			a: tr.Node("a", contractTimeout), b: tr.Node("b", contractTimeout),
			c: tr.Node("c", contractTimeout), d: tr.Node("d", contractTimeout),
			crash:  func(id string) { tr.SetUp(id, false) },
			settle: func(d time.Duration) { s.RunFor(d) },
			waitFor: func(cond func() bool) bool {
				for !cond() {
					if !s.Step() {
						return cond()
					}
				}
				return true
			},
		}
	}},
	{"live", func(t *testing.T) *world {
		tr := core.NewLiveTransport()
		return liveWorld(&world{
			a: tr.Node("a", contractTimeout), b: tr.Node("b", contractTimeout),
			c: tr.Node("c", contractTimeout), d: tr.Node("d", contractTimeout),
			crash: func(id string) { tr.SetUp(id, false) },
		})
	}},
	{"netx", netxWorld},
}

// netxWorld puts a on one netx transport and b, c and d on another, over
// loopback TCP; the world's tr is a's.
func netxWorld(t *testing.T) *world {
	trA, err := New(Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	trB, err := New(Config{Listen: "127.0.0.1:0"})
	if err != nil {
		trA.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		trA.Close()
		trB.Close()
	})
	for _, id := range []string{"b", "c", "d"} {
		trA.AddPeer(id, trB.Addr())
	}
	trB.AddPeer("a", trA.Addr())
	return liveWorld(&world{
		a: trA.Node("a", contractTimeout), b: trB.Node("b", contractTimeout),
		c: trB.Node("c", contractTimeout), d: trB.Node("d", contractTimeout),
		crash: func(id string) {
			if id == "a" {
				trA.SetUp(id, false)
			} else {
				trB.SetUp(id, false)
			}
		},
		tr: trA,
	})
}

// liveWorld gives w the wall clock's settle and waitFor.
func liveWorld(w *world) *world {
	w.settle = time.Sleep
	w.waitFor = func(cond func() bool) bool {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return false
			}
		}
		return true
	}
	return w
}

// pending counts the netx caller's calls still waiting for a response
// frame: none may be left once every call has resolved.
func (w *world) pending() int {
	if w.tr == nil {
		return 0
	}
	w.tr.callMu.Lock()
	defer w.tr.callMu.Unlock()
	return len(w.tr.calls)
}

// wireMsg builds the i'th distinct request: every world must carry it,
// so it is one of the engine's own wire messages (an apply, tag 5, of an
// entry numbered i), made through the public codec.
func wireMsg(t *testing.T, i int) (msg any, encoded []byte) {
	t.Helper()
	e := oplog.Entry{ID: uniq.ID(fmt.Sprintf("m-%d", i)), Kind: "credit", Key: "k", Arg: int64(i), Lam: uint64(i + 1)}
	b := binary.AppendUvarint([]byte{5}, uint64(oplog.EntrySize(e)))
	b = oplog.AppendEntry(b, e)
	msg, err := core.DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	return msg, b
}

// sameMsg reports whether resp encodes to exactly want.
func sameMsg(resp any, want []byte) bool {
	got, err := core.AppendMessage(nil, resp)
	return err == nil && string(got) == string(want)
}

// outcome counts one call's done: how often it fired and what it last saw.
type outcome struct {
	mu    sync.Mutex
	fired int
	resp  any
	ok    bool
}

func (o *outcome) done(resp any, ok bool) {
	o.mu.Lock()
	o.fired++
	o.resp, o.ok = resp, ok
	o.mu.Unlock()
}

func (o *outcome) get() (fired int, resp any, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fired, o.resp, o.ok
}

// held parks the reply of every request it is handed, for the test to
// fire later (or never).
type held struct {
	mu      sync.Mutex
	replies []func(any)
}

func (h *held) handle(_ string, _ any, reply func(any)) {
	h.mu.Lock()
	h.replies = append(h.replies, reply)
	h.mu.Unlock()
}

func (h *held) n() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.replies)
}

func (h *held) reply(i int, resp any) {
	h.mu.Lock()
	reply := h.replies[i]
	h.mu.Unlock()
	reply(resp)
}

func echo(_ string, req any, reply func(any)) { reply(req) }

// fanIn counts one Broadcast's done: how often it fired, what it last saw,
// and whether every response it was handed was one of want — read inside
// done, the only time resps is valid.
type fanIn struct {
	mu      sync.Mutex
	fired   int
	n, oks  int
	nilResp bool
	same    bool
}

func (f *fanIn) done(want []byte) func(resps []any, oks int) {
	return func(resps []any, oks int) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.fired++
		f.n, f.oks, f.nilResp, f.same = len(resps), oks, resps == nil, true
		for _, r := range resps {
			f.same = f.same && sameMsg(r, want)
		}
	}
}

func (f *fanIn) get() (fired, n, oks int, nilResp, same bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired, f.n, f.oks, f.nilResp, f.same
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestCallContract: one table of the call contract over SimTransport
// (whose nodes are rpc.Endpoints), LiveTransport and a loopback netx pair.
func TestCallContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, w *world)
	}{
		{"round trip fires done once", func(t *testing.T, w *world) {
			var from atomic.Value
			w.b.Handle("echo", func(f string, req any, reply func(any)) {
				from.Store(f)
				reply(req)
			})
			req, enc := wireMsg(t, 1)
			var o outcome
			w.a.Call("b", "echo", req, o.done)
			if !w.waitFor(func() bool { n, _, _ := o.get(); return n > 0 }) {
				t.Fatal("done never fired")
			}
			w.settle(2 * contractTimeout) // the timer must not fire it again
			if n, resp, ok := o.get(); n != 1 || !ok || !sameMsg(resp, enc) {
				t.Fatalf("done fired %d times, last with ok=%v resp=%v", n, ok, resp)
			}
			if f := from.Load(); f != "a" {
				t.Fatalf("the handler was told the call came from %v, want a", f)
			}
		}},
		{"a fire-and-forget call is delivered and its reply goes nowhere", func(t *testing.T, w *world) {
			var got atomic.Int32
			w.b.Handle("note", func(_ string, req any, reply func(any)) {
				got.Add(1)
				reply(req) // a reply to a nil done must not crash anything
			})
			req, _ := wireMsg(t, 1)
			w.a.Call("b", "note", req, nil)
			if !w.waitFor(func() bool { return got.Load() > 0 }) {
				t.Fatal("the notification was never delivered")
			}
			w.settle(2 * contractTimeout) // nor may its timer
			if n := got.Load(); n != 1 {
				t.Fatalf("the notification was delivered %d times", n)
			}
		}},
		{"registering a handler twice panics", func(t *testing.T, w *world) {
			w.b.Handle("m", echo)
			if !panics(func() { w.b.Handle("m", echo) }) {
				t.Fatal("a second Handle for one method did not panic")
			}
		}},
		{"broadcast to three peers, one crashed, fires done once with two", func(t *testing.T, w *world) {
			for _, n := range []transport.Node{w.b, w.c, w.d} {
				n.Handle("echo", echo)
			}
			w.crash("c")
			req, enc := wireMsg(t, 1)
			var f fanIn
			w.a.Broadcast([]string{"b", "c", "d"}, "echo", req, f.done(enc))
			if !w.waitFor(func() bool { n, _, _, _, _ := f.get(); return n > 0 }) {
				t.Fatal("done never fired")
			}
			w.settle(2 * contractTimeout)
			if fired, n, oks, _, same := f.get(); fired != 1 || oks != 2 || n != 2 || !same {
				t.Fatalf("done fired %d times, last with %d responses (oks=%d, all the request echoed: %v); want once with 2", fired, n, oks, same)
			}
		}},
		{"broadcast to no peers fires done once with nothing", func(t *testing.T, w *world) {
			req, enc := wireMsg(t, 1)
			var f fanIn
			w.a.Broadcast(nil, "echo", req, f.done(enc))
			w.settle(contractTimeout)
			if fired, n, oks, nilResp, _ := f.get(); fired != 1 || n != 0 || oks != 0 || !nilResp {
				t.Fatalf("done fired %d times, last with %d responses (oks=%d, nil: %v); want once with nil, 0", fired, n, oks, nilResp)
			}
		}},
		{"timeout on a crashed receiver", func(t *testing.T, w *world) {
			w.b.Handle("echo", echo)
			w.crash("b")
			req, _ := wireMsg(t, 1)
			var o outcome
			w.a.Call("b", "echo", req, o.done)
			w.settle(2 * contractTimeout)
			if n, _, ok := o.get(); n != 1 || ok {
				t.Fatalf("done fired %d times (last ok=%v), want once with ok=false", n, ok)
			}
		}},
		{"a reply to a crashed caller is lost", func(t *testing.T, w *world) {
			var h held
			w.b.Handle("hold", h.handle)
			req, _ := wireMsg(t, 1)
			var o outcome
			w.a.Call("b", "hold", req, o.done)
			if !w.waitFor(func() bool { return h.n() == 1 }) {
				t.Fatal("the request never reached the handler")
			}
			w.crash("a")
			h.reply(0, req)
			w.settle(2 * contractTimeout)
			if n, _, ok := o.get(); n != 1 || ok {
				t.Fatalf("done fired %d times (last ok=%v), want once with ok=false", n, ok)
			}
		}},
		{"a late reply is dropped and its record never reused", func(t *testing.T, w *world) {
			// On one P a pooled record put back anywhere is the next one
			// taken, so a timed-out record that were recycled would
			// certainly be reused by the fresh calls below.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var h held
			w.b.Handle("hold", h.handle)
			late, _ := wireMsg(t, 0)
			var first outcome
			w.a.Call("b", "hold", late, first.done)
			w.settle(contractTimeout + contractTimeout/2)
			if !w.waitFor(func() bool { n, _, _ := first.get(); return n > 0 && h.n() == 1 }) {
				t.Fatal("the held call neither reached its handler nor timed out")
			}
			// Fresh calls take whatever records the pool offers and wait at
			// the handler while the late reply lands: a recycled record
			// would carry it into one of them.
			const fresh = 64
			outs := make([]outcome, fresh)
			reqs := make([]any, fresh)
			encs := make([][]byte, fresh)
			for i := range outs {
				reqs[i], encs[i] = wireMsg(t, i+1)
				w.a.Call("b", "hold", reqs[i], outs[i].done)
			}
			if !w.waitFor(func() bool { return h.n() == 1+fresh }) {
				t.Fatal("fresh calls never reached the handler")
			}
			h.reply(0, late)
			for i := range outs {
				h.reply(1+i, reqs[i])
			}
			all := func() bool {
				for i := range outs {
					if n, _, _ := outs[i].get(); n == 0 {
						return false
					}
				}
				return true
			}
			if !w.waitFor(all) {
				t.Fatal("fresh calls never completed")
			}
			w.settle(2 * contractTimeout)
			if n, _, ok := first.get(); n != 1 || ok {
				t.Fatalf("the timed-out call fired %d times (last ok=%v), want once with ok=false", n, ok)
			}
			for i := range outs {
				if n, resp, ok := outs[i].get(); n != 1 || !ok || !sameMsg(resp, encs[i]) {
					t.Fatalf("fresh call %d fired %d times, last with ok=%v resp=%v", i, n, ok, resp)
				}
			}
		}},
		{"a double reply panics", func(t *testing.T, w *world) {
			var panicked atomic.Bool
			w.b.Handle("twice", func(_ string, req any, reply func(any)) {
				reply(req)
				defer func() { panicked.Store(recover() != nil) }()
				reply(req)
			})
			req, enc := wireMsg(t, 1)
			var o outcome
			w.a.Call("b", "twice", req, o.done)
			if !w.waitFor(func() bool { n, _, _ := o.get(); return n > 0 }) {
				t.Fatal("done never fired")
			}
			w.settle(2 * contractTimeout)
			if !panicked.Load() {
				t.Fatal("a second reply did not panic")
			}
			if n, resp, ok := o.get(); n != 1 || !ok || !sameMsg(resp, enc) {
				t.Fatalf("done fired %d times, last with ok=%v resp=%v; want once with the first reply", n, ok, resp)
			}
		}},
	}
	for _, wd := range worlds {
		t.Run(wd.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					w := wd.open(t)
					tc.run(t, w)
					if n := w.pending(); n != 0 {
						t.Fatalf("%d calls still pending after every one resolved", n)
					}
				})
			}
		})
	}
}

// TestLostFrameResolvesOnce: a request frame that cannot be queued — here
// the transport is closed — resolves its call at once, with ok=false, and
// never again when its timer would have fired; no pending entry is left.
func TestLostFrameResolvesOnce(t *testing.T) {
	w := netxWorld(t)
	w.b.Handle("echo", echo)
	w.tr.Close()
	req, _ := wireMsg(t, 1)
	var o outcome
	start := time.Now()
	w.a.Call("b", "echo", req, o.done)
	if n, _, ok := o.get(); n != 1 || ok {
		t.Fatalf("a lost frame: done fired %d times (last ok=%v), want once with ok=false before Call returned", n, ok)
	}
	if d := time.Since(start); d >= contractTimeout {
		t.Fatalf("a lost frame resolved after %v, not at once", d)
	}
	time.Sleep(2 * contractTimeout)
	if n, _, _ := o.get(); n != 1 {
		t.Fatalf("done fired %d times", n)
	}
	if n := w.pending(); n != 0 {
		t.Fatalf("%d calls left pending", n)
	}
}

// TestDuplicateResponseFrameIsDropped: the first response frame for a seq
// resolves the call; a second copy of it, and the handler's own reply
// arriving after both, find nothing.
func TestDuplicateResponseFrameIsDropped(t *testing.T) {
	w := netxWorld(t)
	var h held
	w.b.Handle("hold", h.handle)
	req, enc := wireMsg(t, 1)
	var o outcome
	w.a.Call("b", "hold", req, o.done)
	if !w.waitFor(func() bool { return h.n() == 1 }) {
		t.Fatal("the request never reached the handler")
	}
	resp, err := encodeResp(w.tr.seq.Load(), req)
	if err != nil {
		t.Fatal(err)
	}
	w.tr.handleFrame(nil, resp[frameHeader:], nil)
	w.tr.handleFrame(nil, resp[frameHeader:], nil)
	h.reply(0, req) // the real response: a third copy of the seq
	time.Sleep(2 * contractTimeout)
	if n, got, ok := o.get(); n != 1 || !ok || !sameMsg(got, enc) {
		t.Fatalf("done fired %d times, last with ok=%v resp=%v; want once", n, ok, got)
	}
}
