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

// world is one transport under test: a caller a and a callee b, and the
// controls a case needs, each expressed in the world's own time.
type world struct {
	a, b    transport.Node
	crash   func(id string)
	settle  func(d time.Duration)       // let the world run for d
	waitFor func(cond func() bool) bool // run until cond holds; false if it never does
	tr      *Transport                  // the caller's side, on the netx world
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
		crash := func(id string) { tr.SetUp(id, false) }
		return liveWorld(tr.Node("a", contractTimeout), tr.Node("b", contractTimeout), crash, nil)
	}},
	{"netx", netxWorld},
}

// netxWorld puts a and b on two netx transports over loopback TCP; the
// world's tr is a's.
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
	trA.AddPeer("b", trB.Addr())
	trB.AddPeer("a", trA.Addr())
	a, b := trA.Node("a", contractTimeout), trB.Node("b", contractTimeout)
	crash := func(id string) {
		if id == "a" {
			trA.SetUp(id, false)
		} else {
			trB.SetUp(id, false)
		}
	}
	return liveWorld(a, b, crash, trA)
}

func liveWorld(a, b transport.Node, crash func(id string), tr *Transport) *world {
	return &world{
		a: a, b: b, tr: tr,
		crash:  crash,
		settle: time.Sleep,
		waitFor: func(cond func() bool) bool {
			for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					return false
				}
			}
			return true
		},
	}
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

// TestCallContract: one table of the call contract over SimTransport,
// LiveTransport and a loopback netx pair.
func TestCallContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, w *world)
	}{
		{"round trip fires done once", func(t *testing.T, w *world) {
			w.b.Handle("echo", echo)
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
