package rpc

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func setup(seed int64) (*sim.Sim, *simnet.Network, *Endpoint, *Endpoint) {
	s := sim.New(seed)
	n := simnet.New(s, simnet.WithLatency(simnet.Fixed(time.Millisecond)))
	a := NewEndpoint(n, "a", 100*time.Millisecond)
	b := NewEndpoint(n, "b", 100*time.Millisecond)
	return s, n, a, b
}

func TestCallRoundTrip(t *testing.T) {
	s, _, a, b := setup(1)
	b.Handle("echo", func(from simnet.NodeID, req any, reply func(any)) {
		if from != "a" {
			t.Errorf("from = %q", from)
		}
		reply(req.(string) + "!")
	})
	var got string
	a.Call("b", "echo", "hi", func(resp any, ok bool) {
		if !ok {
			t.Error("call failed")
		}
		got = resp.(string)
	})
	s.Run()
	if got != "hi!" {
		t.Fatalf("resp = %q", got)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("round trip took %v, want 2ms", s.Now())
	}
}

func TestCallTimeoutOnCrashedNode(t *testing.T) {
	s, n, a, b := setup(1)
	b.Handle("echo", func(_ simnet.NodeID, req any, reply func(any)) { reply(req) })
	n.SetUp("b", false)
	failed := false
	a.Call("b", "echo", "hi", func(resp any, ok bool) {
		if ok {
			t.Error("call to crashed node succeeded")
		}
		failed = true
	})
	s.Run()
	if !failed {
		t.Fatal("timeout callback never fired")
	}
	if s.Now() != 100*time.Millisecond {
		t.Fatalf("timed out at %v, want 100ms", s.Now())
	}
}

func TestDelayedReply(t *testing.T) {
	s, _, a, b := setup(1)
	b.Handle("slow", func(_ simnet.NodeID, req any, reply func(any)) {
		s.After(10*time.Millisecond, func() { reply("late") })
	})
	var got string
	a.Call("b", "slow", nil, func(resp any, ok bool) {
		if ok {
			got = resp.(string)
		}
	})
	s.Run()
	if got != "late" {
		t.Fatalf("delayed reply = %q", got)
	}
}

func TestLateReplyAfterTimeoutIsDropped(t *testing.T) {
	s, _, a, b := setup(1)
	b.Handle("slow", func(_ simnet.NodeID, req any, reply func(any)) {
		s.After(time.Second, func() { reply("too late") }) // beyond the 100ms timeout
	})
	calls := 0
	a.Call("b", "slow", nil, func(resp any, ok bool) {
		calls++
		if ok {
			t.Error("late reply delivered as success")
		}
	})
	s.Run()
	if calls != 1 {
		t.Fatalf("done fired %d times, want exactly 1", calls)
	}
}

func TestFireAndForget(t *testing.T) {
	s, _, a, b := setup(1)
	got := false
	b.Handle("note", func(_ simnet.NodeID, req any, reply func(any)) {
		got = true
		reply(nil) // reply to nil-done caller goes nowhere, must not crash
	})
	a.Call("b", "note", nil, nil)
	s.Run()
	if !got {
		t.Fatal("notification not delivered")
	}
}

func TestDoubleReplyPanics(t *testing.T) {
	s, _, a, b := setup(1)
	b.Handle("bad", func(_ simnet.NodeID, req any, reply func(any)) {
		reply(1)
		defer func() {
			if recover() == nil {
				t.Error("double reply did not panic")
			}
		}()
		reply(2)
	})
	a.Call("b", "bad", nil, nil)
	s.Run()
}

func TestUnknownMethodPanics(t *testing.T) {
	s, _, a, _ := setup(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown method did not panic")
		}
	}()
	a.Call("b", "nope", nil, nil)
	s.Run()
}

func TestDuplicateHandlerPanics(t *testing.T) {
	_, _, _, b := setup(1)
	b.Handle("m", func(simnet.NodeID, any, func(any)) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	b.Handle("m", func(simnet.NodeID, any, func(any)) {})
}

func TestBroadcastCollectsQuorum(t *testing.T) {
	s := sim.New(1)
	n := simnet.New(s, simnet.WithLatency(simnet.Fixed(time.Millisecond)))
	a := NewEndpoint(n, "a", 50*time.Millisecond)
	ids := []simnet.NodeID{"r1", "r2", "r3"}
	for _, id := range ids {
		id := id
		e := NewEndpoint(n, id, 50*time.Millisecond)
		e.Handle("get", func(_ simnet.NodeID, req any, reply func(any)) { reply(string(id)) })
	}
	n.SetUp("r2", false) // one replica down
	var gotOks int
	var gotResps []any
	a.Broadcast(ids, "get", nil, func(resps []any, oks int) {
		gotResps, gotOks = resps, oks
	})
	s.Run()
	if gotOks != 2 {
		t.Fatalf("oks = %d, want 2", gotOks)
	}
	if len(gotResps) != 2 {
		t.Fatalf("resps = %v", gotResps)
	}
}

func TestBroadcastEmptyTargets(t *testing.T) {
	s, _, a, _ := setup(1)
	called := false
	a.Broadcast(nil, "m", nil, func(resps []any, oks int) {
		called = true
		if oks != 0 || resps != nil {
			t.Errorf("empty broadcast: resps=%v oks=%d", resps, oks)
		}
	})
	s.Run()
	if !called {
		t.Fatal("done never fired for empty broadcast")
	}
}

func TestCrashedReflectsNetworkState(t *testing.T) {
	_, n, a, _ := setup(1)
	if a.Crashed() {
		t.Fatal("fresh endpoint reports crashed")
	}
	n.SetUp("a", false)
	if !a.Crashed() {
		t.Fatal("down endpoint reports alive")
	}
}
