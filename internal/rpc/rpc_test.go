package rpc

// The call contract an Endpoint shares with every transport.Node — round
// trip, timeout, late and double replies, fire-and-forget, duplicate
// handlers, Broadcast — is TestCallContract's, in internal/netx, which
// runs it on SimTransport's nodes: these Endpoints. What is left here is
// the simulator's own.

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

func TestDelayedReply(t *testing.T) {
	s, _, a, b := setup(1)
	b.Handle("slow", func(_ string, req any, reply func(any)) {
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
	// 1 ms there, 10 ms in the handler, 1 ms back; the answered call's
	// timer is gone, so nothing runs on to the 100 ms deadline.
	if s.Now() != 12*time.Millisecond {
		t.Fatalf("the call ended at %v, want 12ms", s.Now())
	}
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

func TestCrashedReflectsNetworkState(t *testing.T) {
	s, n, a, b := setup(1)
	if a.Crashed() {
		t.Fatal("fresh endpoint reports crashed")
	}
	n.SetUp("a", false)
	if !a.Crashed() {
		t.Fatal("down endpoint reports alive")
	}
	// A call to the crashed node fails exactly at its deadline.
	var failedAt time.Duration
	b.Call("a", "echo", nil, func(_ any, ok bool) {
		if !ok {
			failedAt = s.Now()
		}
	})
	s.Run()
	if failedAt != 100*time.Millisecond {
		t.Fatalf("the call to a crashed node failed at %v, want 100ms", failedAt)
	}
}
