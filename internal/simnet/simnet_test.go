package simnet

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func pair(t *testing.T, opts ...Option) (*sim.Sim, *Network, *[]Message) {
	t.Helper()
	s := sim.New(7)
	n := New(s, opts...)
	var inbox []Message
	n.AddNode("a", func(m Message) {})
	n.AddNode("b", func(m Message) { inbox = append(inbox, m) })
	return s, n, &inbox
}

func TestDeliveryWithLatency(t *testing.T) {
	s, n, inbox := pair(t, WithLatency(Fixed(5*time.Millisecond)))
	n.Send("a", "b", "hello")
	s.Run()
	if len(*inbox) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*inbox))
	}
	m := (*inbox)[0]
	if m.Payload != "hello" || m.From != "a" || m.To != "b" {
		t.Fatalf("bad message: %+v", m)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", s.Now())
	}
}

func TestSendToDownNodeDropped(t *testing.T) {
	s, n, inbox := pair(t)
	n.SetUp("b", false)
	n.Send("a", "b", 1)
	s.Run()
	if len(*inbox) != 0 {
		t.Fatal("message delivered to down node")
	}
	if c := n.Counters(); c.DownDrop != 1 {
		t.Fatalf("DownDrop = %d, want 1", c.DownDrop)
	}
}

func TestCrashWhileInFlightLosesMessage(t *testing.T) {
	s, n, inbox := pair(t, WithLatency(Fixed(10*time.Millisecond)))
	n.Send("a", "b", 1)
	s.After(5*time.Millisecond, func() { n.SetUp("b", false) })
	s.Run()
	if len(*inbox) != 0 {
		t.Fatal("message delivered despite receiver crashing mid-flight")
	}
}

func TestSendFromDownNodeIsNoop(t *testing.T) {
	s, n, inbox := pair(t)
	n.SetUp("a", false)
	n.Send("a", "b", 1)
	s.Run()
	if len(*inbox) != 0 {
		t.Fatal("crashed node managed to send")
	}
	if c := n.Counters(); c.Sent != 0 {
		t.Fatalf("Sent = %d, want 0", c.Sent)
	}
}

func TestRestartResumesDelivery(t *testing.T) {
	s, n, inbox := pair(t)
	n.SetUp("b", false)
	n.Send("a", "b", 1)
	s.Run()
	n.SetUp("b", true)
	n.Send("a", "b", 2)
	s.Run()
	if len(*inbox) != 1 || (*inbox)[0].Payload != 2 {
		t.Fatalf("inbox = %+v, want just the post-restart message", *inbox)
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	s, n, inbox := pair(t)
	n.Partition([]string{"a"}, []string{"b"})
	if n.Reachable("a", "b") {
		t.Fatal("partitioned nodes report reachable")
	}
	n.Send("a", "b", 1)
	s.Run()
	if len(*inbox) != 0 {
		t.Fatal("message crossed partition")
	}
	if c := n.Counters(); c.PartDrop != 1 {
		t.Fatalf("PartDrop = %d, want 1", c.PartDrop)
	}
	n.Heal()
	if !n.Reachable("a", "b") {
		t.Fatal("healed nodes report unreachable")
	}
	n.Send("a", "b", 2)
	s.Run()
	if len(*inbox) != 1 {
		t.Fatal("message not delivered after heal")
	}
}

func TestPartitionUnnamedNodesShareImplicitGroup(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	var got []Message
	n.AddNode("a", func(m Message) {})
	n.AddNode("b", func(m Message) { got = append(got, m) })
	n.AddNode("c", func(m Message) {})
	n.Partition([]string{"c"}) // a and b unnamed: stay together
	n.Send("a", "b", 1)
	s.Run()
	if len(got) != 1 {
		t.Fatal("unnamed nodes should remain connected")
	}
	if n.Reachable("a", "c") {
		t.Fatal("named-off node still reachable")
	}
}

func TestLoss(t *testing.T) {
	s := sim.New(3)
	n := New(s, WithLoss(1.0))
	n.AddNode("a", func(Message) {})
	delivered := 0
	n.AddNode("b", func(Message) { delivered++ })
	for i := 0; i < 10; i++ {
		n.Send("a", "b", i)
	}
	s.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d with loss=1.0", delivered)
	}
	if c := n.Counters(); c.Lost != 10 {
		t.Fatalf("Lost = %d, want 10", c.Lost)
	}
}

func TestJitterWithinBounds(t *testing.T) {
	s := sim.New(5)
	j := Jitter{Base: time.Millisecond, Spread: time.Millisecond}
	for i := 0; i < 100; i++ {
		d := j.Sample(s.Rand())
		if d < time.Millisecond || d >= 2*time.Millisecond {
			t.Fatalf("jitter sample %v out of [1ms,2ms)", d)
		}
	}
	zero := Jitter{Base: 3 * time.Millisecond}
	if zero.Sample(s.Rand()) != 3*time.Millisecond {
		t.Fatal("zero-spread jitter must return base")
	}
}

func TestCounters(t *testing.T) {
	s, n, _ := pair(t)
	n.Send("a", "b", 1)
	s.Run()
	if c := n.Counters(); c != (Counters{Sent: 1, Delivered: 1}) {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDuplicateAddNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode twice did not panic")
		}
	}()
	s := sim.New(1)
	n := New(s)
	n.AddNode("a", func(Message) {})
	n.AddNode("a", func(Message) {})
}

func TestUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Send to unknown node did not panic")
		}
	}()
	s := sim.New(1)
	n := New(s)
	n.AddNode("a", func(Message) {})
	n.Send("a", "ghost", 1)
}
