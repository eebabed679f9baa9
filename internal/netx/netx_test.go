package netx

import (
	"context"
	"maps"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oplog"
	"repro/internal/policy"
)

// counterApp mirrors the engine's canonical test application: per-key
// running sums, commutative so replicas converge under any fold order.
type counterApp struct{}

type counterState map[string]int64

func (counterApp) Init() counterState { return counterState{} }

func (counterApp) Step(s counterState, op oplog.Entry) counterState {
	switch op.Kind {
	case "credit":
		s[op.Key] += op.Arg
	case "debit":
		s[op.Key] -= op.Arg
	}
	return s
}

func (counterApp) Snapshot(s counterState) counterState { return maps.Clone(s) }

// twoProcessCluster builds the two halves of one 2-replica cluster, each
// half on its own TCP transport — the smallest honest model of two
// daemons (everything crosses real sockets, nothing shares memory but
// the test harness).
func twoProcessCluster(t *testing.T, token string) (trA, trB *Transport, ca, cb *core.Cluster[counterState]) {
	t.Helper()
	var err error
	if trA, err = New(Config{Listen: "127.0.0.1:0", Token: token}); err != nil {
		t.Fatal(err)
	}
	if trB, err = New(Config{Listen: "127.0.0.1:0", Token: token}); err != nil {
		trA.Close()
		t.Fatal(err)
	}
	trA.AddPeer(core.NodeID(1, 0, 1), trB.Addr())
	trB.AddPeer(core.NodeID(1, 0, 0), trA.Addr())
	half := func(tr *Transport, idx int) *core.Cluster[counterState] {
		return core.New[counterState](counterApp{}, nil,
			core.WithTransport(tr), core.WithReplicas(2),
			core.WithLocalReplicas(idx),
			core.WithCallTimeout(500*time.Millisecond))
	}
	ca, cb = half(trA, 0), half(trB, 1)
	t.Cleanup(func() {
		ca.Close()
		cb.Close()
		trA.Close()
		trB.Close()
	})
	return trA, trB, ca, cb
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGossipConvergesAcrossTCP: ops accepted on either side of the wire
// meet in both states through anti-entropy alone.
func TestGossipConvergesAcrossTCP(t *testing.T) {
	_, _, ca, cb := twoProcessCluster(t, "s3cret")
	ctx := context.Background()
	if _, err := ca.Submit(ctx, 0, core.NewOp("credit", "acct", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Submit(ctx, 1, core.NewOp("credit", "acct", 7)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool {
		ca.GossipRound()
		cb.GossipRound()
		return ca.States()[0]["acct"] == 12 && cb.States()[0]["acct"] == 12
	}, "replicas did not converge across TCP")
}

// TestSyncSubmitCrossesTheWire: a coordinated (§5.8) submit needs the
// remote replica's admit vote and pushes the committed op to it — both
// legs over the socket.
func TestSyncSubmitCrossesTheWire(t *testing.T) {
	_, _, ca, cb := twoProcessCluster(t, "")
	res, err := ca.Submit(context.Background(), 0, core.NewOp("credit", "acct", 3),
		core.WithPolicy(policy.AlwaysSync()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("sync submit declined: %+v", res)
	}
	waitUntil(t, 5*time.Second, func() bool {
		return cb.States()[0]["acct"] == 3
	}, "committed sync op never applied on the remote replica")
}

// TestDeadPeerDegradesNotHangs: killing the other process turns
// coordination into a bounded decline ("partitioned replica"), while
// uncoordinated ingest keeps flowing — the paper's degrade-don't-block
// behaviour, now across a real socket.
func TestDeadPeerDegradesNotHangs(t *testing.T) {
	trA, trB, ca, cb := twoProcessCluster(t, "")
	cb.Close()
	trB.Close()

	start := time.Now()
	res, err := ca.Submit(context.Background(), 0, core.NewOp("credit", "acct", 1),
		core.WithPolicy(policy.AlwaysSync()))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("sync submit against a dead peer took %v; should fail within the call timeout", elapsed)
	}
	if res.Accepted {
		t.Fatalf("sync submit succeeded with the only peer dead: %+v", res)
	}

	// Async ingest is unaffected by the dead peer.
	res, err = ca.Submit(context.Background(), 0, core.NewOp("credit", "acct", 2))
	if err != nil || !res.Accepted {
		t.Fatalf("async submit with a dead peer: res=%+v err=%v", res, err)
	}

	// Once a dial has actually failed, the peer reads as down.
	waitUntil(t, 5*time.Second, func() bool {
		ca.GossipRound() // keeps traffic flowing so the link notices
		return !trA.IsUp(core.NodeID(1, 0, 1))
	}, "dead peer still reads as up")
}

// TestHelloAuthRejectsBadToken: a connection that cannot present the
// shared token is dropped before any frame is processed.
func TestHelloAuthRejectsBadToken(t *testing.T) {
	tr, err := New(Config{Listen: "127.0.0.1:0", Token: "right"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeHello("wrong")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept talking to a mis-authenticated client")
	}
}

// TestEncodeReqRejectsNonWirePayload: only the engine's replica-to-
// replica messages may cross the wire; anything else is a programming
// error surfaced at encode time, not a silent garbage frame.
func TestEncodeReqRejectsNonWirePayload(t *testing.T) {
	if buf, err := encodeReq(42, "s0/r0", "s0/r2", "push", struct{ X int }{1}); err == nil {
		t.Fatalf("encoding a non-wire payload succeeded: %x", buf)
	}
}
