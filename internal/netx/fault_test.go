package netx

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
)

// TestFrameChecksumDetectsBitFlip: a single flipped payload bit must be
// rejected as errCorruptFrame, never decoded.
func TestFrameChecksumDetectsBitFlip(t *testing.T) {
	buf := seal(append(append(newFrame(0), frameReq), "some gossip payload worth protecting"...))
	// Sanity: the pristine frame round-trips.
	if _, err := newFrameReader(bytes.NewReader(buf)).read(maxFrame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for bit := 0; bit < (len(buf)-frameHeader)*8; bit += 7 {
		bad := append([]byte(nil), buf...)
		bad[frameHeader+bit/8] ^= 1 << (bit % 8)
		if _, err := newFrameReader(bytes.NewReader(bad)).read(maxFrame); !errors.Is(err, errCorruptFrame) {
			t.Fatalf("flipping payload bit %d: err = %v, want errCorruptFrame", bit, err)
		}
	}
}

// TestManglerIsDeterministic: two manglers with the same seed and peer
// address make identical decisions over the same traffic — the property
// that makes a chaos run replayable.
func TestManglerIsDeterministic(t *testing.T) {
	f := Faults{Seed: 42, Drop: 0.3, Duplicate: 0.2, Reorder: 0.2, BitFlip: 0.3}
	a, b := newMangler(f.Seed, "10.0.0.1:9000"), newMangler(f.Seed, "10.0.0.1:9000")
	fr := seal(append(newFrame(0), frameHello, 1, 2, 3, 4, 5, 6, 7))
	for i := 0; i < 200; i++ {
		oa, ma := a.apply(f, fr)
		ob, mb := b.apply(f, fr)
		if ma != mb || len(oa) != len(ob) {
			t.Fatalf("step %d: decisions diverged (%v/%d vs %v/%d)", i, ma, len(oa), mb, len(ob))
		}
		for j := range oa {
			if !bytes.Equal(oa[j], ob[j]) {
				t.Fatalf("step %d: frame %d differs between same-seed manglers", i, j)
			}
		}
	}
	// A different peer address must yield a different schedule.
	c := newMangler(f.Seed, "10.0.0.2:9000")
	same := true
	for i := 0; i < 200 && same; i++ {
		oa, _ := a.apply(f, fr)
		oc, _ := c.apply(f, fr)
		same = len(oa) == len(oc)
	}
	if same {
		t.Fatal("distinct peers produced identical fault schedules")
	}
}

// TestSustainedManglingDegradesThenRecovers: under heavy seeded frame
// mangling in both directions nothing panics and no replica's state is
// poisoned — corrupt frames are counted and cost only a connection.
// Once the faults are switched off, gossip converges both sides.
func TestSustainedManglingDegradesThenRecovers(t *testing.T) {
	faults := Faults{Seed: 1, Drop: 0.2, Duplicate: 0.15, Reorder: 0.15, BitFlip: 0.25}
	trA, err := New(Config{Listen: "127.0.0.1:0", Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	trB, err := New(Config{Listen: "127.0.0.1:0", Faults: Faults{Seed: 2, Drop: 0.2, BitFlip: 0.25}})
	if err != nil {
		trA.Close()
		t.Fatal(err)
	}
	trA.AddPeer(core.NodeID(1, 0, 1), trB.Addr())
	trB.AddPeer(core.NodeID(1, 0, 0), trA.Addr())
	half := func(tr *Transport, idx int) *core.Cluster[counterState] {
		return core.New[counterState](counterApp{}, nil,
			core.WithTransport(tr), core.WithReplicas(2),
			core.WithLocalReplicas(idx),
			core.WithCallTimeout(200*time.Millisecond))
	}
	ca, cb := half(trA, 0), half(trB, 1)
	t.Cleanup(func() {
		ca.Close()
		cb.Close()
		trA.Close()
		trB.Close()
	})

	// A mangled episode: async ingest on both sides (always locally
	// accepted), plus sync submits that are allowed to fail — they must
	// decline within their timeout, not hang or crash anything. It lasts
	// 40 rounds, and on until a flipped frame has reached a checksum: on a
	// loaded box the scheduler may leave the first rounds' flips unsent.
	ctx := context.Background()
	var want int64
	for i := 0; i < 40 || i < 400 && trA.CorruptFrames()+trB.CorruptFrames() == 0; i++ {
		if _, err := ca.Submit(ctx, 0, core.NewOp("credit", "acct", 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := cb.Submit(ctx, 1, core.NewOp("credit", "acct", 1)); err != nil {
			t.Fatal(err)
		}
		want += 2
		if i%8 == 0 {
			if res, err := ca.Submit(ctx, 0, core.NewOp("credit", "acct", 1),
				core.WithPolicy(policy.AlwaysSync())); err == nil && res.Accepted {
				want++
			}
		}
		ca.GossipRound()
		cb.GossipRound()
		time.Sleep(5 * time.Millisecond)
	}

	mangledOut := func(tr *Transport) int64 {
		var n int64
		for _, s := range tr.PeerStats() {
			n += s.FramesMangled
		}
		return n
	}
	if mangledOut(trA) == 0 {
		t.Fatal("mangler never fired despite 25%+ fault rates")
	}
	// Bit flips from A must have been caught by B's checksum (and/or
	// vice versa); corruption is observable, not silent.
	if trA.CorruptFrames()+trB.CorruptFrames() == 0 {
		t.Fatal("no corrupt frames detected despite sustained bit flipping")
	}

	// The switch is replaced: faults off, links heal via backoff, and
	// anti-entropy must reconcile everything either side accepted.
	trA.SetFaults(Faults{})
	trB.SetFaults(Faults{})
	waitUntil(t, 20*time.Second, func() bool {
		ca.GossipRound()
		cb.GossipRound()
		return ca.States()[0]["acct"] == want && cb.States()[0]["acct"] == want
	}, "replicas did not converge after the mangling episode ended")
}
