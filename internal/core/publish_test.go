package core

// Publication on demand: the write path folds in place and shares
// nothing; only a reader taking the state through State() makes the next
// write clone. These tests pin the mechanism — who causes a clone, and
// that a handed-out state stays a stable snapshot — not only the
// allocation count it buys.

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
)

// countingApp is counterApp with its Init and Snapshot calls counted.
type countingApp struct {
	counterApp
	inits, snaps *atomic.Int64
}

func (a countingApp) Init() counterState {
	a.inits.Add(1)
	return a.counterApp.Init()
}

func (a countingApp) Snapshot(s counterState) counterState {
	a.snaps.Add(1)
	return a.counterApp.Snapshot(s)
}

// TestWriteOnlyStreamNeverClones: with an Admit rule and a Violated sweep
// reading the fold on every batch, N guesses plus gossip and no State()
// call clone the state only for fold checkpoints and for rewinds that
// land on one — whatever N is. Then one State() costs exactly one clone,
// paid by the next write, and the write after that pays nothing.
func TestWriteOnlyStreamNeverClones(t *testing.T) {
	for _, n := range []int{300, 3000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			const replicas = 3
			var inits, snaps atomic.Int64
			s := sim.New(23)
			c := New[counterState](countingApp{inits: &inits, snaps: &snaps},
				[]Rule[counterState]{noOverdraft()},
				WithTransport(rpc.NewSimTransport(s)), WithReplicas(replicas), withFoldCheckpointEvery(64))
			// Every Snapshot call the engine made that was neither a
			// checkpoint nor a rewind restoring one (a rewind past the
			// oldest checkpoint restarts from Init instead).
			reader := func() int64 {
				toGenesis := inits.Load() - replicas
				return snaps.Load() - c.Metrics().FoldCheckpoints.Value() - (c.Metrics().FoldRewinds.Value() - toGenesis)
			}
			for i := 0; i < n; i++ {
				kind := "credit"
				if i%5 == 4 {
					kind = "debit" // admitted or declined: either way Admit read the fold
				}
				c.SubmitAsync(i%replicas, NewOp(kind, fmt.Sprintf("k%d", i%17), 3), nil)
				if i%7 == 6 {
					c.GossipRound()
					s.Run()
				}
			}
			for !c.Converged() {
				c.GossipRound()
				s.Run()
			}
			if c.Metrics().FoldCheckpoints.Value() == 0 || c.Metrics().FoldRewinds.Value() == 0 {
				t.Fatalf("schedule too tame: %d checkpoints, %d rewinds",
					c.Metrics().FoldCheckpoints.Value(), c.Metrics().FoldRewinds.Value())
			}
			if got := reader(); got != 0 {
				t.Fatalf("%d guesses with no State() call cloned the state %d times beyond checkpoints and rewinds", n, got)
			}
			if got := c.Metrics().FoldClones.Value(); got != 0 {
				t.Fatalf("FoldClones = %d on a write-only stream", got)
			}

			rep := c.Replica(0)
			held := rep.State()
			want := maps.Clone(held)
			if got := reader(); got != 0 {
				t.Fatalf("State() itself cloned (%d); the next write owes the clone, not the read", got)
			}
			c.SubmitAsync(0, NewOp("credit", "k0", 1), nil)
			if got, m := reader(), c.Metrics().FoldClones.Value(); got != 1 || m != 1 {
				t.Fatalf("first write after State(): %d clones, FoldClones = %d; want 1 and 1", got, m)
			}
			c.SubmitAsync(0, NewOp("credit", "k0", 1), nil)
			if got, m := reader(), c.Metrics().FoldClones.Value(); got != 1 || m != 1 {
				t.Fatalf("second write after State(): %d clones, FoldClones = %d; want still 1 and 1", got, m)
			}
			if !maps.Equal(held, want) {
				t.Fatalf("held snapshot changed under later writes: %v, was %v", held, want)
			}
			if got := rep.State()["k0"]; got != want["k0"]+2 {
				t.Fatalf("k0 = %d after two credits of 1 on %d", got, want["k0"])
			}
		})
	}
}

// TestViewNeverShares: View reads the accumulator in place — under the
// lock when nothing is published, from the publication when one is
// current — and in neither case makes a later write clone.
func TestViewNeverShares(t *testing.T) {
	s := sim.New(24)
	c := New[counterState](counterApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithReplicas(1))
	rep := c.Replica(0)
	for i := int64(1); i <= 3; i++ {
		c.SubmitAsync(0, NewOp("credit", "a", 1), nil)
		var got int64
		rep.View(func(st counterState) { got = st["a"] })
		if got != i {
			t.Fatalf("View after %d acknowledged credits saw a = %d", i, got)
		}
	}
	if n := c.Metrics().FoldClones.Value(); n != 0 {
		t.Fatalf("View made the writes clone %d times", n)
	}
	held := rep.State() // publishes; View now serves the publication
	var same bool
	rep.View(func(st counterState) { same = st["a"] == held["a"] })
	if !same {
		t.Fatal("View disagrees with the current publication")
	}
}

// TestHeldSnapshotNeverChanges is the -race half of the contract: states
// handed out by State() are held across concurrent ingest, gossip and
// kill/recover churn, and every one of them must still equal the deep
// copy taken at hand-out — the engine never folds into a map a reader
// holds, and the race detector would flag it if it did.
func TestHeldSnapshotNeverChanges(t *testing.T) {
	c := New[counterState](counterApp{}, []Rule[counterState]{noOverdraft()},
		WithReplicas(3), WithDurability(t.TempDir()),
		WithGossipEvery(time.Millisecond))
	defer c.Close()
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Submit(ctx, (w+i)%3, NewOp("credit", fmt.Sprintf("k%d", i%9), 1))
			}
		}(w)
	}
	type heldState struct{ live, want counterState }
	held := make([][]heldState, 3)
	for rd := range held {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Replica((rd + i) % 3).State()
				if len(held[rd]) < 512 {
					held[rd] = append(held[rd], heldState{st, maps.Clone(st)})
				}
				time.Sleep(50 * time.Microsecond)
			}
		}(rd)
	}
	for i := 0; i < 6; i++ {
		time.Sleep(5 * time.Millisecond)
		c.Kill(1)
		time.Sleep(2 * time.Millisecond)
		if err := c.Recover(ctx, 1); err != nil {
			t.Errorf("recover #%d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	n := 0
	for _, hs := range held {
		for _, h := range hs {
			n++
			if !maps.Equal(h.live, h.want) {
				t.Fatalf("a held State() changed after hand-out: %v, was %v", h.live, h.want)
			}
		}
	}
	if n == 0 {
		t.Fatal("no snapshots held")
	}
}

// TestSubmitWithoutOptionsAllocatesNoConfig pins the option-free submit
// config on the stack: applying options takes its address, which used to
// cost every Submit and SubmitAsync one heap allocation.
func TestSubmitWithoutOptionsAllocatesNoConfig(t *testing.T) {
	c := New[int64](hashApp{}, nil, WithTransport(rpc.NewSimTransport(sim.New(25))), WithReplicas(1))
	var sink submitConfig
	if got := testing.AllocsPerRun(1000, func() { sink = c.submitConfig(nil) }); got != 0 {
		t.Fatalf("submitConfig(nil) allocates %.0f times, want 0", got)
	}
	if sink.pol == nil {
		t.Fatal("no default policy")
	}
}
