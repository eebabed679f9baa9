package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/uniq"
)

// TestDeltaChainKillRecoverMatchesControl is the chain-mode acceptance
// differential: with delta snapshots doing the steady-state cuts, a
// kill/recover run must stay byte-identical to a never-crashed control
// of the same schedule.
func TestDeltaChainKillRecoverMatchesControl(t *testing.T) {
	run := func(t *testing.T, crash bool) counterState {
		dir := t.TempDir()
		s := sim.New(171)
		c := New[counterState](counterApp{}, nil,
			WithTransport(rpc.NewSimTransport(s)), WithReplicas(3), WithDurability(dir),
			WithSnapshotEvery(8), withSnapshotChain(4))
		defer c.Close()
		for i := 0; i < 40; i++ {
			op := NewOp("credit", fmt.Sprintf("k%02d", i%7), int64(i))
			op.ID = uniq.ID(fmt.Sprintf("p1-%03d", i))
			mustSubmit(t, c, i%3, op)
		}
		convergeSim(t, s, c)
		if crash {
			c.Kill(1)
		}
		for i := 0; i < 40; i++ {
			op := NewOp("debit", fmt.Sprintf("k%02d", i%7), 1)
			op.ID = uniq.ID(fmt.Sprintf("p2-%03d", i))
			mustSubmit(t, c, (i%2)*2, op)
		}
		if crash {
			if err := c.Recover(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
		}
		convergeSim(t, s, c)
		// The workload must actually have exercised the chain.
		if st := c.DurabilityStats(); st.DeltaSnapshots == 0 {
			t.Fatalf("no delta snapshots cut: %+v", st)
		}
		return c.Replica(1).State()
	}
	control := run(t, false)
	crashed := run(t, true)
	if len(control) != len(crashed) {
		t.Fatalf("key counts differ: control %d, crashed %d", len(control), len(crashed))
	}
	for k, v := range control {
		if crashed[k] != v {
			t.Fatalf("state[%s]: control %d, crashed-and-recovered %d", k, v, crashed[k])
		}
	}
}

// TestTornNewestDeltaRecoversFromDiskOnly: tear the newest delta of a
// killed replica's chain, then recover from disk alone (no gossip runs
// in between). Compaction gates on the chain base, so the journal still
// covers everything past the surviving prefix — the recovered replica
// must match its pre-kill self exactly.
func TestTornNewestDeltaRecoversFromDiskOnly(t *testing.T) {
	s, c, _ := durableCluster(t, 172, WithSnapshotEvery(8))
	defer c.Close()
	for i := 0; i < 60; i++ {
		mustSubmit(t, c, i%3, NewOp("credit", fmt.Sprintf("k%d", i%5), 1))
	}
	convergeSim(t, s, c)
	if st := c.DurabilityStats(); st.DeltaSnapshots == 0 {
		t.Fatalf("no delta snapshots cut: %+v", st)
	}
	want := c.Replica(1).State()
	wantOps := c.Replica(1).OpCount()

	c.Kill(1)
	sd := c.storeDir("r1")
	deltas, err := filepath.Glob(filepath.Join(sd, "delta-*.snap"))
	if err != nil || len(deltas) == 0 {
		t.Fatalf("replica 1 has no delta files (err %v)", err)
	}
	sort.Strings(deltas)
	newest := deltas[len(deltas)-1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	if err := c.Recover(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	r1 := c.Replica(1)
	if got := r1.OpCount(); got != wantOps {
		t.Fatalf("recovered %d ops, want %d", got, wantOps)
	}
	for k, v := range want {
		if got := r1.State()[k]; got != v {
			t.Fatalf("recovered state[%s] = %d, want %d", k, got, v)
		}
	}
	// And the recovered replica keeps serving.
	mustSubmit(t, c, 1, NewOp("credit", "post", 7))
	convergeSim(t, s, c)
}
