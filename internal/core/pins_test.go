package core

// Allocation budgets of the acknowledgement path. Race-free: under -race
// sync.Pool drops Puts on purpose and the counts mean nothing.

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/sim"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts are pinned without -race")
		}
	}
}

// TestPinSubmitAllocs pins what a blocking guess costs on a lone replica
// with no tracer: the generated ID string, and nothing for the wait — no
// channel, no escaped Result, no closure (the sink is pooled). A durable
// replica adds nothing per op either: the segment's items ride a pooled
// object with its commit callback already bound, and the store encodes
// into buffers it keeps. Each budget leaves one to spare.
func TestPinSubmitAllocs(t *testing.T) {
	skipUnderRace(t)
	ctx := context.Background()
	op := NewOp("credit", "acct-17", 1)
	measure := func(t *testing.T, c *Cluster[counterState]) float64 {
		t.Helper()
		defer c.Close()
		submit := func() {
			if res, err := c.Submit(ctx, 0, op); err != nil || !res.Accepted {
				t.Fatalf("submit: %+v, %v", res, err)
			}
		}
		for i := 0; i < 4096; i++ {
			submit() // grow the set, ring, scratch and staging buffers first
		}
		got := testing.AllocsPerRun(2000, submit)
		t.Logf("%.0f allocs per blocking guess", got)
		return got
	}
	t.Run("volatile", func(t *testing.T) {
		if got := measure(t, New[counterState](counterApp{}, nil, WithReplicas(1))); got > 2 {
			t.Fatalf("one blocking guess allocates %.0f times, want at most 2", got)
		}
	})
	t.Run("durable", func(t *testing.T) {
		// On the simulator the store runs inline: the flush, the commit
		// fan-out and the sink's release all happen inside Submit. The
		// snapshot cadence is out of the measured window's way.
		c := New[counterState](counterApp{}, nil, WithSim(sim.New(27)), WithReplicas(1),
			WithDurability(t.TempDir()), WithSnapshotEvery(1<<20))
		if got := measure(t, c); got > 3 {
			t.Fatalf("one durable blocking guess allocates %.0f times, want at most 3", got)
		}
	})
}
