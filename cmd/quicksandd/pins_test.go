package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/testenv"
)

// TestPinGuessAllocsInDaemonBuild pins what one blocking guess costs in
// the engine as quicksandd instantiates it — three live replicas of
// daemon.AccountsApp under NoOverdraft, no tracer — measured from a test
// compiled into this package, so the generic code is the daemon's own
// instantiation. A budget pinned only from the engine's packages cannot
// see what escapes here: escape analysis runs per instantiation, and
// while the fold ranged over an iterator, its loop-body closure (with the
// fold's watermark) moved to the heap in this build and not in theirs —
// five allocations a guess here against one there, with oplog's
// TestFoldIterationAllocatesNothing green throughout, because the escape
// belonged to the consumer's instantiation, not to oplog's. The guess
// itself mints its ID into the op set, so it should cost nothing; the
// budget leaves one to spare.
func TestPinGuessAllocsInDaemonBuild(t *testing.T) {
	testenv.SkipUnderRace(t)
	c := core.New[daemon.Accounts](daemon.AccountsApp{}, []core.Rule[daemon.Accounts]{daemon.NoOverdraft()},
		core.WithReplicas(3), core.WithCallTimeout(500*time.Millisecond))
	defer c.Close()
	ctx := context.Background()
	op := core.NewOp("deposit", "acct-17", 1)
	submit := func() {
		if res, err := c.Submit(ctx, 0, op); err != nil || !res.Accepted {
			t.Fatalf("submit: %+v, %v", res, err)
		}
	}
	for i := 0; i < 4096; i++ {
		submit() // grow the set, ring, scratch buffers and pools first
	}
	got := testing.AllocsPerRun(4000, submit)
	t.Logf("%.2f allocs per blocking guess", got)
	if got > 1 {
		t.Fatalf("one blocking guess in the daemon's build allocates %.2f times, want at most 1", got)
	}
}
