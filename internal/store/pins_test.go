package store

// Allocation budgets of the staging path. Race-free: under -race
// sync.Pool drops Puts on purpose and the counts mean nothing.

import (
	"testing"

	"repro/internal/oplog"
	"repro/internal/testenv"
)

// TestPinStageCommitAllocs: at steady state a Stage and its Commit — the
// encode, the flush, the fsync, the waiter fan-out — allocate nothing
// when the caller reuses its batch and its callback. What the store keeps between Stage and disk is bytes
// in buffers it owns.
func TestPinStageCommitAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	s, _ := mustOpen(t, t.TempDir(), Options{Inline: true})
	defer s.Close()
	batch := []oplog.Entry{entry(0)}
	var oks int
	then := func(ok bool) {
		if ok {
			oks++
		}
	}
	commit := func() {
		batch[0].Lam++
		s.Commit(s.Stage(batch), then)
	}
	for i := 0; i < 4096; i++ {
		commit() // grow both sides of the staging log and the waiter slices
	}
	if got := testing.AllocsPerRun(2000, commit); got != 0 {
		t.Fatalf("Stage+Commit allocates %.0f times at steady state, want 0", got)
	}
	if oks < 4096+2000 {
		t.Fatalf("%d commits acknowledged", oks)
	}
	s.Commit(s.End(), nil) // the nil callback is one shared no-op, not a closure per call
	if got := testing.AllocsPerRun(100, func() { s.Commit(s.End(), nil) }); got != 0 {
		t.Fatalf("Commit(end, nil) allocates %.0f times, want 0", got)
	}
}
