package store

// Allocation budgets of the staging path. Race-free: under -race
// sync.Pool drops Puts on purpose and the counts mean nothing.

import (
	"runtime"
	"testing"

	"repro/internal/oplog"
	"repro/internal/testenv"
)

// TestPinStageCommitAllocs: at steady state a Stage and its Commit — the
// encode, the flush, the fsync, the waiter fan-out — allocate nothing,
// chain mode's second copy included, when the caller reuses its batch
// and its callback. What the store keeps between Stage and disk is bytes
// in buffers it owns.
func TestPinStageCommitAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	s, _ := mustOpen(t, t.TempDir(), Options{Inline: true, SnapshotChain: 8})
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
		commit() // grow both sides of the staging log, the delta buffer, the waiter slices
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

// TestPinDeltaCutAllocs: a delta cut is a header plus one copy of records
// finished when they were staged, so what it allocates — paths, the file,
// its closures — does not grow with the entries it covers.
func TestPinDeltaCutAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	s, _ := mustOpen(t, t.TempDir(), Options{Inline: true, SnapshotChain: 1 << 20})
	defer s.Close()
	var all []oplog.Entry
	stage := func(n int) {
		for i := 0; i < n; i++ {
			all = append(all, entry(len(all)))
		}
		commitAll(t, s, all[len(all)-n:])
	}
	cutAllocs := func(n int) float64 {
		stage(n)
		// One cut, counted once: a second call at the same position is a
		// no-op, which rules AllocsPerRun's warm-up run out.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.WriteSnapshot(nil, len(all), all[len(all)-1].Mark())
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	stage(8)
	cut(s, all, len(all)) // the chain's root
	cutAllocs(1000)       // grow the pooled file buffer once
	small, large := cutAllocs(10), cutAllocs(1000)
	t.Logf("a delta cut allocates %.0f times over 10 entries, %.0f over 1000", small, large)
	// A few either way is the pooled file buffer regrowing after a GC
	// emptied the pool; a cut that allocated per entry would add 990.
	if large > small+8 {
		t.Fatalf("a delta cut over 1000 entries allocates %.0f times, over 10 entries %.0f: it grows with the cut", large, small)
	}
	if st := s.Stats(); st.DeltaSnapshots != 3 || st.SnapshotFailures != 0 {
		t.Fatalf("the cuts measured were not delta cuts: %+v", st)
	}
}

// TestPinFullCutAllocs: a full cut copies the set's rows, 32 bytes an
// entry, and streams the records to disk through one fixed buffer. An
// Entry per row (88 bytes) or a buffer the size of the file would not fit.
func TestPinFullCutAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	const n = 100_000
	s, _ := mustOpen(t, t.TempDir(), Options{Inline: true})
	defer s.Close()
	all := make([]oplog.Entry, n)
	for i := range all {
		all[i] = entry(i)
	}
	commitAll(t, s, all)
	set := oplog.NewSet(all...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.WriteSnapshot(set.Cut(), n, all[n-1].Mark())
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("cutting and writing a full snapshot of %d entries allocates %.1f B/entry", n, perEntry)
	if st := s.Stats(); st.Snapshots != 1 || st.SnapshotFailures != 0 {
		t.Fatalf("the cut measured was not one full snapshot: %+v", st)
	}
	if perEntry > 36 {
		t.Fatalf("a full cut allocates %.1f B/entry, budget 36", perEntry)
	}
}
