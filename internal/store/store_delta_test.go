package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/oplog"
)

// chainOpts enables delta-snapshot chaining with a full cut every k cuts.
func chainOpts(k int) Options {
	return Options{Inline: true, SnapshotChain: k}
}

// cut asks the store for its preferred cut kind at pos: full snapshots
// carry the whole ledger prefix, deltas pass nil and let the store use
// its internal buffer — exactly the owner-side protocol.
func cut(s *Store, all []oplog.Entry, pos int) {
	if s.NextSnapshotIsFull() {
		s.WriteSnapshot(oplog.NewSet(all[:pos]...).Cut(), pos, all[pos-1].Mark())
	} else {
		s.WriteSnapshot(nil, pos, all[pos-1].Mark())
	}
}

// recoveredSet flattens a Recovery into the sorted encoded bytes of every
// entry it restores — the byte-identical comparison the differentials use.
func recoveredSet(rec Recovery) []string {
	var out []string
	for _, e := range append(append([]oplog.Entry(nil), rec.SnapshotEntries...), rec.JournalEntries...) {
		out = append(out, string(oplog.AppendEntry(nil, e)))
	}
	sort.Strings(out)
	return out
}

func TestDeltaChainWriteAndRecover(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, chainOpts(3))
	var all []oplog.Entry
	for i := 0; i < 60; i++ {
		all = append(all, entry(i))
	}
	for i := 0; i < 60; i += 10 {
		commitAll(t, s, all[i:i+10])
		cut(s, all, i+10)
	}
	st := s.Stats()
	if st.DeltaSnapshots == 0 {
		t.Fatalf("chain mode cut no deltas: %+v", st)
	}
	if st.Snapshots <= st.DeltaSnapshots {
		t.Fatalf("chain mode cut no fulls: %+v", st)
	}
	if st.SnapshotFailures != 0 {
		t.Fatalf("snapshot failures: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deltas, _ := filepath.Glob(filepath.Join(dir, "delta-*.snap"))
	if len(deltas) == 0 {
		t.Fatal("no delta files on disk")
	}

	s2, rec := mustOpen(t, dir, chainOpts(3))
	defer s2.Close()
	if rec.SnapshotPos != 60 {
		t.Fatalf("chain tip = %d, want 60", rec.SnapshotPos)
	}
	if rec.Deltas == 0 {
		t.Fatalf("recovery folded no deltas: %+v", rec)
	}
	if rec.SnapshotBase >= rec.SnapshotPos {
		t.Fatalf("chain base %d not below tip %d", rec.SnapshotBase, rec.SnapshotPos)
	}

	// Oracle: the union of snapshot-chain and journal entries must be
	// exactly the committed ledger, same as a pure replay would give.
	var want []string
	for _, e := range all {
		want = append(want, string(oplog.AppendEntry(nil, e)))
	}
	sort.Strings(want)
	got := recoveredSet(rec)
	sort.Strings(got)
	// The journal may overlap the chain (compaction is lazy); dedupe.
	got = dedupe(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chain recovery lost or invented entries: got %d want %d", len(got), len(want))
	}
}

func dedupe(in []string) []string {
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func TestTornNewestDeltaFallsBackToChainPrefix(t *testing.T) {
	// Chain long enough that the newest cut on disk is a delta: one full
	// at 10, deltas at 20..50.
	build := func(dir string) []oplog.Entry {
		s, _ := mustOpen(t, dir, chainOpts(8))
		var all []oplog.Entry
		for i := 0; i < 50; i++ {
			all = append(all, entry(i))
		}
		for i := 0; i < 50; i += 10 {
			commitAll(t, s, all[i:i+10])
			cut(s, all, i+10)
		}
		s.Crash()
		return all
	}

	// Control: same history, never corrupted.
	ctrlDir := t.TempDir()
	build(ctrlDir)
	ctrl, ctrlRec := mustOpen(t, ctrlDir, chainOpts(8))
	ctrl.Close()

	// Victim: the newest delta tears (truncated mid-file, footer gone).
	dir := t.TempDir()
	build(dir)
	deltas, _ := filepath.Glob(filepath.Join(dir, "delta-*.snap"))
	if len(deltas) == 0 {
		t.Fatal("no delta files to tear")
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

	s, rec := mustOpen(t, dir, chainOpts(8))
	defer s.Close()
	tornPos, _ := snapFilePos(newest)
	if rec.SnapshotPos >= tornPos {
		t.Fatalf("recovery claims the torn delta: tip %d, torn at %d", rec.SnapshotPos, tornPos)
	}
	// The fallback must be lossless: compaction gated on the chain base,
	// so the journal still holds everything past the surviving prefix —
	// the recovered state is byte-identical to the never-torn control.
	if got, want := dedupe(recoveredSet(rec)), dedupe(recoveredSet(ctrlRec)); !reflect.DeepEqual(got, want) {
		t.Fatalf("torn-delta fallback diverged from control: got %d entries want %d", len(got), len(want))
	}
}

func TestRecycledSegmentsOldRecordsInvisible(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Inline: true, Preallocate: true, SegmentBytes: 256}
	s, _ := mustOpen(t, dir, opt)
	var all []oplog.Entry
	stage := func(n int) {
		for i := 0; i < n; i++ {
			e := entry(len(all))
			all = append(all, e)
			commitAll(t, s, []oplog.Entry{e})
		}
	}
	// Fill several segments, then cover them with a snapshot and full acks
	// so compaction retires them into the free pool.
	stage(40)
	s.WriteSnapshot(oplog.NewSet(all...).Cut(), len(all), all[len(all)-1].Mark())
	s.AckTo(len(all))
	free, _ := filepath.Glob(filepath.Join(dir, "free-*.seg"))
	if len(free) == 0 {
		t.Fatal("compaction pooled no retired segments")
	}
	// Keep writing: rotations must now be reborn from the pool.
	stage(40)
	if got := s.Stats().Recycled; got == 0 {
		t.Fatal("rotation recycled no pooled segments")
	}
	s.Crash()

	// The recycled files carried valid-under-the-old-seed records from
	// their first life. Recovery must never resurrect them: every
	// recovered entry is one we committed, and all committed entries
	// survive.
	s2, rec := mustOpen(t, dir, opt)
	defer s2.Close()
	var want []string
	for _, e := range all {
		want = append(want, string(oplog.AppendEntry(nil, e)))
	}
	sort.Strings(want)
	if got := dedupe(recoveredSet(rec)); !reflect.DeepEqual(got, dedupe(want)) {
		t.Fatalf("recycled-segment recovery diverged: got %d entries want %d", len(got), len(want))
	}
	if rec.End != len(all) {
		t.Fatalf("recovered end %d, want %d", rec.End, len(all))
	}
}

func TestPreallocatedTailTruncatesCleanOnCrash(t *testing.T) {
	// A crash leaves the active segment preallocated past its data: the
	// zero fill must read as a torn tail, not corruption, and a clean
	// reopen must append where the data really ends.
	dir := t.TempDir()
	opt := Options{Inline: true, Preallocate: true, SegmentBytes: 1 << 16}
	s, _ := mustOpen(t, dir, opt)
	commitAll(t, s, []oplog.Entry{entry(0), entry(1), entry(2)})
	s.Crash()

	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	if info, err := os.Stat(segs[0]); err != nil || info.Size() < int64(opt.SegmentBytes) {
		t.Fatalf("segment not preallocated: size %d err %v", info.Size(), err)
	}

	s2, rec := mustOpen(t, dir, opt)
	if len(rec.JournalEntries) != 3 {
		t.Fatalf("recovered %d entries, want 3", len(rec.JournalEntries))
	}
	commitAll(t, s2, []oplog.Entry{entry(3)})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, rec3 := mustOpen(t, dir, opt)
	defer s3.Close()
	if len(rec3.JournalEntries) != 4 || rec3.JournalEntries[3] != entry(3) {
		t.Fatalf("append after preallocated-crash recovery lost data: %+v", rec3)
	}
}

func TestAdaptiveCommitCallbacksOrderedExactlyOnce(t *testing.T) {
	// Clock-free pin on the adaptive mode's commit contract: callbacks
	// fire exactly once, in commit order, and a post-crash commit fails —
	// no assertion here depends on timing, only on ordering.
	dir := t.TempDir()
	opt := Options{Inline: true, Mode: ModeAdaptive}
	s, _ := mustOpen(t, dir, opt)
	const n = 100
	var fired []int
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		end := s.Stage([]oplog.Entry{entry(i)})
		s.Commit(end, func(ok bool) {
			if !ok {
				t.Errorf("commit to %d failed", end)
			}
			fired = append(fired, end)
			counts[end]++
		})
	}
	if len(fired) != n {
		t.Fatalf("%d callbacks fired, want %d", len(fired), n)
	}
	for i, end := range fired {
		if end != i+1 {
			t.Fatalf("callback %d fired for end %d: reordered", i, end)
		}
		if counts[end] != 1 {
			t.Fatalf("end %d fired %d times", end, counts[end])
		}
	}
	s.Crash()
	got := make(chan bool, 1)
	s.Commit(n+1, func(ok bool) { got <- ok })
	if ok := <-got; ok {
		t.Fatal("post-crash commit reported durable")
	}
}

func TestAdaptiveBackgroundPreservesCommitOrder(t *testing.T) {
	// Same contract under the background flusher, where adaptive holds and
	// early departures actually run: whatever the flush timing, callbacks
	// observe commit order and each fires exactly once.
	dir := t.TempDir()
	opt := Options{Mode: ModeAdaptive}
	s, _ := mustOpen(t, dir, opt)
	const n = 400
	results := make(chan int, n)
	for i := 0; i < n; i++ {
		end := s.Stage([]oplog.Entry{entry(i)})
		s.Commit(end, func(ok bool) {
			if !ok {
				t.Errorf("commit to %d failed", end)
			}
			results <- end
		})
	}
	prev := 0
	for i := 0; i < n; i++ {
		end := <-results
		if end <= prev {
			t.Fatalf("callback for end %d fired after end %d", end, prev)
		}
		prev = end
	}
	if st := s.Stats(); st.Fsyncs >= n {
		t.Fatalf("adaptive mode paid per-commit fsyncs: %d for %d commits", st.Fsyncs, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
