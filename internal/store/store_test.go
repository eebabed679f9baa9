package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/oplog"
	"repro/internal/uniq"
)

// inlineOpts keeps tests deterministic: every Commit pays its own flush
// on the calling goroutine.
func inlineOpts() Options { return Options{Inline: true} }

func entry(i int) oplog.Entry {
	return oplog.Entry{
		ID:   uniq.ID(fmt.Sprintf("op-%05d", i)),
		Kind: "add",
		Key:  fmt.Sprintf("k%d", i%7),
		Arg:  int64(i),
		Lam:  uint64(i + 1),
		At:   time.Duration(1000 + 17*i),
	}
}

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, dir string, opt Options) (*Store, Recovery) {
	t.Helper()
	s, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

// commitAll stages entries and commits them synchronously.
func commitAll(t *testing.T, s *Store, entries []oplog.Entry) {
	t.Helper()
	end := s.Stage(entries)
	done := make(chan bool, 1)
	s.Commit(end, func(ok bool) { done <- ok })
	if !<-done {
		t.Fatalf("commit to %d failed", end)
	}
}

func TestEmptyDirColdStart(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, inlineOpts())
	if rec.Base != 0 || rec.End != 0 || len(rec.JournalEntries) != 0 || len(rec.SnapshotEntries) != 0 {
		t.Fatalf("cold start recovered something: %+v", rec)
	}
	commitAll(t, s, []oplog.Entry{entry(0), entry(1)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A second cold start sees exactly what was committed.
	s2, rec2 := mustOpen(t, dir, inlineOpts())
	defer s2.Close()
	if rec2.Base != 0 || rec2.End != 2 || len(rec2.JournalEntries) != 2 {
		t.Fatalf("restart: %+v", rec2)
	}
	if rec2.JournalEntries[0] != entry(0) || rec2.JournalEntries[1] != entry(1) {
		t.Fatalf("entries corrupted on the round trip: %+v", rec2.JournalEntries)
	}
}

func TestCrashDropsVolatileTailOnly(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{}) // background flusher: staging is volatile until committed
	commitAll(t, s, []oplog.Entry{entry(0), entry(1), entry(2)})
	// Staged but never committed: the in-memory tail a crash destroys.
	s.Stage([]oplog.Entry{entry(3), entry(4)})
	s.Crash()
	s2, rec := mustOpen(t, dir, inlineOpts())
	defer s2.Close()
	if len(rec.JournalEntries) != 3 || rec.End != 3 {
		t.Fatalf("after crash want the 3 committed entries, got %d (end %d)", len(rec.JournalEntries), rec.End)
	}
}

func TestCrashFailsPendingCommits(t *testing.T) {
	// The journal fsync is held at the device until the crash is under
	// way, so the commit's only way out is the crash failing it.
	var s *Store
	s, _ = mustOpen(t, t.TempDir(), Options{FS: gateFS{faultfs.OS, func() { <-s.quit }}})
	end := s.Stage([]oplog.Entry{entry(0)})
	got := make(chan bool, 1)
	s.Commit(end, func(ok bool) { got <- ok })
	s.Crash()
	if ok := <-got; ok {
		t.Fatal("commit reported durable after a crash that dropped it")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opt := inlineOpts()
	opt.SegmentBytes = 256 // force rotation every few records
	s, _ := mustOpen(t, dir, opt)
	var all []oplog.Entry
	for i := 0; i < 40; i++ {
		e := entry(i)
		all = append(all, e)
		commitAll(t, s, []oplog.Entry{e})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to leave several segments, got %d", len(segs))
	}
	s2, rec := mustOpen(t, dir, opt)
	defer s2.Close()
	if len(rec.JournalEntries) != len(all) {
		t.Fatalf("recovered %d of %d entries across segments", len(rec.JournalEntries), len(all))
	}
	for i, e := range rec.JournalEntries {
		if e != all[i] {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, e, all[i])
		}
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	for _, cut := range []int{1, 5, 9} { // bytes to keep of the final record's area, torn at several depths
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, inlineOpts())
		commitAll(t, s, []oplog.Entry{entry(0), entry(1)})
		size2 := fileSize(t, filepath.Join(dir, "journal-0000000000.seg"))
		commitAll(t, s, []oplog.Entry{entry(2)})
		s.Close()
		// Tear the final record: keep only `cut` bytes of it.
		path := filepath.Join(dir, "journal-0000000000.seg")
		if err := os.Truncate(path, size2+int64(cut)); err != nil {
			t.Fatal(err)
		}
		s2, rec, err := Open(dir, inlineOpts())
		if err != nil {
			t.Fatalf("torn tail must recover, got %v", err)
		}
		if len(rec.JournalEntries) != 2 || rec.TornBytes == 0 {
			t.Fatalf("cut=%d: want 2 entries and torn bytes, got %d entries torn=%d", cut, len(rec.JournalEntries), rec.TornBytes)
		}
		// The truncation is durable: appending after it must produce a
		// journal that replays cleanly.
		commitAll(t, s2, []oplog.Entry{entry(9)})
		s2.Close()
		s3, rec3 := mustOpen(t, dir, inlineOpts())
		s3.Close()
		if len(rec3.JournalEntries) != 3 || rec3.JournalEntries[2] != entry(9) {
			t.Fatalf("cut=%d: append-after-tear replay got %d entries", cut, len(rec3.JournalEntries))
		}
	}
}

func TestCRCCorruptMiddleRecordRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, inlineOpts())
	commitAll(t, s, []oplog.Entry{entry(0)})
	size1 := fileSize(t, filepath.Join(dir, "journal-0000000000.seg"))
	commitAll(t, s, []oplog.Entry{entry(1), entry(2)})
	s.Close()
	// Flip one payload byte of the middle record (entry 1).
	path := filepath.Join(dir, "journal-0000000000.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[size1+recHdrLen+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, inlineOpts()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("middle-record corruption must fail Open with ErrCorrupt, got %v", err)
	}
}

func TestCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	opt := inlineOpts()
	opt.SegmentBytes = 128
	s, _ := mustOpen(t, dir, opt)
	for i := 0; i < 20; i++ {
		commitAll(t, s, []oplog.Entry{entry(i)})
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(segs))
	}
	// Corrupt the tail of the FIRST (sealed) segment: even damage at a
	// segment's end is mid-journal damage when records follow in the next
	// segment.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, opt); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sealed-segment corruption must fail Open, got %v", err)
	}
}

// TestSnapshotPlusReplayEqualsPureReplayOracle opens the directory shape
// an older build left — a snapshot at 100 and the journal segments wholly
// below it retired — and must recover the set a journal that was never
// snapshotted recovers.
func TestSnapshotPlusReplayEqualsPureReplayOracle(t *testing.T) {
	oracleDir, dir := t.TempDir(), t.TempDir()
	opt := inlineOpts()
	opt.SegmentBytes = 512
	oracle, _ := mustOpen(t, oracleDir, inlineOpts())
	s, _ := mustOpen(t, dir, opt)
	var all []oplog.Entry
	for i := 0; i < 120; i++ {
		e := entry(i)
		all = append(all, e)
		commitAll(t, s, []oplog.Entry{e})
		commitAll(t, oracle, []oplog.Entry{e})
	}
	s.Close()
	oracle.Close()
	snapshotAt(t, dir, all, 100)
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	sort.Strings(segs)
	for i := 0; i+1 < len(segs); i++ {
		if next, err := segStart(filepath.Base(segs[i+1])); err == nil && next <= 100 {
			os.Remove(segs[i]) // every record it holds is below the snapshot
		}
	}

	_, recO := mustOpen(t, oracleDir, inlineOpts())
	s2, rec := mustOpen(t, dir, opt)
	defer s2.Close()
	if rec.Base == 0 {
		t.Fatalf("expected a retired journal prefix (base > 0), got base=0 with snapshot at %d", rec.SnapshotPos)
	}
	if rec.SnapshotPos != 100 || rec.SnapshotMark != all[99].Mark() {
		t.Fatalf("snapshot meta: pos=%d mark=%+v", rec.SnapshotPos, rec.SnapshotMark)
	}

	union := func(r Recovery) *oplog.Set {
		set := oplog.NewSet()
		for _, e := range r.SnapshotEntries {
			set.Add(e)
		}
		for _, e := range r.JournalEntries {
			set.Add(e)
		}
		return set
	}
	got, want := union(rec), union(recO)
	if !got.Equal(want) {
		t.Fatalf("snapshot+replay set (%d ops) differs from pure-replay oracle (%d ops)", got.Len(), want.Len())
	}
	if got.Len() != len(all) {
		t.Fatalf("recovered %d of %d ops", got.Len(), len(all))
	}
}

func TestTornSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, inlineOpts())
	var all []oplog.Entry
	for i := 0; i < 20; i++ {
		e := entry(i)
		all = append(all, e)
		commitAll(t, s, []oplog.Entry{e})
	}
	s.Close()
	snapshotAt(t, dir, all, 10)
	snapshotAt(t, dir, all, 20)
	// Tear the newest snapshot (drop its footer).
	path := filepath.Join(dir, "snap-0000000020.snap")
	sz := fileSize(t, path)
	if err := os.Truncate(path, sz-3); err != nil {
		t.Fatal(err)
	}
	s2, rec := mustOpen(t, dir, inlineOpts())
	defer s2.Close()
	if rec.SnapshotPos != 10 || len(rec.SnapshotEntries) != 10 {
		t.Fatalf("want fallback to snapshot 10, got pos=%d n=%d", rec.SnapshotPos, len(rec.SnapshotEntries))
	}
	// The journal still holds everything, so no data was lost.
	if len(rec.JournalEntries) != 20 {
		t.Fatalf("journal replay: %d of 20", len(rec.JournalEntries))
	}
}

func TestSnapshotOutrunningJournalRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, inlineOpts())
	all := []oplog.Entry{entry(0), entry(1)}
	commitAll(t, s, all)
	s.Close()
	// Forge a snapshot claiming positions the journal never held — the
	// state the snapshotting builds gated each cut on the covering flush
	// to make impossible.
	snapshotAt(t, dir, []oplog.Entry{entry(0), entry(1), entry(2), entry(3), entry(4)}, 5)
	if _, _, err := Open(dir, inlineOpts()); err == nil {
		t.Fatal("Open accepted a snapshot covering positions beyond the journal end")
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{}) // the zero value: adaptive, background flusher
	const n = 400
	var wg sync.WaitGroup
	var mu sync.Mutex
	fails := 0
	for i := 0; i < n; i++ {
		end := s.Stage([]oplog.Entry{entry(i)})
		wg.Add(1)
		s.Commit(end, func(ok bool) {
			if !ok {
				mu.Lock()
				fails++
				mu.Unlock()
			}
			wg.Done()
		})
	}
	wg.Wait()
	if fails != 0 {
		t.Fatalf("%d commits failed", fails)
	}
	st := s.Stats()
	if st.Fsyncs >= n/10 {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d commits", st.Fsyncs, n)
	}
	// The adaptive policy has learned an fsync cost to steer by, and with
	// nothing staged it holds nobody.
	if s.ewmaFsync.Load() <= 0 {
		t.Fatalf("zero-value Options did not run the adaptive policy: fsync EWMA %d", s.ewmaFsync.Load())
	}
	if hold := s.adaptiveHold(); hold != 0 {
		t.Fatalf("idle store holds flushes for %v", hold)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacySegmentRefusedUntouched: a QSEG1 segment — final or sealed —
// fails Open with ErrLegacySegment and keeps every byte. The final
// position is the dangerous one: an unrecognized header there reads as a
// torn creation and is truncated to nothing.
func TestLegacySegmentRefusedUntouched(t *testing.T) {
	opt := inlineOpts()
	opt.SegmentBytes = 128
	for _, pos := range []string{"final", "sealed"} {
		t.Run(pos, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := mustOpen(t, dir, opt)
			for i := 0; i < 20; i++ {
				commitAll(t, s, []oplog.Entry{entry(i)})
			}
			s.Close()
			segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
			if len(segs) < 2 {
				t.Fatalf("need ≥2 segments, got %d", len(segs))
			}
			path := segs[0]
			if pos == "final" {
				path = segs[len(segs)-1]
			}
			// A v1 file: the old magic, then unsalted records.
			legacy := []byte(segMagicV1)
			for i := 0; i < 3; i++ {
				legacy = appendRecord(legacy, entry(i))
			}
			if err := os.WriteFile(path, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(dir, opt); !errors.Is(err, ErrLegacySegment) {
				t.Fatalf("Open on a QSEG1 %s segment: want ErrLegacySegment, got %v", pos, err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, legacy) {
				t.Fatalf("refused segment was modified: %d bytes before, %d after (err %v)", len(legacy), len(after), err)
			}
		})
	}
}

// TestIncarnationCountsOpens: a fresh directory is incarnation 0 and every
// Open after counts one more — Inline or not, crashed or closed — and a
// directory with data but no incarnation file (one written before the file
// existed) reads as incarnation 1. A malformed file is refused with
// ErrBadIncarnation and left as it was.
func TestIncarnationCountsOpens(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(0); want < 3; want++ {
		s, rec := mustOpen(t, dir, Options{Inline: want != 1})
		if rec.Incarnation != want {
			t.Fatalf("Open #%d: incarnation %d, want %d", want+1, rec.Incarnation, want)
		}
		if want == 1 {
			commitAll(t, s, []oplog.Entry{entry(0)})
			s.Crash()
		} else {
			s.Close()
		}
	}
	path := filepath.Join(dir, incFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	s, rec := mustOpen(t, dir, inlineOpts())
	s.Close()
	if rec.Incarnation != 1 || rec.End != 1 {
		t.Fatalf("data without an incarnation file: incarnation %d at end %d, want 1 at 1", rec.Incarnation, rec.End)
	}

	flipped := bytes.Clone(good)
	flipped[len(incMagic)] ^= 1
	for name, bad := range map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-1],
		"magic":     append([]byte("QINC2\n"), good[len(incMagic):]...),
		"checksum":  flipped,
		"trailing":  append(bytes.Clone(good), 0),
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, inlineOpts()); !errors.Is(err, ErrBadIncarnation) {
			t.Errorf("%s incarnation file: Open = %v, want ErrBadIncarnation", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, bad) {
			t.Errorf("%s incarnation file was rewritten by a refused Open", name)
		}
	}
}

// TestAckedFileRoundTrip: the acknowledged position survives a Close;
// an absent file reads as the journal's first position, and a malformed
// or out-of-range one is ignored the same way rather than failing Open.
func TestAckedFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, inlineOpts())
	commitAll(t, s, crashWorkloadEntries(10))
	s.AckTo(7)
	s.AckTo(5) // a lower acknowledgement never moves it back
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	acked := func() int {
		t.Helper()
		s, rec := mustOpen(t, dir, inlineOpts())
		s.Crash() // Close would rewrite the file
		if rec.Base != 0 || rec.End != 10 {
			t.Fatalf("recovered [%d, %d), want [0, 10)", rec.Base, rec.End)
		}
		return rec.Acked
	}
	if got := acked(); got != 7 {
		t.Fatalf("acked %d after Close, want 7", got)
	}
	path := filepath.Join(dir, ackFile)
	writer := &Store{dir: dir, fs: faultfs.OS}
	for _, c := range []struct {
		name  string
		bytes func() []byte
	}{
		{"absent", nil},
		{"garbage", func() []byte { return []byte("not a counter") }},
		{"past the end", func() []byte {
			if err := writer.writeCounter(ackFile, ackMagic, 11); err != nil {
				t.Fatal(err)
			}
			b, _ := os.ReadFile(path)
			return b
		}},
		{"bad checksum", func() []byte {
			writer.writeCounter(ackFile, ackMagic, 3)
			b, _ := os.ReadFile(path)
			b[len(b)-1] ^= 1
			return b
		}},
	} {
		os.Remove(path)
		if c.bytes != nil {
			if err := os.WriteFile(path, c.bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got := acked(); got != 0 {
			t.Fatalf("%s acked file: recovered acked %d, want the base 0", c.name, got)
		}
	}
}

// TestPooledSegmentsRemoved: a free-*.seg file is a retired segment an
// older build kept for reuse. Nothing reuses one now, so Open removes it,
// and the journal beside it recovers untouched.
func TestPooledSegmentsRemoved(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, inlineOpts())
	commitAll(t, s, crashWorkloadEntries(10))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "journal-0000000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	free := filepath.Join(dir, "free-0000000003.seg")
	if err := os.WriteFile(free, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := mustOpen(t, dir, inlineOpts())
	defer s.Close()
	if rec.Base != 0 || rec.End != 10 || len(rec.JournalEntries) != 10 {
		t.Fatalf("recovered [%d, %d) with %d entries, want [0, 10) with 10", rec.Base, rec.End, len(rec.JournalEntries))
	}
	if _, err := os.Stat(free); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("pooled segment still on disk after Open: %v", err)
	}
}

// TestOptionsFieldsPinned makes the next store knob a conscious diff:
// every field here multiplies the configurations the suites must cover.
func TestOptionsFieldsPinned(t *testing.T) {
	want := []string{"SegmentBytes", "Mode", "Inline", "Preallocate", "SnapshotChain", "FS"}
	typ := reflect.TypeOf(Options{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store.Options fields changed:\n got %v\nwant %v", got, want)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestRecycledSegmentsOldRecordsInvisible: an older build recycled
// retired segment files, so a final segment it crashed in can hold, past
// its real end, records from the file's first life — valid under that
// life's CRC seed. Replay must read them as a torn tail, never as entries.
func TestRecycledSegmentsOldRecordsInvisible(t *testing.T) {
	dir := t.TempDir()
	frames := func(buf []byte, from, to, start int) []byte {
		for i := from; i < to; i++ {
			at := len(buf)
			buf = appendFrame(buf, entry(i))
			seal(buf[at:], seedFor(start))
		}
		return buf
	}
	data := binary.LittleEndian.AppendUint64([]byte(segMagicV2), 0)
	data = frames(data, 0, 5, 0)       // this life, which starts at 0
	oldLife := len(data)               // the crash came here
	data = frames(data, 100, 120, 100) // the first life, which started at 100
	if err := os.WriteFile(filepath.Join(dir, "journal-0000000000.seg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := mustOpen(t, dir, inlineOpts())
	defer s.Close()
	if rec.End != 5 || rec.TornBytes != int64(len(data)-oldLife) {
		t.Fatalf("recovered end %d with %d torn bytes, want 5 and %d", rec.End, rec.TornBytes, len(data)-oldLife)
	}
	for i, e := range rec.JournalEntries {
		if e != entry(i) {
			t.Fatalf("entry %d = %+v, want %+v", i, e, entry(i))
		}
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
