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
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/oplog"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uniq"
)

// simClock runs a store's flush driver on a discrete-event simulator: a
// commit's flush is an event, which runs when the test runs the loop.
type simClock struct{ *sim.Sim }

func (c simClock) NewTimer(fn func()) transport.Timer { return c.Sim.NewTimer(fn) }

// stepped keeps tests deterministic: opt's flushes run on a simulator's
// clock, where no hold is ever earned, and only when the test steps it.
func stepped(opt Options) Options {
	opt.Clock = simClock{sim.New(1)}
	return opt
}

// commitWait commits every position below end and reports the outcome,
// first running a stepped store's simulator so that its flush happens.
func commitWait(s *Store, end int) bool {
	done := make(chan bool, 1)
	s.Commit(end, func(ok bool) { done <- ok })
	if c, ok := s.opt.Clock.(simClock); ok {
		c.Run()
	}
	return <-done
}

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

// commitAll stages entries and waits for their commit.
func commitAll(t *testing.T, s *Store, entries []oplog.Entry) {
	t.Helper()
	if end := s.Stage(entries); !commitWait(s, end) {
		t.Fatalf("commit to %d failed", end)
	}
}

func TestEmptyDirColdStart(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, stepped(Options{}))
	if rec.End != 0 || len(rec.JournalEntries) != 0 {
		t.Fatalf("cold start recovered something: %+v", rec)
	}
	commitAll(t, s, []oplog.Entry{entry(0), entry(1)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A second cold start sees exactly what was committed.
	s2, rec2 := mustOpen(t, dir, stepped(Options{}))
	defer s2.Close()
	if rec2.End != 2 || len(rec2.JournalEntries) != 2 {
		t.Fatalf("restart: %+v", rec2)
	}
	if rec2.JournalEntries[0] != entry(0) || rec2.JournalEntries[1] != entry(1) {
		t.Fatalf("entries corrupted on the round trip: %+v", rec2.JournalEntries)
	}
}

func TestCrashDropsVolatileTailOnly(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{}) // wall clock: staging is volatile until committed
	commitAll(t, s, []oplog.Entry{entry(0), entry(1), entry(2)})
	// Staged but never committed: the in-memory tail a crash destroys.
	s.Stage([]oplog.Entry{entry(3), entry(4)})
	s.Crash()
	s2, rec := mustOpen(t, dir, stepped(Options{}))
	defer s2.Close()
	if len(rec.JournalEntries) != 3 || rec.End != 3 {
		t.Fatalf("after crash want the 3 committed entries, got %d (end %d)", len(rec.JournalEntries), rec.End)
	}
}

func TestCrashFailsPendingCommits(t *testing.T) {
	// The journal fsync is held at the device until the crash is under
	// way, so the commit's only way out is the crash failing it.
	var s *Store
	crashing := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	}
	s, _ = mustOpen(t, t.TempDir(), Options{FS: gateFS{faultfs.OS, func() {
		for !crashing() {
			time.Sleep(time.Millisecond)
		}
	}}})
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
	opt := stepped(Options{})
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
		s, _ := mustOpen(t, dir, stepped(Options{}))
		commitAll(t, s, []oplog.Entry{entry(0), entry(1)})
		size2 := fileSize(t, filepath.Join(dir, "journal-0000000000.seg"))
		commitAll(t, s, []oplog.Entry{entry(2)})
		s.Close()
		// Tear the final record: keep only `cut` bytes of it.
		path := filepath.Join(dir, "journal-0000000000.seg")
		if err := os.Truncate(path, size2+int64(cut)); err != nil {
			t.Fatal(err)
		}
		s2, rec, err := Open(dir, stepped(Options{}))
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
		s3, rec3 := mustOpen(t, dir, stepped(Options{}))
		s3.Close()
		if len(rec3.JournalEntries) != 3 || rec3.JournalEntries[2] != entry(9) {
			t.Fatalf("cut=%d: append-after-tear replay got %d entries", cut, len(rec3.JournalEntries))
		}
	}
}

func TestCRCCorruptMiddleRecordRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, stepped(Options{}))
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
	if _, _, err := Open(dir, stepped(Options{})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("middle-record corruption must fail Open with ErrCorrupt, got %v", err)
	}
}

func TestCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	opt := stepped(Options{})
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

func TestGroupCommitCoalesces(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{}) // the zero value: adaptive, on the wall clock
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
	s.mu.Lock()
	hold := s.adaptiveHoldLocked()
	s.mu.Unlock()
	if hold != 0 {
		t.Fatalf("idle store holds flushes for %v", hold)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedDirectoryUntouched: Open refuses a directory it cannot read
// whole and changes no byte of it — no incarnation written, no .tmp
// swept, no torn tail truncated. Each row damages a copy of the golden
// corpus, beside which lie a leftover acked.tmp and a final segment with
// a zero-filled tail, as a crash leaves them. A file only an older build
// wrote is ErrLegacyDirectory, naming the file; a lost segment is a
// journal gap, naming the positions no segment holds. The sound row
// opens, which shows that the damage alone is what each refusal sees.
func TestRefusedDirectoryUntouched(t *testing.T) {
	// A QSEG1 segment: the old magic, then unsalted records.
	qseg1 := []byte(segMagicV1)
	for i := 0; i < 3; i++ {
		at := len(qseg1)
		qseg1 = appendFrame(qseg1, entry(i))
		seal(qseg1[at:], 0)
	}
	const final = "journal-0000000092.seg"
	write := func(name string, b []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func(names ...string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			for _, name := range names {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, c := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		names  string // what the error names; "" when Open must succeed
		legacy bool   // the error is ErrLegacyDirectory
	}{
		{"sound", func(*testing.T, string) {}, "", false},
		{"snapshot", write("snap-0000000040.snap", []byte("QSNP1\n")), "snap-0000000040.snap", true},
		{"delta", write("delta-0000000060.snap", []byte("QSNP1\n")), "delta-0000000060.snap", true},
		{"pooled segment", write("free-0000000003.seg", qseg1), "free-0000000003.seg", true},
		{"QSEG1 final", write(final, qseg1), final, true},
		{"QSEG1 sealed", write("journal-0000000014.seg", qseg1), "journal-0000000014.seg", true},
		{"middle segment lost", remove("journal-0000000041.seg"), "positions [41, 58)", false},
		{"first segments lost", remove("journal-0000000000.seg", "journal-0000000014.seg", "journal-0000000026.seg"), "positions [0, 37)", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range readDir(t, goldenDir) {
				if name == final {
					b = append(b, make([]byte, 64)...)
				}
				write(name, b)(t, dir)
			}
			write(ackFile+".tmp", []byte("half a counter"))(t, dir)
			c.damage(t, dir)
			before := readDir(t, dir)
			s, _, err := Open(dir, goldenOpts())
			if c.names == "" {
				if err != nil {
					t.Fatalf("Open on the sound directory: %v", err)
				}
				s.Close()
				after := readDir(t, dir)
				if _, ok := after[ackFile+".tmp"]; ok || len(after[final]) != len(before[final])-64 {
					t.Fatalf("a sound Open left the .tmp file (%v) or kept %d of the final segment's %d bytes, 64 of them torn", ok, len(after[final]), len(before[final]))
				}
				return
			}
			if err == nil {
				s.Close()
				t.Fatal("Open succeeded")
			}
			if errors.Is(err, ErrLegacyDirectory) != c.legacy || !strings.Contains(err.Error(), c.names) {
				t.Fatalf("Open = %v; want an error naming %q, ErrLegacyDirectory %v", err, c.names, c.legacy)
			}
			if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused Open changed the directory")
			}
		})
	}
}

// FuzzSegmentFile holds the segment reader — the store's only parser of
// on-disk bytes — to its contract on any bytes and any start position.
// Run as the final segment, on a file of its own, it never panics; the
// entries it accepts re-encode under the segment's seed to exactly the
// bytes it kept, and the torn count is what it cut from the file. Run as
// a sealed segment, the same bytes are accepted whole or ErrCorrupt.
func FuzzSegmentFile(f *testing.F) {
	segs, err := filepath.Glob(filepath.Join(goldenDir, "journal-*.seg"))
	if err != nil || len(segs) == 0 {
		f.Fatalf("no corpus segments (%v)", err)
	}
	sort.Strings(segs)
	var first []byte
	for i, path := range segs {
		b, err := os.ReadFile(path)
		start, serr := segStart(filepath.Base(path))
		if err != nil || serr != nil {
			f.Fatal(err, serr)
		}
		f.Add(uint64(start), b)
		if i == 0 {
			first = b
		}
	}
	f.Add(uint64(0), first[:len(first)-3])                                   // torn
	f.Add(uint64(0), append(bytes.Clone(first), make([]byte, 64)...))        // preallocated tail
	f.Add(uint64(0), append([]byte(segMagicV1), first[len(segMagicV1):]...)) // QSEG1 header
	f.Fuzz(func(t *testing.T, start uint64, data []byte) {
		s := &Store{dir: t.TempDir(), fs: faultfs.OS}
		sd := segData{name: fmt.Sprintf("journal-%010d.seg", start), start: int(start), b: data, str: string(data)}
		path := filepath.Join(s.dir, sd.name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sealed, _, sealedErr := s.scanSegment(sd, false, nil)
		if sealedErr != nil && !errors.Is(sealedErr, ErrCorrupt) {
			t.Fatalf("sealed run: %v, want nil or ErrCorrupt", sealedErr)
		}
		ents, torn, err := s.scanSegment(sd, true, nil)
		onDisk, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || sealedErr == nil || !bytes.Equal(onDisk, data) {
				t.Fatalf("final run: %v (sealed run: %v), file changed %v", err, sealedErr, !bytes.Equal(onDisk, data))
			}
			return
		}
		kept := data[:len(data)-int(torn)]
		if !bytes.Equal(onDisk, kept) {
			t.Fatalf("reported %d torn bytes of %d, but the file holds %d", torn, len(data), len(onDisk))
		}
		var want []byte
		if len(kept) > 0 {
			want = append(want, kept[:segHdrV2]...)
		}
		for _, e := range ents {
			at := len(want)
			want = appendFrame(want, e)
			seal(want[at:], seedFor(sd.start))
		}
		if !bytes.Equal(want, kept) {
			t.Fatalf("accepted %d entries that do not re-encode to the %d bytes kept", len(ents), len(kept))
		}
		if sealedErr == nil && (torn != 0 || !reflect.DeepEqual(sealed, ents)) {
			t.Fatalf("sealed run accepted %d entries, final run %d with %d torn bytes", len(sealed), len(ents), torn)
		}
	})
}

// TestIncarnationCountsOpens: a fresh directory is incarnation 0 and every
// Open after counts one more — on either clock, crashed or closed — and a
// directory with data but no incarnation file (one written before the file
// existed) reads as incarnation 1. A malformed file is refused with
// ErrBadIncarnation and left as it was.
func TestIncarnationCountsOpens(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(0); want < 3; want++ {
		opt := Options{}
		if want != 1 {
			opt = stepped(opt)
		}
		s, rec := mustOpen(t, dir, opt)
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
	s, rec := mustOpen(t, dir, stepped(Options{}))
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
		if _, _, err := Open(dir, stepped(Options{})); !errors.Is(err, ErrBadIncarnation) {
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
	s, _ := mustOpen(t, dir, stepped(Options{}))
	commitAll(t, s, crashWorkloadEntries(10))
	s.AckTo(7)
	s.AckTo(5) // a lower acknowledgement never moves it back
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	acked := func() int {
		t.Helper()
		s, rec := mustOpen(t, dir, stepped(Options{}))
		s.Crash() // Close would rewrite the file
		if rec.End != 10 {
			t.Fatalf("recovered [0, %d), want [0, 10)", rec.End)
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
			t.Fatalf("%s acked file: recovered acked %d, want 0", c.name, got)
		}
	}
}

// TestOptionsFieldsPinned makes the next store knob a conscious diff:
// every field here multiplies the configurations the suites must cover.
func TestOptionsFieldsPinned(t *testing.T) {
	want := []string{"SegmentBytes", "Mode", "Clock", "Preallocate", "SnapshotChain", "FS"}
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
	s, rec := mustOpen(t, dir, stepped(Options{}))
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
	opt := stepped(Options{Preallocate: true, SegmentBytes: 1 << 16})
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
