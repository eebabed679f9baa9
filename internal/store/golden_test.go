package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/oplog"
	"repro/internal/uniq"
)

// The golden corpus under testdata/golden/ is one store directory written
// by the commit *before* Stage started encoding on entry (a store that
// kept one []oplog.Entry chunk per Stage call, encoded by the flusher), driven
// by that commit's version of goldenScript below. It holds every byte
// layout the store persists: QSEG2 segments — three of them reborn from
// a free pool that build kept, their records salted with a later seed
// than the files' first lives — and the incarnation file one Open of a
// fresh directory leaves (next incarnation 1; it was added after the
// rest, from the format's definition rather than by an older commit).
// That build also cut a snapshot at 40 and retired the segments below
// position 37, so snap-0000000040.snap holds the only copy of positions
// 0–36, and it left two delta files cut at 60 and 75. This store writes
// neither kind: the snapshot is legacy input it must still read, the
// deltas legacy input it leaves as they are. The tests hold the current
// code to those bytes in both directions: writing (the same script must
// produce the same segments, byte for byte, plus the segments below 37
// and an acked file, which the corpus lacks) and reading (the committed
// directory must recover to the expected set and watermark). A format
// change has to either keep both green or replace the corpus on purpose.

const goldenDir = "testdata/golden"

// goldenEntries is the fixed ledger the corpus was cut from: Lamport
// order equals stage order, so a prefix is already canonical, and the
// strings cover what the codec has to carry — an empty key, a non-UTF-8
// kind, a note long enough for a two-byte length, negative numbers.
func goldenEntries() []oplog.Entry {
	kinds := []string{"deposit", "withdraw", "transfer", "k\xff\xfe"}
	out := make([]oplog.Entry, 96)
	for i := range out {
		e := oplog.Entry{
			ID:   uniq.ID(fmt.Sprintf("r%d-%06d", i%3, i)),
			Kind: kinds[i%len(kinds)],
			Key:  fmt.Sprintf("acct-%03d", (i*7)%23),
			Arg:  int64(i*i) - 500,
			Lam:  uint64(2*i + 1),
			At:   time.Duration(1_000_000 + 1_337*i),
		}
		switch {
		case i%11 == 0:
			e.Key = ""
		case i%13 == 0:
			e.Note = strings.Repeat("memo ", 30+i) // > 127 bytes: two-byte length prefix
		case i%5 == 0:
			e.Note = fmt.Sprintf("ref #%d", i)
		}
		if i%17 == 0 {
			e.At = -e.At
		}
		out[i] = e
	}
	return out
}

// goldenOpts is the corpus's store shape: inline (deterministic), tiny
// segments so the ledger spans many of them, preallocation on, and the
// chain of four the corpus was cut with, which is now ignored.
func goldenOpts() Options {
	return Options{Inline: true, Preallocate: true, SegmentBytes: 512, SnapshotChain: 4}
}

// goldenScript drives a fresh store in dir through the corpus's life and
// closes it. Batches come in uneven sizes so that segments rotate both
// between one-entry and many-entry Stage calls.
func goldenScript(t *testing.T, dir string) {
	t.Helper()
	all := goldenEntries()
	s, _ := mustOpen(t, dir, goldenOpts())
	sizes := []int{1, 3, 1, 7, 2, 5, 1, 1, 4}
	next, k := 0, 0
	stageTo := func(pos int) {
		for next < pos {
			n := min(sizes[k%len(sizes)], pos-next)
			k++
			commitAll(t, s, all[next:next+n])
			next += n
		}
	}
	stageTo(40)
	s.AckTo(40) // the acked file records it from the next seal on
	stageTo(96)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// readDir loads every file of a store directory, by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(des))
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = b
	}
	return out
}

// isSnapshot reports whether a store file is a snapshot or a delta, which
// only an older build wrote.
func isSnapshot(name string) bool {
	return strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "delta-")
}

// TestGoldenBytesWritten stages the corpus's entries through the current
// write path and compares the directory with the committed one, file for
// file and byte for byte, the legacy snapshot and deltas aside. The files
// the corpus lacks are checked exactly too: the segments below its first,
// which must hold the ledger's first entries, and the acked file.
func TestGoldenBytesWritten(t *testing.T) {
	dir := t.TempDir()
	goldenScript(t, dir)
	got, want := readDir(t, dir), readDir(t, goldenDir)
	first := len(goldenEntries()) // the corpus's first segment start
	for name, w := range want {
		g, ok := got[name]
		switch {
		case isSnapshot(name):
			if ok {
				t.Errorf("%s: a snapshot file written", name)
			}
		case !ok:
			t.Errorf("%s: in the corpus, not written", name)
		case !bytes.Equal(g, w):
			t.Errorf("%s: %d bytes written differ from the corpus's %d", name, len(g), len(w))
		}
		if start, err := segStart(name); err == nil && strings.HasPrefix(name, "journal-") {
			first = min(first, start)
		}
	}
	// The reader's tests build snapshots with snapshotBytes: it must write
	// what the snapshotting build wrote.
	if !bytes.Equal(snapshotBytes(goldenEntries(), 40), want["snap-0000000040.snap"]) {
		t.Error("snapshotBytes differs from the corpus's snap-0000000040.snap")
	}

	reader := &Store{dir: dir, fs: faultfs.OS}
	var below []oplog.Entry // what the segments the corpus lacks hold, in order
	var names []string
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		start, err := segStart(name)
		switch {
		case name == ackFile:
			if n, err := reader.readCounter(ackFile, ackMagic); err != nil || n != 40 {
				t.Errorf("acked file holds %d (%v), want the 40 the script acked", n, err)
			}
		case strings.HasPrefix(name, "journal-") && err == nil && start < first:
			if start != len(below) {
				t.Errorf("%s starts at %d, want %d", name, start, len(below))
			}
			b := got[name]
			if below, _, err = reader.scanSegment(segData{name: name, start: start, b: b, str: string(b)}, false, below); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		default:
			t.Errorf("%s: written, not in the corpus", name)
		}
	}
	if !reflect.DeepEqual(below, goldenEntries()[:first]) {
		t.Errorf("the segments below %d hold %d entries that are not the ledger's first %d", first, len(below), first)
	}

	var kinds [3]int // journal, snap, delta
	for name := range want {
		for i, prefix := range []string{"journal-", "snap-", "delta-"} {
			if strings.HasPrefix(name, prefix) {
				kinds[i]++
			}
		}
	}
	if first != 37 || kinds[0] < 2 || kinds[1] != 1 || kinds[2] != 2 {
		t.Fatalf("corpus holds %d segments from %d, %d snapshot, %d delta files; want several from 37, 1, 2", kinds[0], first, kinds[1], kinds[2])
	}
}

// TestGoldenDirectoryRecovers opens a copy of the committed directory —
// bytes this code did not write — and checks what comes back: the
// snapshot at 40, the journal tail behind it, every entry of the ledger
// exactly once past the overlap, and the fold watermark the snapshot
// recorded. The legacy delta files are not read and stay as they were.
func TestGoldenDirectoryRecovers(t *testing.T) {
	dir := t.TempDir()
	corpus := readDir(t, goldenDir)
	for name, b := range corpus {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	all := goldenEntries()
	s, rec := mustOpen(t, dir, goldenOpts())
	if rec.SnapshotPos != 40 || rec.Base != 37 || rec.Acked != 37 || rec.End != 96 || rec.TornBytes != 0 || rec.Incarnation != 1 {
		t.Fatalf("recovered pos=%d base=%d acked=%d end=%d torn=%d incarnation=%d; want 40, 37, 37, 96, 0, 1",
			rec.SnapshotPos, rec.Base, rec.Acked, rec.End, rec.TornBytes, rec.Incarnation)
	}
	if rec.SnapshotMark != all[39].Mark() {
		t.Fatalf("watermark %+v, want %+v", rec.SnapshotMark, all[39].Mark())
	}
	if !reflect.DeepEqual(rec.SnapshotEntries, all[:40]) {
		t.Fatalf("the snapshot restored %d entries that are not the ledger's first 40", len(rec.SnapshotEntries))
	}
	if !reflect.DeepEqual(rec.JournalEntries, all[rec.Base:]) {
		t.Fatalf("the journal restored %d entries from %d that are not the ledger's tail", len(rec.JournalEntries), rec.Base)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := readDir(t, dir)
	for name, b := range corpus {
		if isSnapshot(name) && !bytes.Equal(after[name], b) {
			t.Errorf("%s: a legacy snapshot or delta file was changed or removed", name)
		}
	}
}
