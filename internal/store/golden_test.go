package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/oplog"
	"repro/internal/sim"
	"repro/internal/uniq"
)

// The golden corpus under testdata/golden/ is one store directory written
// by the commit *before* Stage started encoding on entry (PR 25's store,
// one []oplog.Entry chunk per Stage call, encoded by the flusher), driven
// by goldenScript below. It holds every byte layout the store persists:
// QSEG2 segments — three of them reborn from the free pool, their records
// salted with a later seed than the files' first lives — a full snapshot,
// a two-link delta chain, and the incarnation file one Open of a fresh
// directory leaves (next incarnation 1; it was added after the rest, from
// the format's definition rather than by an older commit). The tests hold
// the current code to
// those bytes in both directions: writing (the same script must produce
// the same files) and reading (the committed directory must recover to
// the expected set and watermark). A format change has to either keep
// both green or replace the corpus on purpose.

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
			At:   sim.Time(1_000_000 + 1_337*i),
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
// segments so the ledger spans many of them, recycling on, chain of four.
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
	cut(s, all, 40) // the chain's root: a full snapshot
	s.AckTo(40)     // sealed segments below it retire into the free pool
	stageTo(60)     // rotations are reborn from the pool
	cut(s, all, 60) // delta, parent 40
	stageTo(75)
	cut(s, all, 75) // delta, parent 60
	stageTo(96)     // a journal tail past the chain tip
	if st := s.Stats(); st.Recycled == 0 || st.DeltaSnapshots != 2 || st.Snapshots != 3 || st.SnapshotFailures != 0 {
		t.Fatalf("the script no longer produces what the corpus claims to hold: %+v", st)
	}
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

// TestGoldenBytesWritten stages the corpus's entries through the current
// write path and compares the directory with the committed one, file for
// file and byte for byte.
func TestGoldenBytesWritten(t *testing.T) {
	dir := t.TempDir()
	goldenScript(t, dir)
	got, want := readDir(t, dir), readDir(t, goldenDir)
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: in the corpus, not written", name)
		case !bytes.Equal(g, w):
			t.Errorf("%s: %d bytes written differ from the corpus's %d", name, len(g), len(w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written, not in the corpus", name)
		}
	}
	var kinds [4]int // journal, free, snap, delta
	for name := range want {
		for i, prefix := range []string{"journal-", "free-", "snap-", "delta-"} {
			if strings.HasPrefix(name, prefix) {
				kinds[i]++
			}
		}
	}
	if kinds[0] < 2 || kinds[2] != 1 || kinds[3] != 2 {
		t.Fatalf("corpus holds %d segments, %d pooled, %d full, %d delta files; want several, any, 1, 2", kinds[0], kinds[1], kinds[2], kinds[3])
	}
}

// TestGoldenDirectoryRecovers opens a copy of the committed directory —
// bytes this code did not write — and checks what comes back: the chain
// resolved root-first to its tip, the journal tail behind it, every entry
// of the ledger exactly once past the overlap, and the fold watermark the
// last cut recorded.
func TestGoldenDirectoryRecovers(t *testing.T) {
	dir := t.TempDir()
	for name, b := range readDir(t, goldenDir) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	all := goldenEntries()
	s, rec := mustOpen(t, dir, goldenOpts())
	defer s.Close()
	if rec.SnapshotPos != 75 || rec.SnapshotBase != 40 || rec.Deltas != 2 || rec.End != 96 || rec.TornBytes != 0 || rec.Incarnation != 1 {
		t.Fatalf("recovered pos=%d base=%d deltas=%d end=%d torn=%d incarnation=%d; want 75, 40, 2, 96, 0, 1",
			rec.SnapshotPos, rec.SnapshotBase, rec.Deltas, rec.End, rec.TornBytes, rec.Incarnation)
	}
	if rec.SnapshotMark != all[74].Mark() {
		t.Fatalf("watermark %+v, want %+v", rec.SnapshotMark, all[74].Mark())
	}
	if !reflect.DeepEqual(rec.SnapshotEntries, all[:75]) {
		t.Fatalf("the chain restored %d entries that are not the ledger's first 75", len(rec.SnapshotEntries))
	}
	if rec.Base > 40 || !reflect.DeepEqual(rec.JournalEntries, all[rec.Base:]) {
		t.Fatalf("the journal restored %d entries from %d that are not the ledger's tail", len(rec.JournalEntries), rec.Base)
	}
}
