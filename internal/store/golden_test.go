package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/oplog"
	"repro/internal/uniq"
)

// The golden corpus under testdata/golden/ is one store directory, the
// one goldenScript below writes: QSEG2 segments from position 0, the
// acked file, and the incarnation file one Open of a fresh directory
// leaves (next incarnation 1). The segments from 37 on came from the
// commit *before* Stage started encoding on entry (a store that kept one
// []oplog.Entry chunk per Stage call, encoded by the flusher), which
// reused retired segment files, so three of them hold records salted by
// a later seed than the files' first lives. The incarnation file was
// added later, from its format, and the segments below 37 and the acked
// file later still, written by this script when the legacy snapshot that
// had held positions 0–36 was dropped. The tests hold the current code
// to those bytes in both directions: writing (the same script must
// produce the same directory, byte for byte) and reading (the committed
// directory must recover the whole ledger). A format change has to
// either keep both green or replace the corpus on purpose.

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

// goldenOpts is the corpus's store shape: stepped (deterministic), tiny
// segments so the ledger spans many of them, and preallocation on.
func goldenOpts() Options {
	return stepped(Options{Preallocate: true, SegmentBytes: 512})
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

// TestGoldenBytesWritten stages the corpus's entries through the current
// write path and compares the directory with the committed one, file for
// file and byte for byte, in both directions.
func TestGoldenBytesWritten(t *testing.T) {
	dir := t.TempDir()
	goldenScript(t, dir)
	got, want := readDir(t, dir), readDir(t, goldenDir)
	for name, w := range want {
		switch g, ok := got[name]; {
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
}

// TestGoldenDirectoryRecovers opens a copy of the committed directory —
// bytes this code did not write — and checks what comes back: every
// entry of the ledger, in order, from position 0, and the acknowledged
// position the script recorded. No journal byte changes.
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
	if rec.Acked != 40 || rec.End != 96 || rec.TornBytes != 0 || rec.Incarnation != 1 {
		t.Fatalf("recovered acked=%d end=%d torn=%d incarnation=%d; want 40, 96, 0, 1",
			rec.Acked, rec.End, rec.TornBytes, rec.Incarnation)
	}
	if !reflect.DeepEqual(rec.JournalEntries, all) {
		t.Fatalf("the journal restored %d entries that are not the ledger's %d", len(rec.JournalEntries), len(all))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := readDir(t, dir)
	for name, b := range corpus {
		if strings.HasPrefix(name, "journal-") && !bytes.Equal(after[name], b) {
			t.Errorf("%s: a journal segment was changed or removed", name)
		}
	}
}
