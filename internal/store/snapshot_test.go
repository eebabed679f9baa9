package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/oplog"
)

// countAt reports where a snapshot file's record count begins and where
// its records begin. The header must be well formed.
func countAt(t testing.TB, data []byte) (count, records int) {
	t.Helper()
	b := data[len(snapMagic):]
	_, n := binary.Uvarint(b)
	_, b, err := oplog.DecodeWatermark(b[n:])
	if _, n = binary.Uvarint(b); err != nil || n <= 0 {
		t.Fatalf("malformed snapshot header (%v)", err)
	}
	return len(data) - len(b), len(data) - len(b) + n
}

// withCount returns a copy of the snapshot file data whose header claims
// count records; the records themselves are left as they are.
func withCount(t testing.TB, data []byte, count uint64) []byte {
	c, r := countAt(t, data)
	out := binary.AppendUvarint(append([]byte(nil), data[:c]...), count)
	return append(out, data[r:]...)
}

// TestHugeSnapshotCountFallsBackToOlder: a snapshot whose header claims
// 2^40 records is damage like any other — the file is passed over for the
// one before it, not sized into an out-of-memory crash.
func TestHugeSnapshotCountFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, inlineOpts())
	var all []oplog.Entry
	for i := 0; i < 20; i++ {
		all = append(all, entry(i))
	}
	commitAll(t, s, all)
	snapshotAt(s, all, 10)
	snapshotAt(s, all, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snap-0000000020.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withCount(t, data, 1<<40), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := mustOpen(t, dir, inlineOpts())
	defer s2.Close()
	if rec.SnapshotPos != 10 {
		t.Fatalf("recovered from the snapshot at %d, want 10", rec.SnapshotPos)
	}
	if got := len(recoveredSeq(t, rec)); got != 20 {
		t.Fatalf("recovered %d entries, want 20", got)
	}
}

// FuzzSnapshotFile holds the snapshot parser to its contract on any
// bytes: it never panics, and what it accepts re-encodes to exactly the
// records between the header and the footer.
func FuzzSnapshotFile(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join(goldenDir, "snap-0000000040.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	f.Add(withCount(f, golden, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		ents, _, _, err := parseSnapshot(data)
		if err != nil {
			return
		}
		var recs []byte
		for _, e := range ents {
			recs = appendRecord(recs, e)
		}
		_, r := countAt(t, data)
		body, ok := bytes.CutSuffix(data[r:], []byte(snapFooter))
		if !ok || !bytes.Equal(body, recs) {
			t.Fatalf("accepted %d entries that do not re-encode to the bytes between header and footer", len(ents))
		}
	})
}
