package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/oplog"
	"repro/internal/uniq"
)

// recoveryLedger is n entries from three origins in arrival order: the
// first origin's arrive in Lamport order, the other two's up to 8 ticks
// late, as gossip delivers them.
func recoveryLedger(n int) []oplog.Entry {
	rng := rand.New(rand.NewSource(400))
	out := make([]oplog.Entry, n)
	for i := range out {
		origin := i % 3
		lam := uint64(i/3*3 + 9)
		if origin > 0 {
			lam -= uint64(rng.Intn(9))
		}
		out[i] = oplog.Entry{
			ID:   uniq.ID(uniq.AppendID(nil, fmt.Sprintf("r%d", origin), uint64(i/3+1))),
			Kind: "deposit",
			Key:  fmt.Sprintf("acct-%04d", rng.Intn(1000)),
			Arg:  int64(rng.Intn(10_000)),
			Lam:  lam,
			At:   time.Duration(i) * time.Microsecond,
		}
	}
	return out
}

// BenchmarkRecoverJournal400k reopens a store whose journal holds 400k
// entries — nothing else, the journal being the ledger — and rebuilds
// the op set from them as a recovering replica does. It reports the two
// halves: Open (read, CRC-check and decode every record) and the set
// rebuild.
func BenchmarkRecoverJournal400k(b *testing.B) {
	if testing.Short() {
		b.Skip("builds a 400k-entry journal")
	}
	const n = 400_000
	all := recoveryLedger(n)
	dir := b.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i += 1000 {
		done := make(chan bool, 1)
		s.Commit(s.Stage(all[i:min(i+1000, n)]), func(ok bool) { done <- ok })
		if !<-done {
			b.Fatal("commit failed")
		}
	}
	s.AckTo(n)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	var open, rebuild time.Duration
	b.ResetTimer()
	for range b.N {
		start := time.Now()
		s, rec, err := Open(dir, Options{Inline: true})
		if err != nil {
			b.Fatal(err)
		}
		opened := time.Now()
		set := oplog.NewSet()
		set.Grow(len(rec.SnapshotEntries) + len(rec.JournalEntries))
		for _, e := range rec.SnapshotEntries {
			set.Add(e)
		}
		for _, e := range rec.JournalEntries {
			set.Add(e)
		}
		open += opened.Sub(start)
		rebuild += time.Since(opened)
		if set.Len() != n || rec.Acked != n {
			b.Fatalf("recovered %d entries acked to %d, want %d", set.Len(), rec.Acked, n)
		}
		s.Crash()
	}
	b.ReportMetric(float64(open.Milliseconds())/float64(b.N), "open-ms/op")
	b.ReportMetric(float64(rebuild.Milliseconds())/float64(b.N), "rebuild-ms/op")
}
