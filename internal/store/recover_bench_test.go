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

// healLedger is n entries as a replica's journal holds them after a
// partition heals: its own n/2, then its peer's n/2, which it took in
// once the partition healed. Each side stamped its own over the same
// stretch of Lamport time, so the peer's interleave with its own.
func healLedger(n int) []oplog.Entry {
	out := make([]oplog.Entry, n)
	for i := range out {
		origin, k := i/(n/2), i%(n/2)
		out[i] = oplog.Entry{
			ID:   uniq.ID(uniq.AppendID(nil, fmt.Sprintf("r%d", origin), uint64(k+1))),
			Kind: "deposit",
			Key:  fmt.Sprintf("acct-%04d", k%1000),
			Arg:  int64(1 + k%100),
			Lam:  uint64(k + 1),
			At:   time.Duration(k)*time.Microsecond + time.Duration(origin)*3*time.Microsecond,
		}
	}
	return out
}

// BenchmarkRecoverJournal400k reopens a store whose journal holds 400k
// entries, all acknowledged — nothing else, the journal being the
// ledger — and rebuilds the op set from them as a recovering replica
// does, by one NewSet. It reports the two halves: Open (read, CRC-check
// and decode every record) and the set rebuild. The in-order arm's
// journal is recoveryLedger's; the heal arm's is healLedger's, whose
// second half lands deep below its first.
func BenchmarkRecoverJournal400k(b *testing.B) {
	if testing.Short() {
		b.Skip("builds a 400k-entry journal")
	}
	b.Run("in-order", func(b *testing.B) { benchRecover(b, recoveryLedger) })
	b.Run("heal", func(b *testing.B) { benchRecover(b, healLedger) })
}

// benchRecover is one arm of BenchmarkRecoverJournal400k. It builds the
// journal itself, so that the entries it commits are garbage before the
// timing starts and the collector does not mark them on every cycle.
func benchRecover(b *testing.B, ledger func(int) []oplog.Entry) {
	const n = 400_000
	all := ledger(n)
	dir := b.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i += 1000 {
		if !commitWait(s, s.Stage(all[i:min(i+1000, n)])) {
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
		s, rec, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		opened := time.Now()
		set := oplog.NewSet(rec.JournalEntries...)
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
