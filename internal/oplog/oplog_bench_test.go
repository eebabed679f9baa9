package oplog

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/uniq"
)

// Micro-benchmarks for the op-set primitives: gossip and state folds are
// built from Union and Entries, so their constants bound experiment scale.

func benchSet(n int) *Set {
	s := NewSet()
	for i := 0; i < n; i++ {
		s.Add(Entry{ID: uniq.ID(fmt.Sprintf("op-%08d", i)), Kind: "k", Arg: 1, Lam: uint64(i)})
	}
	return s
}

func BenchmarkSetAdd(b *testing.B) {
	s := NewSet()
	ids := make([]uniq.ID, b.N)
	for i := range ids {
		ids[i] = uniq.ID(fmt.Sprintf("op-%08d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(Entry{ID: ids[i], Lam: uint64(i)})
	}
}

func BenchmarkUnionDisjoint1k(b *testing.B) {
	src := benchSet(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewSet()
		dst.Union(src)
	}
}

func BenchmarkUnionIdempotent1k(b *testing.B) {
	src := benchSet(1000)
	dst := benchSet(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Union(src) // fully overlapping: the common gossip steady state
	}
}

func BenchmarkEntriesCanonicalSort1k(b *testing.B) {
	s := benchSet(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Entries()
	}
}

func BenchmarkWalkFromStartTail1k(b *testing.B) {
	s := benchSet(1000)
	w := Entry{ID: uniq.ID(fmt.Sprintf("op-%08d", 989)), Kind: "k", Arg: 1, Lam: 989}.Mark()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = entriesAfter(s, w) // last 10 entries: the checkpointed-fold steady state
	}
}

func BenchmarkAddOutOfOrder1k(b *testing.B) {
	// Every add sorts into the past — the worst case the O(n) insertion
	// path pays, so gossip-behind-watermark cost stays visible.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSet()
		for j := 999; j >= 0; j-- {
			s.Add(Entry{ID: uniq.ID(fmt.Sprintf("op-%08d", j)), Lam: uint64(j)})
		}
	}
}

func BenchmarkFold1k(b *testing.B) {
	s := benchSet(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fold(s, int64(0), func(acc int64, e Entry) int64 { return acc + e.Arg })
	}
}

// BenchmarkAppendEntryReused is the journal writer's steady state: encode
// into a reused scratch buffer. Run with -benchmem; the assertion below
// (and TestAppendEntryNoAllocs) pin this at 0 allocs/op.
func BenchmarkAppendEntryReused(b *testing.B) {
	b.ReportAllocs()
	e := Entry{ID: "r0-000042", Kind: "deposit", Key: "acct-007", Note: "n", Arg: 100_00, Lam: 42, At: 5_000_000}
	buf := make([]byte, 0, 2*EntrySize(e))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEntry(buf[:0], e)
	}
	if testing.AllocsPerRun(100, func() { buf = AppendEntry(buf[:0], e) }) != 0 {
		b.Fatal("reused-buffer encode allocates")
	}
}

func BenchmarkDecodeEntry(b *testing.B) {
	b.ReportAllocs()
	enc := AppendEntry(nil, Entry{ID: "r0-000042", Kind: "deposit", Key: "acct-007", Note: "n", Arg: 100_00, Lam: 42, At: 5_000_000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEntry(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppendAll measures the vectorized journal append the
// batched ingest loop uses: one call per 256-entry batch.
func BenchmarkJournalAppendAll(b *testing.B) {
	b.ReportAllocs()
	batch := make([]Entry, 256)
	for i := range batch {
		batch[i] = Entry{ID: uniq.ID(fmt.Sprintf("op-%08d", i)), Lam: uint64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var j Journal
		j.AppendAll(batch)
		if j.Len() != len(batch) {
			b.Fatal("lost entries")
		}
	}
}

// BenchmarkReads200k is the sequential reads over a set of 200 000
// entries shaped as three replicas mint them, nearly all sealed in
// blocks: Equal against a copy (Converged's comparison) and Fold (a
// refold from genesis). Each decodes every block once.
func BenchmarkReads200k(b *testing.B) {
	const n = 200_000
	s := replicaSet(n)
	c := s.Copy()
	b.Run("Equal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if !s.Equal(c) {
				b.Fatal("a copy is not Equal")
			}
		}
	})
	b.Run("Fold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Fold(s, int64(0), func(acc int64, e Entry) int64 { return acc + e.Arg })
		}
	})
}

// replicaSet is n entries shaped as three replicas mint them, added in
// canonical order: each replica's numbers consecutive, its clock a few
// microseconds off the others'.
func replicaSet(n int) *Set {
	s := NewSet()
	clocks := [3]time.Duration{0, -5 * time.Microsecond, 3 * time.Microsecond}
	for i := range n {
		s.Add(Entry{
			ID:   uniq.ID(fmt.Sprintf("r%d-%06d", i%3, i/3+1)),
			Kind: "deposit",
			Key:  fmt.Sprintf("acct-%d", i%1024),
			Arg:  int64(1 + i%100),
			Lam:  uint64(i + 1),
			At:   time.Duration(i)*time.Microsecond + clocks[i%3],
		})
	}
	return s
}

// BenchmarkLateAddDeep is the deep thaw: a replica-shaped set of 200 000
// entries, nearly all sealed, takes 64 single Adds from a fourth replica,
// each sorting just below an entry spread across the blocks, so each
// thaws the blocks from its place on and seals them anew. An op is the 64
// Adds on a fresh copy of the set; the copy is not timed.
func BenchmarkLateAddDeep(b *testing.B) {
	const n, late = 200_000, 64
	s := replicaSet(n)
	sealed := s.sealed()
	marks := make([]Entry, late)
	for k := range marks {
		at := entryAt(s, k*sealed/late)
		marks[k] = Entry{ID: uniq.ID(fmt.Sprintf("r3-%06d", k+1)), Kind: "deposit", Key: "acct-late", Arg: 1, Lam: at.Lam, At: at.At - 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		c := s.Copy()
		b.StartTimer()
		for _, e := range marks {
			if !c.Add(e) {
				b.Fatal("a late entry was reported a duplicate")
			}
		}
	}
}
