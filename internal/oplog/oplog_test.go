package oplog

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/uniq"
)

func e(id string, at int64) Entry {
	return Entry{ID: uniq.ID(id), Kind: "op", Key: "k", Arg: 1, At: sim.Time(at)}
}

func TestAddIdempotent(t *testing.T) {
	s := NewSet()
	if !s.Add(e("a", 1)) {
		t.Fatal("first Add returned false")
	}
	if s.Add(e("a", 1)) {
		t.Fatal("duplicate Add returned true")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestContains(t *testing.T) {
	s := NewSet(e("a", 1))
	if !s.Contains("a") || s.Contains("b") {
		t.Fatal("Contains wrong")
	}
}

func TestUnionCountsNewOnly(t *testing.T) {
	a := NewSet(e("1", 1), e("2", 2))
	b := NewSet(e("2", 2), e("3", 3))
	if n := a.Union(b); n != 1 {
		t.Fatalf("Union absorbed %d, want 1", n)
	}
	if a.Len() != 3 {
		t.Fatalf("Len after union = %d", a.Len())
	}
}

func TestDiff(t *testing.T) {
	a := NewSet(e("1", 1), e("2", 2), e("3", 3))
	b := NewSet(e("2", 2))
	d := a.Diff(b)
	if len(d) != 2 || d[0].ID != "1" || d[1].ID != "3" {
		t.Fatalf("Diff = %+v", d)
	}
	if len(b.Diff(a)) != 0 {
		t.Fatal("reverse diff should be empty")
	}
}

func TestEntriesCanonicalOrder(t *testing.T) {
	s := NewSet(e("b", 5), e("a", 5), e("z", 1))
	got := s.Entries()
	if got[0].ID != "z" || got[1].ID != "a" || got[2].ID != "b" {
		t.Fatalf("canonical order wrong: %+v", got)
	}
}

func TestCopyIndependent(t *testing.T) {
	a := NewSet(e("1", 1))
	c := a.Copy()
	c.Add(e("2", 2))
	if a.Len() != 1 {
		t.Fatal("Copy shares storage")
	}
	if !a.Equal(NewSet(e("1", 1))) {
		t.Fatal("original changed")
	}
}

func TestEqual(t *testing.T) {
	a := NewSet(e("1", 1), e("2", 2))
	b := NewSet(e("2", 2), e("1", 1))
	if !a.Equal(b) {
		t.Fatal("same entries, different insertion order: must be Equal")
	}
	b.Add(e("3", 3))
	if a.Equal(b) {
		t.Fatal("different sizes must not be Equal")
	}
	c := NewSet(e("1", 1), Entry{ID: "2", Kind: "different", At: 2})
	if a.Equal(c) {
		t.Fatal("same IDs but different payloads must not be Equal")
	}
}

func TestFold(t *testing.T) {
	s := NewSet(
		Entry{ID: "1", Kind: "credit", Arg: 100, At: 1},
		Entry{ID: "2", Kind: "debit", Arg: 30, At: 2},
	)
	bal := Fold(s, int64(0), func(acc int64, e Entry) int64 {
		if e.Kind == "credit" {
			return acc + e.Arg
		}
		return acc - e.Arg
	})
	if bal != 70 {
		t.Fatalf("folded balance = %d, want 70", bal)
	}
}

// randomSet builds a random set drawing IDs from a small pool so overlap
// between sets is common. The payload of an entry is a pure function of
// its ID — the system invariant uniquifiers guarantee ("the payee and
// amount for a specific check are immutable", §6.2) — so two sets can
// share IDs but never disagree about what an ID means.
func randomSet(r *rand.Rand) *Set {
	s := NewSet()
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		c := rune('a' + r.Intn(10))
		s.Add(Entry{ID: uniq.ID(string(c)), Kind: "k", At: sim.Time(int64(c) % 5)})
	}
	return s
}

func TestPropUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		ab := a.Copy()
		ab.Union(b)
		ba := b.Copy()
		ba.Union(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomSet(r), randomSet(r), randomSet(r)
		left := a.Copy()
		left.Union(b)
		left.Union(c)
		bc := b.Copy()
		bc.Union(c)
		right := a.Copy()
		right.Union(bc)
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r)
		aa := a.Copy()
		aa.Union(a)
		return aa.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropFoldOrderInsensitive is the paper's §7.6 claim verbatim:
// replicas that have seen the same ops derive the same state no matter the
// order the ops arrived in.
func TestPropFoldOrderInsensitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		entries := randomSet(r).Entries()
		a, b := NewSet(), NewSet()
		for _, e := range entries {
			a.Add(e)
		}
		perm := r.Perm(len(entries))
		for _, i := range perm {
			b.Add(entries[i])
		}
		sum := func(acc int64, e Entry) int64 { return acc*31 + int64(e.At) }
		return Fold(a, 0, sum) == Fold(b, 0, sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// canonical returns the reference's entries sorted from scratch.
func canonical(ref map[uniq.ID]Entry) []Entry {
	all := make([]Entry, 0, len(ref))
	for _, e := range ref {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Mark().Less(all[j].Mark()) })
	return all
}

// TestSetMatchesMapAndSortModel drives Add and AddAll with duplicates and
// out-of-order batches against the obvious reference — a map keyed by ID
// (first write wins) sorted from scratch — and checks every read the set
// offers after each step. The set holds its entries once, in canonical
// order, beside a bare ID index; this is the invariant every checkpointed
// fold, Converged and Copy depend on.
func TestSetMatchesMapAndSortModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		draw := func() Entry {
			return Entry{
				ID:  uniq.ID(string(rune('a' + r.Intn(26)))),
				Lam: uint64(r.Intn(5)),
				At:  sim.Time(r.Intn(5)),
			}
		}
		s := NewSet()
		ref := map[uniq.ID]Entry{}
		for step := 0; step < 12; step++ {
			if r.Intn(2) == 0 {
				e := draw()
				_, dup := ref[e.ID]
				if s.Add(e) == dup {
					return false
				}
				if !dup {
					ref[e.ID] = e
				}
			} else {
				batch := make([]Entry, r.Intn(8))
				var fresh []Entry
				for i := range batch {
					batch[i] = draw()
					if _, dup := ref[batch[i].ID]; !dup {
						ref[batch[i].ID] = batch[i]
						fresh = append(fresh, batch[i])
					}
				}
				// AddAll returns the new entries in arrival order.
				if added := s.AddAll(batch); !slices.Equal(added, fresh) {
					return false
				}
			}
			want := canonical(ref)
			if s.Len() != len(want) || !slices.Equal(s.Entries(), want) {
				return false
			}
			for c := 'a'; c <= 'z'; c++ {
				id := uniq.ID(string(c))
				if _, in := ref[id]; s.Contains(id) != in {
					return false
				}
			}
			// Suffixes: from genesis, from a mark that may fall between
			// entries, and from a present entry's own mark.
			marks := []Watermark{{}, draw().Mark()}
			if len(want) > 0 {
				marks = append(marks, want[r.Intn(len(want))].Mark())
			}
			for _, w := range marks {
				i := sort.Search(len(want), func(i int) bool { return w.Less(want[i].Mark()) })
				if !slices.Equal(s.EntriesAfter(w), want[i:]) || !slices.Equal(s.ViewAfter(w), want[i:]) {
					return false
				}
			}
			c := s.Copy()
			if !c.Equal(s) || !s.Equal(c) || !slices.Equal(c.Entries(), want) {
				return false
			}
			extra := Entry{ID: "copy-only", Lam: 2}
			if !c.Add(extra) || c.Add(extra) || s.Contains(extra.ID) || c.Equal(s) || s.Len() != len(want) {
				return false // the copy's index and entries are its own
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWatermarkOrder(t *testing.T) {
	var zero Watermark
	if !zero.IsZero() {
		t.Fatal("zero watermark not IsZero")
	}
	a := Entry{ID: "a", Lam: 1, At: 2}
	if !zero.Before(a) {
		t.Fatal("genesis watermark must sort before every real entry")
	}
	if a.Mark().Before(a) {
		t.Fatal("an entry is not after its own mark")
	}
	b := Entry{ID: "b", Lam: 1, At: 2} // same (Lam, At), later ID
	if !a.Mark().Before(b) || b.Mark().Before(a) {
		t.Fatal("ID tie-break wrong")
	}
	c := Entry{ID: "0", Lam: 2} // higher Lamport outranks earlier At/ID
	if !b.Mark().Before(c) {
		t.Fatal("Lamport must dominate the order")
	}
}

func TestEntriesAfter(t *testing.T) {
	s := NewSet(
		Entry{ID: "a", Lam: 1},
		Entry{ID: "b", Lam: 2},
		Entry{ID: "c", Lam: 3},
	)
	if got := s.EntriesAfter(Watermark{}); len(got) != 3 {
		t.Fatalf("genesis watermark returned %d entries, want 3", len(got))
	}
	got := s.EntriesAfter(Entry{ID: "a", Lam: 1}.Mark())
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "c" {
		t.Fatalf("EntriesAfter(a) = %+v", got)
	}
	if got := s.EntriesAfter(Entry{ID: "c", Lam: 3}.Mark()); got != nil {
		t.Fatalf("EntriesAfter(last) = %+v, want nil", got)
	}
	// A watermark between positions (no entry carries it) still splits
	// correctly.
	got = s.EntriesAfter(Watermark{Lam: 2, At: 0, ID: "zzz"})
	if len(got) != 1 || got[0].ID != "c" {
		t.Fatalf("EntriesAfter(between) = %+v", got)
	}
}

// TestEntriesAfterSeesLateInsertions pins the contract the fold cache in
// core relies on: an entry that sorts behind a watermark does NOT show up
// in EntriesAfter(watermark) — the consumer must detect it via
// Watermark.Before at Add time and rewind.
func TestEntriesAfterSeesLateInsertions(t *testing.T) {
	s := NewSet(Entry{ID: "b", Lam: 5})
	w := Entry{ID: "b", Lam: 5}.Mark()
	late := Entry{ID: "a", Lam: 1}
	s.Add(late)
	if w.Before(late) {
		t.Fatal("late entry should sort behind the watermark")
	}
	if got := s.EntriesAfter(w); len(got) != 0 {
		t.Fatalf("late insertion leaked into EntriesAfter: %+v", got)
	}
	if es := s.Entries(); es[0].ID != "a" || es[1].ID != "b" {
		t.Fatalf("full order wrong after late insert: %+v", es)
	}
}

func TestEntriesReturnsCopy(t *testing.T) {
	s := NewSet(e("a", 1), e("b", 2))
	got := s.Entries()
	got[0].Kind = "mutated"
	if fresh := s.Entries(); fresh[0].Kind != "op" {
		t.Fatal("Entries exposed internal storage")
	}
}

func TestMaxLam(t *testing.T) {
	s := NewSet()
	if s.MaxLam() != 0 {
		t.Fatal("empty set MaxLam != 0")
	}
	s.Add(Entry{ID: "a", Lam: 3})
	s.Add(Entry{ID: "b", Lam: 7})
	s.Add(Entry{ID: "c", Lam: 5})
	if s.MaxLam() != 7 {
		t.Fatalf("MaxLam = %d", s.MaxLam())
	}
}

// TestEntriesAfterWatermarkEdges pins the three boundary behaviours the
// fold checkpoint leans on: the genesis watermark yields everything, the
// watermark of the newest entry yields nothing, and a gossip insert that
// ties the watermark on (Lam, At) is classified purely by the ID
// tie-break — behind the watermark when its ID sorts lower, beyond it
// when higher.
func TestEntriesAfterWatermarkEdges(t *testing.T) {
	s := NewSet(
		Entry{ID: "m", Lam: 4, At: 9},
		Entry{ID: "t", Lam: 7, At: 2},
	)
	// Genesis: every entry, even before any fold has happened.
	if got := s.EntriesAfter(Watermark{}); len(got) != 2 {
		t.Fatalf("genesis EntriesAfter = %d entries, want 2", len(got))
	}
	// At the exact watermark entry: the entry itself is excluded — it is
	// already folded — and only strictly later entries remain.
	w := Entry{ID: "m", Lam: 4, At: 9}.Mark()
	if got := s.EntriesAfter(w); len(got) != 1 || got[0].ID != "t" {
		t.Fatalf("EntriesAfter(exact mark) = %+v, want just t", got)
	}
	if got := s.EntriesAfter(Entry{ID: "t", Lam: 7, At: 2}.Mark()); got != nil {
		t.Fatalf("EntriesAfter(newest mark) = %+v, want nil", got)
	}

	// Two inserts tie the watermark on (Lam, At) exactly; only the ID
	// decides which side of the fold they land on.
	behind := Entry{ID: "a", Lam: 4, At: 9} // "a" < "m"
	beyond := Entry{ID: "z", Lam: 4, At: 9} // "z" > "m"
	s.Add(behind)
	s.Add(beyond)
	if w.Before(behind) {
		t.Fatal("lower-ID tie must sort behind the watermark (consumer rewinds)")
	}
	if !w.Before(beyond) {
		t.Fatal("higher-ID tie must sort beyond the watermark (incremental fold)")
	}
	got := s.EntriesAfter(w)
	if len(got) != 2 || got[0].ID != "z" || got[1].ID != "t" {
		t.Fatalf("EntriesAfter after tied inserts = %+v, want [z t]", got)
	}
	// And the full canonical order interleaves the tie by ID.
	es := s.Entries()
	want := []uniq.ID{"a", "m", "z", "t"}
	for i, id := range want {
		if es[i].ID != id {
			t.Fatalf("canonical order = %v, want %v", es, want)
		}
	}
}

func TestJournalAppendSinceLen(t *testing.T) {
	var j Journal
	if j.Len() != 0 || j.Retained() != 0 || j.Base() != 0 {
		t.Fatal("zero journal not empty")
	}
	if got := j.Since(0); got != nil {
		t.Fatalf("Since on empty journal = %+v", got)
	}
	for i := 0; i < 5; i++ {
		j.Append(e(string(rune('a'+i)), int64(i)))
	}
	if j.Len() != 5 || j.Retained() != 5 {
		t.Fatalf("Len/Retained = %d/%d, want 5/5", j.Len(), j.Retained())
	}
	got := j.Since(2)
	if len(got) != 3 || got[0].ID != "c" || got[2].ID != "e" {
		t.Fatalf("Since(2) = %+v", got)
	}
	// Since returns a copy, not a window into the journal.
	got[0].Kind = "mutated"
	if j.Since(2)[0].Kind != "op" {
		t.Fatal("Since exposed internal storage")
	}
}

func TestJournalTruncate(t *testing.T) {
	var j Journal
	for i := 0; i < 6; i++ {
		j.Append(e(string(rune('a'+i)), int64(i)))
	}
	j.TruncateTo(4)
	if j.Base() != 4 || j.Retained() != 2 || j.Len() != 6 {
		t.Fatalf("after TruncateTo(4): base=%d retained=%d len=%d", j.Base(), j.Retained(), j.Len())
	}
	if got := j.Since(4); len(got) != 2 || got[0].ID != "e" {
		t.Fatalf("Since(4) after truncation = %+v", got)
	}
	// Absolute positions keep counting across the truncation.
	j.Append(e("g", 6))
	if j.Len() != 7 || j.Since(6)[0].ID != "g" {
		t.Fatalf("append after truncation broke positions: len=%d", j.Len())
	}
	// Truncating backwards or to the current base is a no-op.
	j.TruncateTo(2)
	j.TruncateTo(4)
	if j.Base() != 4 || j.Retained() != 3 {
		t.Fatalf("backwards truncation moved the base: base=%d retained=%d", j.Base(), j.Retained())
	}
	// Truncating past the end clamps and empties the journal.
	j.TruncateTo(100)
	if j.Base() != 7 || j.Retained() != 0 || j.Len() != 7 {
		t.Fatalf("clamped truncation wrong: base=%d retained=%d len=%d", j.Base(), j.Retained(), j.Len())
	}
}

func TestJournalSinceTruncatedPanics(t *testing.T) {
	var j Journal
	for i := 0; i < 4; i++ {
		j.Append(e(string(rune('a'+i)), int64(i)))
	}
	j.TruncateTo(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Since inside the truncated prefix must panic, not serve a short suffix")
		}
	}()
	j.Since(1)
}

func TestCanonicalOrderLamportFirst(t *testing.T) {
	// Lamport order outranks wall time and ID: a causally later op with
	// an "earlier" ID still folds last.
	s := NewSet(
		Entry{ID: "z-first", Lam: 1, At: 10},
		Entry{ID: "a-second", Lam: 2, At: 5}, // earlier wall time, later cause
	)
	es := s.Entries()
	if es[0].ID != "z-first" || es[1].ID != "a-second" {
		t.Fatalf("order = %v", []uniq.ID{es[0].ID, es[1].ID})
	}
}

// TestUnionInterleavedStaysCanonical unions two large sets whose entries
// interleave in canonical order — the worst case for inserting one entry
// at a time — and checks the result against the sort-from-scratch oracle.
func TestUnionInterleavedStaysCanonical(t *testing.T) {
	const n = 20000
	a, b := NewSet(), NewSet()
	ref := map[uniq.ID]Entry{}
	for i := 0; i < 2*n; i++ {
		e := Entry{ID: uniq.ID(fmt.Sprintf("op-%06d", i)), Kind: "k", Lam: uint64(i / 3), At: sim.Time(i % 7)}
		ref[e.ID] = e
		if i%2 == 0 {
			a.Add(e)
		} else {
			b.Add(e)
		}
	}
	if got := a.Union(b); got != n {
		t.Fatalf("Union added %d, want %d", got, n)
	}
	if got := a.Union(b); got != 0 {
		t.Fatalf("second Union added %d, want 0", got)
	}
	if b.Len() != n {
		t.Fatalf("Union changed its argument: Len = %d, want %d", b.Len(), n)
	}
	if !slices.Equal(a.Entries(), canonical(ref)) {
		t.Fatal("Entries() after an interleaved union is not the canonical sort of the union")
	}
}

// TestSetBytesPerEntry budgets the heap a Set holds per entry, measured
// the way bench/micro.go measures oplog.set_bytes_per_entry: HeapAlloc
// across NewSet over entries whose strings already live elsewhere. One
// 88-byte Entry in the canonical slice plus one string header in the ID
// index fit in 160 B with room for both containers' growth slack; a
// second copy of the entry anywhere does not.
func TestSetBytesPerEntry(t *testing.T) {
	const n = 100000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{
			ID:   uniq.ID(fmt.Sprintf("r%d-%06d", i%3, i)),
			Kind: "deposit",
			Key:  fmt.Sprintf("acct-%d", i%1024),
			Arg:  int64(1 + i%100),
			Lam:  uint64(i + 1),
			At:   sim.Time(i),
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSet(entries...)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(s.Len())
	t.Logf("%.1f B/entry over %d entries", perEntry, s.Len())
	if perEntry > 160 {
		t.Fatalf("Set holds %.1f B/entry, budget 160", perEntry)
	}
	runtime.KeepAlive(entries)
}
