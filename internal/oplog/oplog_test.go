package oplog

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/testenv"
	"repro/internal/uniq"
)

func e(id string, at int64) Entry {
	return Entry{ID: uniq.ID(id), Kind: "op", Key: "k", Arg: 1, At: time.Duration(at)}
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
		s.Add(Entry{ID: uniq.ID(string(c)), Kind: "k", At: time.Duration(int64(c) % 5)})
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

// entriesAfter walks s from Start(w), the read a checkpointed fold
// makes, and returns the entries it reads, nil when there are none.
func entriesAfter(s *Set, w Watermark) []Entry {
	var out []Entry
	var e Entry
	for c := s.Cursor(s.Start(w)); c.Next(&e); {
		out = append(out, e)
	}
	return out
}

// entryAt reads the entry at position i through a Cursor started there.
func entryAt(s *Set, i int) (e Entry) {
	c := s.Cursor(i)
	c.Next(&e)
	return e
}

// ledgerJournal is n entries from three origins in arrival order, as a
// recovering replica's journal holds them: the first origin's in Lamport
// order, the other two's up to 8 ticks late, as gossip delivers them.
func ledgerJournal(n int) []Entry {
	rng := rand.New(rand.NewSource(400))
	out := make([]Entry, n)
	for i := range out {
		origin := i % 3
		lam := uint64(i/3*3 + 9)
		if origin > 0 {
			lam -= uint64(rng.Intn(9))
		}
		out[i] = Entry{
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

// healJournal is n entries as a replica's journal holds them after a
// partition heals: its own n/2, then its peer's n/2, stamped over the
// same stretch of Lamport time, so the second half lands below the
// first.
func healJournal(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		origin, k := i/(n/2), i%(n/2)
		out[i] = Entry{
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

// TestNewSetBulkLoad: NewSet, the bulk load every replay of a journal
// goes through, builds the set Add builds from a recovering replica's
// journal, from a heal's, whose second half lands more than a tail deep,
// and from a shuffle; the first copy of an ID wins, and no merge scratch
// is kept. The heal costs one merge, not a thaw per entry: four times the
// journal allocates at most 4.5 times as often. A journal that lands near
// its end settles as it goes, so its tail seals as it fills and is never
// held whole: 400k entries allocate at most 32 bytes each.
func TestNewSetBulkLoad(t *testing.T) {
	dup := func(entries []Entry, i int) []Entry { // the i-th ID again, with another payload
		e := entries[i]
		e.Arg++
		return append(entries, e)
	}
	shuffle := ledgerJournal(6000)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffle), func(i, j int) { shuffle[i], shuffle[j] = shuffle[j], shuffle[i] })
	for _, tc := range []struct {
		name    string
		entries []Entry
	}{
		{"ledger", dup(ledgerJournal(30_000), 7)},
		{"heal", dup(healJournal(2*3*rowChunk), 3*rowChunk+5)},
		{"shuffle", dup(shuffle, 11)},
	} {
		s := NewSet(tc.entries...)
		ref := NewSet()
		order := tc.entries
		if tc.name == "heal" {
			// Added in arrival order, each entry of the second half would
			// thaw the blocks behind it: the reference adds in canonical
			// order, keeping the first copy of each ID.
			order = slices.Clone(order)
			slices.SortStableFunc(order, func(a, b Entry) int { return strings.Compare(string(a.ID), string(b.ID)) })
			order = slices.CompactFunc(order, func(a, b Entry) bool { return a.ID == b.ID })
			slices.SortFunc(order, byMark)
		}
		for _, e := range order {
			ref.Add(e)
		}
		if !s.Equal(ref) || !ref.Equal(s) || s.Len() != len(tc.entries)-1 {
			t.Fatalf("%s: NewSet of %d entries (one a duplicate) holds %d and differs from the set Add builds", tc.name, len(tc.entries), s.Len())
		}
		if cap(s.fresh) != 0 {
			t.Fatalf("%s: NewSet keeps %d rows of merge scratch", tc.name, cap(s.fresh))
		}
	}

	mallocs := func(entries []Entry) (n, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := NewSet(entries...)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	const n = 2 * rowChunk
	small, _ := mallocs(healJournal(n))
	large, _ := mallocs(healJournal(4 * n))
	t.Logf("a heal's journal: %d allocations at %d entries, %d at %d", small, n, large, 4*n)
	if float64(large) > 4.5*float64(small) {
		t.Errorf("NewSet of a heal's journal allocates %d times at %d entries and %d at %d, %.1f×; want at most 4.5×", small, n, large, 4*n, float64(large)/float64(small))
	}
	const big = 400_000
	_, bytes := mallocs(ledgerJournal(big))
	t.Logf("a recovering journal: %.1f bytes an entry at %d entries", float64(bytes)/big, big)
	if float64(bytes)/big > 32 {
		t.Errorf("NewSet of a %d-entry recovering journal allocates %.1f bytes an entry, want at most 32", big, float64(bytes)/big)
	}
}

func TestEntriesAfter(t *testing.T) {
	s := NewSet(
		Entry{ID: "a", Lam: 1},
		Entry{ID: "b", Lam: 2},
		Entry{ID: "c", Lam: 3},
	)
	if got := entriesAfter(s, Watermark{}); len(got) != 3 {
		t.Fatalf("genesis watermark returned %d entries, want 3", len(got))
	}
	got := entriesAfter(s, Entry{ID: "a", Lam: 1}.Mark())
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "c" {
		t.Fatalf("EntriesAfter(a) = %+v", got)
	}
	if got := entriesAfter(s, Entry{ID: "c", Lam: 3}.Mark()); got != nil {
		t.Fatalf("EntriesAfter(last) = %+v, want nil", got)
	}
	// A watermark between positions (no entry carries it) still splits
	// correctly.
	got = entriesAfter(s, Watermark{Lam: 2, At: 0, ID: "zzz"})
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
	if got := entriesAfter(s, w); len(got) != 0 {
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
	if got := entriesAfter(s, Watermark{}); len(got) != 2 {
		t.Fatalf("genesis EntriesAfter = %d entries, want 2", len(got))
	}
	// At the exact watermark entry: the entry itself is excluded — it is
	// already folded — and only strictly later entries remain.
	w := Entry{ID: "m", Lam: 4, At: 9}.Mark()
	if got := entriesAfter(s, w); len(got) != 1 || got[0].ID != "t" {
		t.Fatalf("EntriesAfter(exact mark) = %+v, want just t", got)
	}
	if got := entriesAfter(s, Entry{ID: "t", Lam: 7, At: 2}.Mark()); got != nil {
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
	got := entriesAfter(s, w)
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
	if got := j.Since(0, math.MaxInt); got != nil {
		t.Fatalf("Since on empty journal = %+v", got)
	}
	for i := 0; i < 5; i++ {
		j.Append(e(string(rune('a'+i)), int64(i)))
	}
	if j.Len() != 5 || j.Retained() != 5 {
		t.Fatalf("Len/Retained = %d/%d, want 5/5", j.Len(), j.Retained())
	}
	got := j.Since(2, math.MaxInt)
	if len(got) != 3 || got[0].ID != "c" || got[2].ID != "e" {
		t.Fatalf("Since(2) = %+v", got)
	}
	// Since returns a copy, not a window into the journal.
	got[0].Kind = "mutated"
	if j.Since(2, math.MaxInt)[0].Kind != "op" {
		t.Fatal("Since exposed internal storage")
	}
}

// TestJournalSinceBudget: Since serves the longest prefix of the suffix
// whose EntrySize sum fits the budget, and one entry however large.
func TestJournalSinceBudget(t *testing.T) {
	var j Journal
	for i := 0; i < 6; i++ {
		j.Append(e(string(rune('a'+i)), int64(i)))
	}
	size := EntrySize(j.Since(0, 0)[0])
	for _, c := range []struct{ from, budget, want int }{
		{0, 0, 1},
		{0, size - 1, 1},
		{0, size, 1},
		{0, 3*size + size/2, 3},
		{2, 2 * size, 2},
		{4, 100 * size, 2},
	} {
		got := j.Since(c.from, c.budget)
		if len(got) != c.want || string(got[0].ID) != string(rune('a'+c.from)) {
			t.Errorf("Since(%d, %d) = %d entries from %q, want %d from %q", c.from, c.budget, len(got), got[0].ID, c.want, string(rune('a'+c.from)))
		}
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
	if got := j.Since(4, math.MaxInt); len(got) != 2 || got[0].ID != "e" {
		t.Fatalf("Since(4) after truncation = %+v", got)
	}
	// Absolute positions keep counting across the truncation.
	j.Append(e("g", 6))
	if j.Len() != 7 || j.Since(6, math.MaxInt)[0].ID != "g" {
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
	j.Since(1, math.MaxInt)
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
		e := Entry{ID: uniq.ID(fmt.Sprintf("op-%06d", i)), Kind: "k", Lam: uint64(i / 3), At: time.Duration(i % 7)}
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

// TestSetCarriesAnyStrings: what goes into the arena comes back byte for
// byte, whatever its length and bytes and wherever in a chunk it lands —
// and stays so while the set grows and is copied, because an entry read
// from a set shares the set's bytes instead of owning its own.
func TestSetCarriesAnyStrings(t *testing.T) {
	ref := map[uniq.ID]Entry{}
	s := NewSet()
	add := func(e Entry) {
		t.Helper()
		e.Lam = uint64(len(ref) + 1)
		if !s.Add(e) || s.Add(e) {
			t.Fatalf("Add(%q) did not add exactly once", e.ID)
		}
		ref[e.ID] = e
	}
	add(Entry{ID: "empty"})
	add(Entry{ID: "\xff\xfe\x00id", Kind: "\xc3\x28", Key: "\x80key\x00", Note: "\xed\xa0\x80"})
	add(Entry{ID: "100KiB", Kind: "memo", Key: "k", Note: strings.Repeat("n", 100<<10)}) // longer than a chunk: one of its own
	for _, n := range []int{127, 128, 16383, 16384, chunkSpan - 16, chunkSpan} {         // each side of a length prefix growing a byte; a record of a whole chunk
		add(Entry{ID: uniq.ID(fmt.Sprintf("key-%d", n)), Kind: "memo", Key: strings.Repeat("k", n)})
	}
	early := s.Entries()
	wantEarly := canonical(ref)
	// Small records until several chunks are full, a record too long for
	// what is left of the open chunk every so often (it must move whole to
	// the next: a record never straddles two), and more distinct payloads
	// than the payload table admits.
	for i := 0; i <= 1<<16; i++ {
		e := Entry{ID: uniq.ID(fmt.Sprintf("op-%d", i)), Kind: fmt.Sprintf("kind-%d", i), Key: fmt.Sprintf("acct-%d", i%1024)}
		if i%1000 == 999 {
			e.Note = strings.Repeat("x", 3000+i%5000)
		}
		add(e)
	}
	if !slices.Equal(early, wantEarly) {
		t.Fatal("entries read from the set changed as it grew")
	}
	c := s.Copy()
	copyOnly := Entry{ID: "copy-only", Kind: "memo", Note: strings.Repeat("c", 70<<10), Lam: uint64(len(ref) + 1)}
	c.Add(copyOnly)
	add(Entry{ID: "original-only", Kind: "memo", Note: strings.Repeat("o", 70<<10)})
	want := canonical(ref)
	if !slices.Equal(s.Entries(), want) {
		t.Fatal("Entries() differs from what was added")
	}
	cwant := append(slices.Clone(want[:len(want)-1]), copyOnly)
	if !slices.Equal(c.Entries(), cwant) {
		t.Fatal("a copy that went its own way differs from what was added to it")
	}
	for id := range ref {
		if !s.Contains(id) {
			t.Fatalf("Contains(%q) = false", id)
		}
	}
}

// heapPerEntry reports the heap a Set of n entries holds per entry, and
// the part of it the collector has to scan. The set is built one Add at a
// time, as a replica builds its own, and the heap read the way
// bench/micro.go reads oplog.set_bytes_per_entry: HeapAlloc across the
// build; payloads is the payload table's share of it. With kept false the
// entries and their strings are dropped before the second reading: the set
// is then the only holder of anything it needs.
func heapPerEntry(t *testing.T, n int, kept bool, mk func(i int) Entry) (bytes, scannable, payloads float64) {
	t.Helper()
	scan := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	read := func() (heap, scannable uint64) {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		metrics.Read(scan)
		return m.HeapAlloc, scan[0].Value.Uint64()
	}
	fill := func() []Entry {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = mk(i)
		}
		return entries
	}
	build := func(entries []Entry) *Set {
		s := NewSet()
		for _, e := range entries {
			s.Add(e)
		}
		return s
	}
	var entries []Entry
	if kept {
		entries = fill()
	}
	heap0, scan0 := read()
	var s *Set
	if kept {
		s = build(entries)
	} else {
		s = func() *Set { return build(fill()) }() // a frame of its own: nothing of it outlives the call
	}
	heap1, scan1 := read()
	per := func(n int) float64 { return float64(n) / float64(s.Len()) }
	bytes, scannable, payloads = per(int(heap1-heap0)), per(int(scan1-scan0)), per(5*len(s.pays.tags))
	rows := cap(s.rows)*int(unsafe.Sizeof(s.rows[0])) + cap(s.blocks)*int(unsafe.Sizeof(block{}))
	for _, ch := range s.rows {
		rows += cap(ch) * int(unsafe.Sizeof(row{}))
	}
	sealed := 0
	for _, b := range s.blocks {
		sealed += cap(b.data)
	}
	spans := 0
	for _, o := range s.runs.byNode {
		spans += cap(o.spans) * int(unsafe.Sizeof(span{}))
	}
	t.Logf("%.1f B/entry over %d entries (tail rows %.1f, blocks %.1f, ID runs %.1f in %d runs of %d origins, ID table %.1f, payload table %.1f, the rest arena), %.1f B of it scannable",
		bytes, s.Len(), per(rows), per(sealed), per(spans), s.runs.n, len(s.runs.byNode), per(5*len(s.idTable.tags)), payloads, scannable)
	runtime.KeepAlive(entries)
	return bytes, scannable, payloads
}

// TestSetBytesPerEntry budgets the heap a Set holds per entry, strings
// included: the set holds its own copy. When payloads repeat, as a kind ×
// key vocabulary does, an entry is its row — sealed into a block, some 6
// to 7 bytes of deltas, in an allocation the heap rounds up to its size
// class, unless it is among the newest, whose three 128 KiB chunks of
// 32-byte rows cost about 4 B an entry over these 100 000 — and its ID,
// whose cost depends on the IDs' shape. An ID the runs hold costs a
// sealed row a byte or two of its block, the ordinal of its origin and
// its number, and nothing in an arena: only the newest rows' IDs are
// bytes, in the ids arena's two or three live 64 KiB chunks, about 2 B an
// entry here. Any other ID is bytes for good, with their length byte, in
// the kept arena, and a slot of the ID table:
//   - consecutive numbers per node, as replicas mint them, stamped by
//     three replica clocks a few ops apart, so that At falls from one row
//     to the next two times in three: a few runs for the whole set, and a
//     byte of block a row, so 14 B;
//   - every node every third number, which never makes a run: the runs
//     stop admitting at one per 32 rows, and the rest take a five-byte
//     slot of the ID table at 7/16 to 7/8 load, so 29 B;
//   - SDK sessions' IDs, an 11-character session name and its numbers,
//     nine bytes longer than a replica's, which a sealed row no longer
//     spends: two sessions in order, or one session whose 16 callers
//     overtake one another inside every 16 numbers — a number up to 15
//     from the last, two bytes of block — are a run each, so 15 B;
//   - 5 000 short sessions of 20 ops, as CLI invocations leave them: only
//     the first origins get runs (16 + rows/256 are admitted), and the rest
//     take the ID table, so 38 B;
//   - random IDs, "cli-" and 24 hex digits, which are not minted: the ID
//     table and the longer ID, so 48 B.
//
// A string header per entry anywhere fits none of these. The last case is
// the daemon's shape with payloads that never repeat — every entry's
// strings its own allocation, nothing else keeping them — where each entry
// writes its own payload record, Kind included, and the payload table,
// which such input never hits, stops admitting at an eighth of the rows:
// it holds under 2 B an entry, and the whole set under 60 B.
func TestSetBytesPerEntry(t *testing.T) {
	const n = 100000
	session := func(k int) string { return fmt.Sprintf("%011x", uint64(k+1)*0x9e3779b97f4a7c15>>20) }
	overtaken := make([]int, n) // 0..n-1, each window of 16 in a seeded random order
	r := rand.New(rand.NewSource(16))
	for w := 0; w < n; w += 16 {
		for j, p := range r.Perm(min(16, n-w)) {
			overtaken[w+j] = w + p
		}
	}
	clocks := [3]time.Duration{0, -5 * time.Microsecond, 3 * time.Microsecond} // three replicas' clocks, a few ops apart
	for _, c := range []struct {
		name   string
		budget float64
		id     func(i int) string
		at     func(i int) time.Duration
	}{
		{"consecutive numbers per node", 14, func(i int) string { return fmt.Sprintf("r%d-%06d", i%3, i/3) }, func(i int) time.Duration { return time.Duration(i)*time.Microsecond + clocks[i%3] }},
		{"every node every third number", 29, func(i int) string { return fmt.Sprintf("r%d-%06d", i%3, i) }, nil},
		{"two SDK sessions in order", 15, func(i int) string { return string(uniq.AppendID(nil, session(i%2), uint64(i/2+1))) }, nil},
		{"one SDK session, 16 callers overtaking", 15, func(i int) string { return string(uniq.AppendID(nil, session(0), uint64(overtaken[i]+1))) }, nil},
		{"5000 SDK sessions of 20 ops", 38, func(i int) string { return string(uniq.AppendID(nil, session(i/20), uint64(i%20+1))) }, nil},
		{"random SDK IDs", 48, func(i int) string { return fmt.Sprintf("cli-%024x", uint64(i)*0x9e3779b97f4a7c15) }, nil},
	} {
		bytes, scannable, _ := heapPerEntry(t, n, true, func(i int) Entry {
			e := Entry{
				ID:   uniq.ID(c.id(i)),
				Kind: "deposit",
				Key:  fmt.Sprintf("acct-%d", i%1024),
				Arg:  int64(1 + i%100),
				Lam:  uint64(i + 1),
				At:   time.Duration(i),
			}
			if c.at != nil {
				e.At = c.at(i)
			}
			return e
		})
		if bytes > c.budget || scannable > 1 {
			t.Errorf("Set holds %.1f B/entry of repeated payloads with %s, %.1f B of it scannable; budget %.0f and 1", bytes, c.name, scannable, c.budget)
		}
	}
	bytes, scannable, payloads := heapPerEntry(t, n, false, func(i int) Entry {
		return Entry{
			ID:   uniq.ID(fmt.Sprintf("r%d-%06d", i%3, i)),
			Kind: strings.Clone("deposit"),
			Key:  fmt.Sprintf("acct-%07d", i),
			Note: fmt.Sprintf("memo %d", i),
			Arg:  int64(1 + i%100),
			Lam:  uint64(i + 1),
			At:   time.Duration(i),
		}
	})
	if bytes > 60 || scannable > 1 || payloads > 2 {
		t.Errorf("Set holds %.1f B/entry of payloads that never repeat, %.1f B of it scannable and %.1f B the payload table; budget 60, 1 and 2", bytes, scannable, payloads)
	}
}

// TestRunsWindowBoundsHostileOrder: one node's numbers 1..100 000, the odd
// ones descending and then the even ones ascending, is the order in which
// every number would open a run before all the others, shifting the whole
// array, and every even one would then join two. A number opens or joins
// runs only among its node's last runWindow runs, so the node never holds
// more than runWindow+1 runs — no Add moves more than runWindow of them —
// the numbers below the window go to the ID table, and the even numbers
// inside it join the window's runs into one. Another node's odd numbers
// ascending are runWindow+11 runs; its even ones then leave the ten gaps
// below the window open and join the rest of the runs into one.
func TestRunsWindowBoundsHostileOrder(t *testing.T) {
	const n = 100000
	s := NewSet()
	var buf [32]byte
	add := func(node string, seq int) {
		t.Helper()
		if !s.Add(Entry{ID: uniq.ID(uniq.AppendID(buf[:0], node, uint64(seq))), Kind: "deposit", Key: "k", Lam: uint64(s.Len() + 1)}) {
			t.Fatalf("Add of %s's number %d reported a duplicate", node, seq)
		}
	}
	for seq := n - 1; seq > 0; seq -= 2 {
		add("hostile", seq)
		if held := len(s.runs.byNode["hostile"].spans); held > runWindow+1 {
			t.Fatalf("after number %d the node holds %d runs, want at most %d", seq, held, runWindow+1)
		}
	}
	if held := len(s.runs.byNode["hostile"].spans); held != runWindow+1 {
		t.Fatalf("the odd numbers descending left %d runs, want the window's %d", held, runWindow+1)
	}
	for seq := 2; seq <= n; seq += 2 {
		add("hostile", seq)
	}
	if lo := uint64(n - 2*runWindow - 2); !slices.Equal(s.runs.byNode["hostile"].spans, []span{{lo, n}}) {
		t.Fatalf("the even numbers left runs %v, want the window's joined into one, [%d, %d]", s.runs.byNode["hostile"].spans, lo, n)
	}
	for seq := 1; seq <= n; seq++ {
		if !s.Contains(uniq.ID(uniq.AppendID(buf[:0], "hostile", uint64(seq)))) {
			t.Fatalf("number %d is missing", seq)
		}
	}

	const climbed = runWindow + 11
	for seq := 1; seq < 2*climbed; seq += 2 {
		add("climber", seq)
	}
	for seq := 2; seq < 2*climbed; seq += 2 {
		add("climber", seq)
	}
	if held := len(s.runs.byNode["climber"].spans); held != 11 {
		t.Fatalf("the climber's runs are %v, want its first ten apart and the rest joined into one", s.runs.byNode["climber"].spans)
	}
	checkRuns(t, 0, &s.runs)
}

// TestSetGrowth: a set built one Add at a time allocates little more than
// it keeps. Row chunks are allocated whole and never copied, and arena
// chunks are never reallocated; only the two tables double, leaving their
// old arrays behind.
func TestSetGrowth(t *testing.T) {
	testenv.SkipUnderRace(t)
	const n = 1_000_000
	// Every ID is a substring of one string made up front, so the loop
	// allocates nothing but what the set does.
	const idLen = len("r0-000000")
	b := make([]byte, 0, n*idLen)
	for i := range n {
		b = uniq.AppendID(b, fmt.Sprintf("r%d", i%3), uint64(i))
	}
	ids := string(b)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct-%04d", i)
	}
	kinds := [...]string{"deposit", "withdraw"}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := NewSet()
	for i := range n {
		s.Add(Entry{ID: uniq.ID(ids[i*idLen : (i+1)*idLen]), Kind: kinds[i%2], Key: keys[i%len(keys)], Arg: 1, Lam: uint64(i + 1), At: time.Duration(i)})
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	allocated, kept := float64(m1.TotalAlloc-m0.TotalAlloc), float64(m1.HeapAlloc-m0.HeapAlloc)
	t.Logf("%.1f MiB allocated to keep %.1f MiB (%.2f×), %.1f B/entry over %d entries",
		allocated/(1<<20), kept/(1<<20), allocated/kept, kept/float64(s.Len()), s.Len())
	if allocated > 1.5*kept {
		t.Errorf("building the set allocated %.2f× what it keeps, budget 1.5×", allocated/kept)
	}
	runtime.KeepAlive(ids)
	runtime.KeepAlive(s)
}

// TestFoldIterationAllocatesNothing: a Cursor from Start materializes
// each entry on the stack from its row, or its block's deltas, and the
// arenas — a walk inside the tail costs no allocation, from genesis or
// from a mark. The IDs here are minted ones the runs hold, so a sealed
// row's ID is rendered: a walk entering a block whose rendering the
// collector has freed allocates exactly twice for it, the buffer its IDs
// are rendered into and the weak pointer that keeps them for the next
// walk, and one entering a block whose rendering is alive allocates
// nothing.
func TestFoldIterationAllocatesNothing(t *testing.T) {
	for _, size := range []int{10000, 50000} {
		s := NewSet()
		for i := range size {
			s.Add(Entry{ID: uniq.ID(fmt.Sprintf("op-%06d", i)), Kind: "deposit", Key: "acct-1", Arg: int64(i % 7), Lam: uint64(i + 1), At: time.Duration(i % 5)})
		}
		all := s.Entries()
		var marks []Watermark
		for _, from := range []int{0, 4999, size - 4097} { // genesis; mid-block in the larger set; in the tail
			var w Watermark
			if from > 0 {
				w = all[from-1].Mark()
				w.ID = uniq.ID(strings.Clone(string(w.ID))) // not a substring of a rendering
			}
			marks = append(marks, w)
		}
		all = nil
		for _, w := range marks {
			var sum, n int64
			walk := func() {
				sum, n = 0, 0
				var e Entry
				for c := s.Cursor(s.Start(w)); c.Next(&e); {
					sum += e.Arg + int64(len(e.ID)+len(e.Kind)+len(e.Key))
					n++
				}
			}
			// As testing.AllocsPerRun counts, an average over a few walks,
			// rounded down, so that an allocation of another goroutine's
			// during one walk does not count; a collection before each.
			const walks = 5
			var cold uint64
			for range walks {
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				walk()
				runtime.ReadMemStats(&m1)
				cold += m1.Mallocs - m0.Mallocs
			}
			cold /= walks
			from := s.Start(w)
			if n != int64(size-from) {
				t.Fatalf("%d entries, %d blocks: walking from Start(%+v) yielded %d entries, want %d", size, len(s.blocks), w, n, size-from)
			}
			entered := max(len(s.blocks)-from>>rowBits, 0)
			if cold != uint64(2*entered) {
				t.Errorf("%d entries, %d blocks: walking from Start(%+v) after a collection allocates %d times, want two for each of the %d blocks it enters", size, len(s.blocks), w, cold, entered)
			}
			all = s.Entries() // keeps every block's rendering alive
			if warm := testing.AllocsPerRun(10, walk); warm != 0 {
				t.Errorf("%d entries, %d blocks: walking from Start(%+v) while the renderings are alive allocates %.0f times, want none", size, len(s.blocks), w, warm)
			}
			runtime.KeepAlive(all)
			all = nil
		}
	}
}

// TestEqualTellsSealedOrigins: Equal compares a sealed row's held ID as
// its origin and number, so two sets whose sealed rows differ only in
// their IDs' origins, the runs holding both origins' numbers, are not
// Equal.
func TestEqualTellsSealedOrigins(t *testing.T) {
	const pair = rowChunk + 10 // two sealed rows whose origins trade places
	build := func(swap bool) *Set {
		s := NewSet()
		for i := range 5 * rowChunk {
			node := [2]string{"aa", "bb"}[i%2]
			if swap && i/2 == pair/2 {
				node = [2]string{"bb", "aa"}[i%2]
			}
			s.Add(Entry{ID: uniq.ID(uniq.AppendID(nil, node, uint64(i/2+1))), Kind: "k", Lam: uint64(i + 1)})
		}
		return s
	}
	a, b := build(false), build(true)
	if b.sealed() <= pair || b.runs.n != 2 {
		t.Fatalf("%d rows sealed and %d runs: the pair is not sealed, or runs do not hold every ID", b.sealed(), b.runs.n)
	}
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("sets whose sealed rows trade origins are Equal")
	}
	if !a.Equal(build(false)) {
		t.Fatal("sets built alike are not Equal")
	}
}

// TestConcurrentWalksShareRenderings: a walk publishes a block's rendering
// for the walks after it, and a set and its copy share blocks, so walks of
// either, each under its own set's lock, meet at the same rendering: they
// must read the same entries whichever of them renders it.
func TestConcurrentWalksShareRenderings(t *testing.T) {
	s := replicaSet(6 * rowChunk)
	c := s.Copy()
	want := s.Entries()
	for i := range want {
		want[i].ID = uniq.ID(strings.Clone(string(want[i].ID))) // not a substring of a rendering
	}
	runtime.GC() // the renderings are freed
	var wg sync.WaitGroup
	for g := range 4 {
		set := []*Set{s, c}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				k := 0
				var e Entry
				for cur := set.Cursor(0); cur.Next(&e); k++ {
					if e != want[k] {
						t.Errorf("walker %d read %+v at %d, want %+v", g, e, k, want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSealedRowsRoundTrip: a row sealed into a block reads back exactly,
// whatever its fields: Lam jumping by nearly 2^64, At and Arg swinging
// between the ends of int64 (deltas that wrap), arena handles jumping to
// records of their own chunk, and (Lam, At) ties that only the ID breaks.
// Its ID may be any of the shapes sealedIDs draws, interleaved: minted
// IDs the runs hold, from more origins than fit an ID word's lanes, or a
// block's first 64 rows; minted IDs the runs refuse; and IDs never
// minted. The set is built one Add at a time, which seals rows and
// retires ids chunks as it goes, and all at once. A copy taken before the
// original retires the chunks its tail reads must read them still. An
// entry sorting into the middle thaws the blocks from there, and one
// sorting before every other thaws them all; both are sealed anew, and a
// copy taken before must keep its blocks as they were.
func TestSealedRowsRoundTrip(t *testing.T) {
	const n = 5*rowChunk + 17
	ats := [4]time.Duration{math.MinInt64, math.MaxInt64, -1, 0}
	args := [4]int64{math.MaxInt64, math.MinInt64, 0, -1}
	ids := sealedIDs(n)
	want := make([]Entry, n)
	for i := range want {
		e := Entry{ID: ids[i], Kind: "k", Key: fmt.Sprint(i % 3), Lam: uint64(i + 1), At: ats[i%4] + time.Duration(i%4/2*i), Arg: args[i%4] - int64(i%4/2*i)}
		if i >= n/2 {
			e.Lam = math.MaxUint64 - uint64(n-i)
		}
		if i%6 == 1 { // the (Lam, At) of the entry before: a tie the ID breaks
			e.Lam, e.At = want[i-1].Lam, want[i-1].At
		}
		if i%997 == 0 {
			e.Note = strings.Repeat("n", chunkSpan+i%5)
		}
		want[i] = e
	}
	slices.SortFunc(want, byMark)
	check := func(name string, s *Set, want []Entry) {
		t.Helper()
		if len(s.blocks) == 0 {
			t.Fatalf("%s: no row is sealed", name)
		}
		got := s.Entries()
		if !slices.Equal(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: Entries()[%d] = %+v, want %+v", name, i, got[i], want[i])
				}
			}
			t.Fatalf("%s: Entries() differs from what was added", name)
		}
		// got keeps the blocks' renderings alive, so these walks read them.
		if again := s.Entries(); !slices.Equal(again, want) {
			t.Fatalf("%s: Entries() read again from the renderings differs from what was added", name)
		}
		for _, i := range []int{1, rowChunk + 5, 2*rowChunk + 7} {
			var e Entry
			for c, k := s.Cursor(i), i; k < i+3*rowChunk/2 && c.Next(&e); k++ {
				if e != want[k] {
					t.Fatalf("%s: a Cursor from %d read %+v at %d, want %+v", name, i, e, k, want[k])
				}
			}
		}
		runtime.KeepAlive(got)
		for _, i := range []int{0, 1, 2, 3, rowChunk - 1, rowChunk, rowChunk + 1, 2*rowChunk + 7, 2*rowChunk + 8, 3*rowChunk + 1, len(want) - 1} {
			if got := entryAt(s, i); got != want[i] {
				t.Fatalf("%s: a Cursor at %d read %+v, want %+v", name, i, got, want[i])
			}
			if got := s.Start(want[i].Mark()); got != i+1 {
				t.Fatalf("%s: Start(entry %d's mark) = %d", name, i, got)
			}
		}
		for i := 0; i < len(want); i += 7 {
			if !s.Contains(want[i].ID) {
				t.Fatalf("%s: Contains(%q) = false", name, want[i].ID)
			}
		}
		if s.MaxLam() != want[len(want)-1].Lam {
			t.Fatalf("%s: MaxLam() = %d", name, s.MaxLam())
		}
		for _, ch := range s.rows {
			for _, r := range ch {
				if !isHeld(r.ref) {
					continue
				}
				if _, _, ok := s.thawed(r.ref); ok {
					t.Fatalf("%s: a tail row's ID is still a thawed row's record", name)
				}
			}
		}
	}

	one := NewSet()
	var early *Set
	for i, e := range want {
		if i == 4*rowChunk+8 {
			early = one.Copy()
		}
		one.Add(e)
	}
	if !slices.ContainsFunc(early.ids.chunks, func(ch string) bool { return ch != "" && !slices.Contains(one.ids.chunks, ch) }) {
		t.Fatal("the original retired no ids chunk the copy taken before reads")
	}
	if len(one.runs.origins) <= 64 || one.idTable.n <= n/4 {
		t.Fatalf("the runs hold %d origins and the ID table %d IDs; want more than 64, and the minted IDs the runs refuse beside the %d never minted", len(one.runs.origins), one.idTable.n, n/4)
	}
	check("one Add at a time", one, want)
	check("a copy taken before the original retired the chunks its tail reads", early, want[:4*rowChunk+8])
	shuffled := slices.Clone(want)
	rand.New(rand.NewSource(3)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	all := NewSet(shuffled...)
	check("all at once", all, want)
	// Built in other orders, the two sets' runs refuse different IDs, so
	// Equal meets held IDs against IDs in the ID table, sealed and not.
	if !one.Equal(all) || !all.Equal(one) {
		t.Fatal("the set built one Add at a time and the one built at once are not Equal")
	}
	for k := 1; k < len(want)-1; k += 293 {
		if want[k-1].Lam == want[k].Lam || want[k+1].Lam == want[k].Lam {
			continue // a tie the ID breaks: another ID may sort elsewhere
		}
		other := slices.Clone(want)
		switch node, seq, ok := uniq.ParseID(string(want[k].ID)); {
		case ok && seq < 1<<60 && k%2 == 0:
			other[k].ID = uniq.ID(uniq.AppendID(nil, node, seq+1<<60)) // another number
		case ok:
			other[k].ID = uniq.ID(uniq.AppendID(nil, node+"'", seq)) // another origin
		default:
			other[k].ID += "'"
		}
		if o := NewSet(other...); one.Equal(o) || o.Equal(all) {
			t.Fatalf("a set whose entry %d has ID %q for %q is Equal to the one added", k, other[k].ID, want[k].ID)
		}
	}

	c := one.Copy()
	mid := Entry{ID: "", Kind: "k", Lam: want[2*rowChunk+5].Lam, At: want[2*rowChunk+5].At} // the empty ID sorts first in its tie
	k, _ := slices.BinarySearchFunc(want, mid, byMark)
	if !one.Add(mid) {
		t.Fatal("Add of an entry sorting into the middle reported a duplicate")
	}
	want = slices.Insert(slices.Clone(want), k, mid)
	check("after an Add sorting into the middle", one, want)
	first := Entry{ID: "first", Kind: "k", At: math.MinInt64}
	if !one.Add(first) {
		t.Fatal("Add of an entry sorting before every other reported a duplicate")
	}
	check("after an Add sorting first", one, append([]Entry{first}, want...))
	check("a copy taken before them", c, slices.Delete(want, k, k+1))
}

// sealedIDs draws n IDs of the shapes a sealed row keeps, interleaved.
// One in four is never minted, and the ID table keeps it. The others are
// minted by 130 origins in turn — among them names containing '-', one
// that is all '-' and the empty name — each origin's first numbers 0,
// 999 999, 1 000 000 and 2^64-1, where the rendered ID grows a digit or
// the number's delta wraps, and 1 000 004 on. The runs admit a new origin
// only as the set grows, so an origin's first IDs are kept in the ID
// table, and those after in its runs.
func sealedIDs(n int) []uniq.ID {
	origins := []string{"a-b", "", "-", "x-y-z", "r0", "s3/r1"}
	for k := range 124 {
		origins = append(origins, fmt.Sprintf("o%d", k))
	}
	special := []uint64{0, 999_999, 1_000_000, math.MaxUint64}
	seen := make(map[string]int)
	ids := make([]uniq.ID, n)
	for i := range ids {
		if i%4 == 0 {
			ids[i] = uniq.ID(fmt.Sprintf("x%d", i))
			continue
		}
		o := origins[i%len(origins)]
		j := seen[o]
		seen[o]++
		seq := 1_000_000 + uint64(j)
		if j < len(special) {
			seq = special[j]
		}
		ids[i] = uniq.ID(uniq.AppendID(nil, o, seq))
	}
	return ids
}

// TestRunsRetainNoCallerString: the runs' keys are the set's own copies
// of the origins' names. An ID added is a cut of the caller's buffer — a
// gossip frame, a journal segment — and storing a map entry under a key
// equal to one present replaces the key with the new string, so a run
// opened or joined under the caller's would keep its whole buffer alive.
func TestRunsRetainNoCallerString(t *testing.T) {
	var b []byte
	var cuts [][2]int
	for _, seq := range []uint64{1, 3, 2, 7, 5, 6, 4, 9} { // runs opened and gaps closed
		for _, node := range []string{"r0", "s3/r1"} {
			k := len(b)
			b = uniq.AppendID(b, node, seq)
			cuts = append(cuts, [2]int{k, len(b)})
		}
	}
	frame := string(b)
	s := NewSet()
	for i, c := range cuts {
		s.Add(Entry{ID: uniq.ID(frame[c[0]:c[1]]), Lam: uint64(i + 1)})
	}
	for seq := uint64(12); seq < 20; seq += 2 {
		node, _, _ := uniq.ParseID(frame[cuts[0][0]:cuts[0][1]])
		s.Mint(Entry{Lam: seq}, node, seq)
	}
	if len(s.runs.byNode) != 2 {
		t.Fatalf("the runs hold %d origins, want 2", len(s.runs.byNode))
	}
	for node := range s.runs.byNode {
		if within(node, frame) {
			t.Fatalf("the runs' key %q is a cut of the caller's buffer", node)
		}
	}
}

// TestDeepAddsKeepIDsBounded: a thaw writes a record of each held ID it
// decodes to the thaws arena, which the seal after it drops, and the ids
// arena reuses the slots of the chunks it retires. A stream of single Adds
// each landing deep in the past — a journal replayed one entry at a time,
// or a heal — then keeps the ids arena at the tail's IDs however long it
// runs.
func TestDeepAddsKeepIDsBounded(t *testing.T) {
	const adds = 400
	s := replicaSet(8 * rowChunk)
	want := s.Entries()
	sealed := s.sealed()
	for k := range adds {
		at := want[k*7919%sealed]
		e := Entry{ID: uniq.ID(fmt.Sprintf("r3-%06d", k+1)), Kind: "deposit", Key: "acct-late", Arg: 1, Lam: at.Lam, At: at.At - 1}
		if !s.Add(e) {
			t.Fatalf("late entry %d was reported a duplicate", k)
		}
		want = append(want, e)
		if len(s.ids.chunks) > 16 || len(s.thaws.chunks) > 0 {
			t.Fatalf("after %d deep Adds the ids arena spans %d slots, %d of them free, and the thaws arena %d", k+1, len(s.ids.chunks), len(s.ids.free), len(s.thaws.chunks))
		}
	}
	slices.SortFunc(want, byMark)
	if !slices.Equal(s.Entries(), want) {
		t.Fatal("the set's entries differ from those added")
	}
}

// TestAddAndContainsAllocateNothingAfterGrow: with the rows and the index
// reserved, an in-order Add or Mint writes a row, a few arena bytes and an
// index slot — an arena chunk every few thousand entries is the only
// allocation, which rounds to none per call — and Contains never
// allocates. A Mint's ID is rendered, looked up and written from the
// stack: it never exists as a string of its own. A payload is looked up
// from a stack buffer too.
func TestAddAndContainsAllocateNothingAfterGrow(t *testing.T) {
	const n = 10000
	entries := make([]Entry, n+1)
	for i := range entries {
		entries[i] = Entry{ID: uniq.ID(fmt.Sprintf("op-%06d", i)), Kind: "deposit", Key: "acct-1", Arg: 1, Lam: uint64(i + 1)}
	}
	s := NewSet()
	s.grow(len(entries))
	i := 0
	if allocs := testing.AllocsPerRun(n, func() { s.Add(entries[i]); i++ }); allocs != 0 {
		t.Errorf("Add after grow allocates %.1f times per call", allocs)
	}
	if s.Len() != len(entries) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(entries))
	}
	i = 0
	if allocs := testing.AllocsPerRun(n, func() {
		if !s.Contains(entries[i].ID) || s.Contains("absent") {
			t.Fatal("Contains wrong")
		}
		i++
	}); allocs != 0 {
		t.Errorf("Contains allocates %.1f times per call", allocs)
	}

	m := NewSet()
	m.grow(n + 1)
	seq := uint64(0)
	if allocs := testing.AllocsPerRun(n, func() {
		seq++
		if _, added := m.Mint(Entry{Kind: "deposit", Key: "acct-1", Arg: 1, Lam: seq}, "s3/r1", seq); !added {
			t.Fatal("Mint of a fresh ID reported a duplicate")
		}
	}); allocs != 0 {
		t.Errorf("Mint after grow allocates %.1f times per call", allocs)
	}
	if e, added := m.Mint(Entry{Kind: "deposit", Lam: 1}, "s3/r1", 1); added || e.ID != "s3/r1-000001" || !m.Contains("s3/r1-000001") {
		t.Fatalf("re-Mint of sequence number 1 = %+v, %v; want the present ID, not added", e, added)
	}
}

// TestExportedSurfacePinned lists every name the package exports: its
// types, functions, methods, constants and variables. As with core's
// engine surface, the pin makes the next exported name a conscious diff:
// a read path that only tests call is one more sealed-row case for every
// change to how a set is stored.
func TestExportedSurfacePinned(t *testing.T) {
	want := []string{
		"AppendEntry", "Cursor", "Cursor.Next", "DecodeEntry", "DecodeEntryString", "Entry", "Entry.Mark", "EntrySize",
		"Fold", "Journal", "Journal.Append", "Journal.AppendAll", "Journal.Base", "Journal.Len", "Journal.Retained",
		"Journal.Since", "Journal.TruncateTo", "JournalAt", "NewSet", "Set", "Set.Add", "Set.AddAll", "Set.Contains",
		"Set.Copy", "Set.Cursor", "Set.Entries", "Set.Equal", "Set.Len", "Set.MaxLam", "Set.Mint", "Set.Start",
		"Set.Union", "Watermark", "Watermark.Before", "Watermark.IsZero", "Watermark.Less",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					name = recv.(*ast.Ident).Name + "." + name
				}
				got = append(got, name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							got = append(got, spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("oplog exports changed:\n got %q\nwant %q", got, want)
	}
}
