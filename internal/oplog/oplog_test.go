package oplog

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
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
	rows := cap(s.rows) * int(unsafe.Sizeof(s.rows[0]))
	for _, ch := range s.rows {
		rows += cap(ch) * int(unsafe.Sizeof(row{}))
	}
	spans := 0
	for _, sp := range s.runs.byNode {
		spans += cap(sp) * int(unsafe.Sizeof(span{}))
	}
	t.Logf("%.1f B/entry over %d entries (rows %.1f, ID runs %.1f in %d runs of %d origins, ID table %.1f, payload table %.1f, the rest arena), %.1f B of it scannable",
		bytes, s.Len(), per(rows), per(spans), s.runs.n, len(s.runs.byNode), per(5*len(s.ids.tags)), payloads, scannable)
	runtime.KeepAlive(entries)
	return bytes, scannable, payloads
}

// TestSetBytesPerEntry budgets the heap a Set holds per entry, strings
// included: the set holds its own copy. When payloads repeat, as a kind ×
// key vocabulary does, an entry is a 32-byte row, the ID's bytes and their
// length byte in the arena, its share of the slack of the last row chunk,
// and what indexes its ID — which depends on the IDs' shape:
//   - consecutive numbers per node, as replicas mint them: a few runs for
//     the whole set, so 45 B;
//   - every node every third number, which never makes a run: the runs
//     stop admitting at one per 32 rows, and the rest take a five-byte
//     slot of the ID table at 7/16 to 7/8 load, so 52 B;
//   - the SDK's IDs, "cli-" and 24 hex digits, which are not minted: the
//     ID table and the longer ID, so 70 B.
//
// A string header per entry anywhere fits none of these. The last case is
// the daemon's shape with payloads that never repeat — every entry's
// strings its own allocation, nothing else keeping them — where each entry
// writes its own payload record, Kind included, and the payload table,
// which such input never hits, stops admitting at an eighth of the rows:
// it holds under 2 B an entry.
func TestSetBytesPerEntry(t *testing.T) {
	const n = 100000
	for _, c := range []struct {
		name   string
		budget float64
		id     func(i int) string
	}{
		{"consecutive numbers per node", 45, func(i int) string { return fmt.Sprintf("r%d-%06d", i%3, i/3) }},
		{"every node every third number", 52, func(i int) string { return fmt.Sprintf("r%d-%06d", i%3, i) }},
		{"SDK IDs", 70, func(i int) string { return fmt.Sprintf("cli-%024x", uint64(i)*0x9e3779b97f4a7c15) }},
	} {
		bytes, scannable, _ := heapPerEntry(t, n, true, func(i int) Entry {
			return Entry{
				ID:   uniq.ID(c.id(i)),
				Kind: "deposit",
				Key:  fmt.Sprintf("acct-%d", i%1024),
				Arg:  int64(1 + i%100),
				Lam:  uint64(i + 1),
				At:   time.Duration(i),
			}
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
	if bytes > 88 || scannable > 1 || payloads > 2 {
		t.Errorf("Set holds %.1f B/entry of payloads that never repeat, %.1f B of it scannable and %.1f B the payload table; budget 88, 1 and 2", bytes, scannable, payloads)
	}
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

// TestFoldIterationAllocatesNothing: walking from Start with At
// materializes each entry on the stack from the row and the arena —
// folding 10 000 pending entries costs no allocation, from genesis or from
// a mark.
func TestFoldIterationAllocatesNothing(t *testing.T) {
	s := NewSet()
	for i := 0; i < 20000; i++ {
		s.Add(Entry{ID: uniq.ID(fmt.Sprintf("op-%06d", i)), Kind: "deposit", Key: "acct-1", Arg: 1, Lam: uint64(i + 1)})
	}
	mid := s.Entries()[9999].Mark()
	for _, w := range []Watermark{{}, mid} {
		var sum, n int64
		allocs := testing.AllocsPerRun(10, func() {
			sum, n = 0, 0
			for i := s.Start(w); i < s.Len(); i++ {
				e := s.At(i)
				sum += e.Arg + int64(len(e.ID)+len(e.Kind)+len(e.Key))
				n++
			}
		})
		if want := int64(s.Len()); w == mid && n != want-10000 || w != mid && n != want {
			t.Fatalf("walking from Start(%+v) yielded %d entries of %d", w, n, want)
		}
		if allocs != 0 {
			t.Errorf("walking from Start(%+v) allocates %.0f times", w, allocs)
		}
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
	s.Grow(len(entries))
	i := 0
	if allocs := testing.AllocsPerRun(n, func() { s.Add(entries[i]); i++ }); allocs != 0 {
		t.Errorf("Add after Grow allocates %.1f times per call", allocs)
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
	m.Grow(n + 1)
	seq := uint64(0)
	if allocs := testing.AllocsPerRun(n, func() {
		seq++
		if _, added := m.Mint(Entry{Kind: "deposit", Key: "acct-1", Arg: 1, Lam: seq}, "s3/r1", seq); !added {
			t.Fatal("Mint of a fresh ID reported a duplicate")
		}
	}); allocs != 0 {
		t.Errorf("Mint after Grow allocates %.1f times per call", allocs)
	}
	if e, added := m.Mint(Entry{Kind: "deposit", Lam: 1}, "s3/r1", 1); added || e.ID != "s3/r1-000001" || !m.Contains("s3/r1-000001") {
		t.Fatalf("re-Mint of sequence number 1 = %+v, %v; want the present ID, not added", e, added)
	}
}
