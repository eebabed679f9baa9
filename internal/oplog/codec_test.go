package oplog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/testenv"
	"repro/internal/uniq"
)

func TestEntryCodecRoundTrip(t *testing.T) {
	cases := []Entry{
		{},
		{ID: "r0-000001", Kind: "deposit", Key: "acct-007", Arg: 100_00, Lam: 1, At: 5_000_000},
		{ID: "x", Kind: "", Key: "", Arg: -42, Lam: 0, At: -1, Note: "free-form\nnote"},
		{ID: uniq.ID(strings.Repeat("long", 100)), Kind: "k", Key: strings.Repeat("key", 50), Arg: 1 << 62, Lam: ^uint64(0), At: sim.Time(1 << 60)},
	}
	for _, want := range cases {
		got, err := DecodeEntry(AppendEntry(nil, want))
		if err != nil {
			t.Fatalf("decode(%+v): %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestEntryCodecRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	str := func(n int) string {
		b := make([]byte, rng.Intn(n))
		rng.Read(b)
		return string(b)
	}
	for i := 0; i < 500; i++ {
		want := Entry{
			ID:   uniq.ID(str(24)),
			Kind: str(12),
			Key:  str(12),
			Note: str(40),
			Arg:  rng.Int63() - rng.Int63(),
			Lam:  rng.Uint64(),
			At:   sim.Time(rng.Int63() - rng.Int63()),
		}
		got, err := DecodeEntry(AppendEntry(nil, want))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestDecodeEntryRejectsTruncationAndTrailing(t *testing.T) {
	full := AppendEntry(nil, Entry{ID: "id-1", Kind: "kind", Key: "key", Note: "note", Arg: 7, Lam: 9, At: 11})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeEntry(full[:n]); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte truncation", n, len(full))
		}
	}
	if _, err := DecodeEntry(append(append([]byte(nil), full...), 0x00)); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
}

// checkDecode is FuzzDecodeEntry's contract on one input: DecodeEntry
// returns an entry or an error, never panics; DecodeEntryString agrees
// with it on every input, and the strings it returns are cut from its
// input; whatever they accept, and the entry cut straight out of the
// input's bytes, encode to exactly EntrySize bytes that decode back to
// the same entry.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	s := string(b)
	fromString, serr := DecodeEntryString(s)
	fromBytes, berr := DecodeEntry(b)
	if fromString != fromBytes || (serr == nil) != (berr == nil) {
		t.Fatalf("on %q: DecodeEntryString = %+v, %v; DecodeEntry = %+v, %v", b, fromString, serr, fromBytes, berr)
	}
	for _, f := range []string{string(fromString.ID), fromString.Kind, fromString.Key, fromString.Note} {
		if f != "" && !within(f, s) {
			t.Fatalf("DecodeEntryString(%q) returned %q, not a substring of its input", b, f)
		}
	}
	roundTrip := func(e Entry) {
		enc := AppendEntry(nil, e)
		if len(enc) != EntrySize(e) {
			t.Fatalf("EntrySize(%+v) = %d, AppendEntry wrote %d bytes", e, EntrySize(e), len(enc))
		}
		if back, err := DecodeEntry(enc); err != nil || back != e {
			t.Fatalf("DecodeEntry(AppendEntry(%+v)) = %+v, %v", e, back, err)
		}
	}
	if e, err := DecodeEntry(b); err == nil {
		roundTrip(e)
	} else if e != (Entry{}) {
		t.Fatalf("DecodeEntry(%q) returned %+v beside the error %v", b, e, err)
	}
	q := len(b) / 4
	e := Entry{ID: uniq.ID(b[:q]), Kind: string(b[q : 2*q]), Key: string(b[2*q : 3*q]), Note: string(b[3*q:])}
	for i, c := range b {
		e.Arg, e.Lam, e.At = e.Arg<<7^int64(c)-int64(i), e.Lam<<5^uint64(c), e.At<<3^sim.Time(c)
	}
	roundTrip(e)
}

// decodeSeeds start the fuzzer and are swept, every prefix of each, by
// TestDecodeEntryContract.
var decodeSeeds = [][]byte{
	AppendEntry(nil, Entry{}),
	AppendEntry(nil, Entry{ID: "r0-000001", Kind: "deposit", Key: "acct-007", Arg: 100_00, Lam: 1, At: 5_000_000}),
	AppendEntry(nil, Entry{ID: "x", Arg: -42, At: -1, Note: "free-form\nnote \xff\xfe"}),
	AppendEntry(nil, Entry{ID: uniq.ID(strings.Repeat("long", 40)), Kind: "k", Key: strings.Repeat("key", 50), Arg: 1 << 62, Lam: ^uint64(0), At: sim.Time(1 << 60)}),
	{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // a length past 64 bits
	{0xff, 0xff, 0xff, 0xff, 0x0f, 'i', 'd'},                           // a length past the input
	{0x02, 'i', 'd', 0x00, 0x00, 0x00, 0x01, 0x02, 0x04, 0x00},         // trailing byte
	{0x81, 0x00, 'a', 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},              // a padded length: accepted, re-encoded shorter
}

func FuzzDecodeEntry(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add(s)
	}
	f.Fuzz(checkDecode)
}

// TestDecodeEntryContract runs the fuzz target's contract in tier-1 over
// every prefix of every seed, so truncation at each byte is covered
// without the fuzzer.
func TestDecodeEntryContract(t *testing.T) {
	for _, s := range decodeSeeds {
		for n := 0; n <= len(s); n++ {
			checkDecode(t, s[:n])
		}
	}
}

// within reports whether the bytes of sub lie inside those of s.
func within(sub, s string) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(sub))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= lo && p+uintptr(len(sub)) <= lo+uintptr(len(s))
}

// TestDecodeEntryStringAllocatesNothing pins the string form's point: its
// fields are cuts of its input, so a decode costs no heap at all.
func TestDecodeEntryStringAllocatesNothing(t *testing.T) {
	testenv.SkipUnderRace(t)
	s := string(AppendEntry(nil, Entry{ID: "r0-000042", Kind: "deposit", Key: "acct-007", Note: "n", Arg: 100_00, Lam: 42, At: 5_000_000}))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeEntryString(s); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DecodeEntryString allocates %.1f times per call, want 0", allocs)
	}
}

func TestWatermarkCodecRoundTrip(t *testing.T) {
	for _, want := range []Watermark{
		{},
		{Lam: 42, At: 1_000_000, ID: "r1-000007"},
	} {
		got, rest, err := DecodeWatermark(AppendWatermark(nil, want))
		if err != nil {
			t.Fatal(err)
		}
		if got != want || len(rest) != 0 {
			t.Fatalf("got %+v (rest %d) want %+v", got, len(rest), want)
		}
	}
	// A watermark at the front of a longer buffer hands back the tail.
	buf := AppendWatermark(nil, Watermark{Lam: 3})
	buf = append(buf, 0xAA, 0xBB)
	_, rest, err := DecodeWatermark(buf)
	if err != nil || len(rest) != 2 {
		t.Fatalf("tail: rest=%d err=%v", len(rest), err)
	}
}

func TestEntrySizeExact(t *testing.T) {
	cases := []Entry{
		{},
		{ID: "r0-000001", Kind: "deposit", Key: "acct-007", Arg: 100_00, Lam: 1, At: 5_000_000},
		{ID: "x", Arg: -42, At: -1, Note: "free-form\nnote"},
		{ID: uniq.ID(strings.Repeat("long", 100)), Kind: "k", Key: strings.Repeat("key", 50), Arg: 1 << 62, Lam: ^uint64(0), At: sim.Time(1 << 60)},
		{Lam: 127}, {Lam: 128}, {Arg: 63}, {Arg: 64}, {Arg: -64}, {Arg: -65},
	}
	for _, e := range cases {
		if got, want := EntrySize(e), len(AppendEntry(nil, e)); got != want {
			t.Fatalf("EntrySize(%+v) = %d, encoded length %d", e, got, want)
		}
	}
}

// TestAppendEntryNoAllocs pins the zero-allocation contract of the encode
// path: appending into a buffer with enough spare capacity must not touch
// the heap, or every journal flush and snapshot write regresses to one
// allocation per record.
func TestAppendEntryNoAllocs(t *testing.T) {
	e := Entry{ID: "r0-000042", Kind: "deposit", Key: "acct-007", Note: "n", Arg: 100_00, Lam: 42, At: 5_000_000}
	buf := make([]byte, 0, 4*EntrySize(e))
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendEntry(buf[:0], e)
	}); allocs != 0 {
		t.Fatalf("AppendEntry into a presized buffer allocates %.1f times per call, want 0", allocs)
	}
}

func TestBufPoolRoundTrip(t *testing.T) {
	b := GetBuf()
	if len(*b) != 0 {
		t.Fatalf("pooled buffer arrives with %d bytes", len(*b))
	}
	*b = append(*b, AppendEntry(nil, Entry{ID: "a"})...)
	PutBuf(b)
	b2 := GetBuf()
	defer PutBuf(b2)
	if len(*b2) != 0 {
		t.Fatalf("recycled buffer not reset: %d bytes", len(*b2))
	}
}

func TestJournalAt(t *testing.T) {
	j := JournalAt(10)
	if j.Len() != 10 || j.Base() != 10 || j.Retained() != 0 {
		t.Fatalf("JournalAt(10): len=%d base=%d retained=%d", j.Len(), j.Base(), j.Retained())
	}
	j.Append(Entry{ID: "a"})
	if got := j.Since(10); len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("Since(10) = %v", got)
	}
}

func TestJournalAppendAll(t *testing.T) {
	var j Journal
	j.Append(Entry{ID: "a"})
	j.AppendAll([]Entry{{ID: "b"}, {ID: "c"}})
	j.AppendAll(nil)
	if j.Len() != 3 {
		t.Fatalf("len = %d, want 3", j.Len())
	}
	got := j.Since(0)
	for i, id := range []uniq.ID{"a", "b", "c"} {
		if got[i].ID != id {
			t.Fatalf("position %d = %q, want %q", i, got[i].ID, id)
		}
	}
	j.TruncateTo(2)
	j.AppendAll([]Entry{{ID: "d"}})
	if j.Len() != 4 || j.Base() != 2 {
		t.Fatalf("after truncate+append: len=%d base=%d", j.Len(), j.Base())
	}
}

// TestAddAllMatchesSequentialAdd is the vectorized union's oracle: for
// randomized batches (in-order tails, into-the-past merges, duplicates,
// overlaps), AddAll must leave the set exactly as per-entry Add would,
// and report the new entries in arrival order.
func TestAddAllMatchesSequentialAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a, b := NewSet(), NewSet()
		mkBatch := func(n int) []Entry {
			batch := make([]Entry, n)
			for i := range batch {
				lam := uint64(rng.Intn(40))
				batch[i] = Entry{ID: uniq.ID(fmt.Sprintf("t%d-e%d", trial, rng.Intn(60))), Lam: lam, Arg: int64(lam)}
			}
			return batch
		}
		for round := 0; round < 5; round++ {
			batch := mkBatch(1 + rng.Intn(12))
			var wantAdded []Entry
			for _, e := range batch {
				if a.Add(e) {
					wantAdded = append(wantAdded, e)
				}
			}
			gotAdded := b.AddAll(batch)
			if len(gotAdded) != len(wantAdded) {
				t.Fatalf("trial %d: AddAll added %d, Add added %d", trial, len(gotAdded), len(wantAdded))
			}
			for i := range wantAdded {
				if gotAdded[i] != wantAdded[i] {
					t.Fatalf("trial %d: added[%d] = %+v, want %+v (arrival order lost)", trial, i, gotAdded[i], wantAdded[i])
				}
			}
		}
		if !a.Equal(b) {
			t.Fatalf("trial %d: sets diverged", trial)
		}
		ae, be := a.Entries(), b.Entries()
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("trial %d: canonical order diverged at %d: %+v vs %+v", trial, i, ae[i], be[i])
			}
		}
	}
}

func TestSetGrow(t *testing.T) {
	s := NewSet()
	s.Grow(100)
	s.Grow(-1) // no-op
	for i := 0; i < 100; i++ {
		s.Add(Entry{ID: uniq.ID(strings.Repeat("x", 1) + string(rune('0'+i%10))), Lam: uint64(i)})
	}
	// Growing a populated set keeps its contents and order.
	s2 := NewSet(Entry{ID: "a", Lam: 1}, Entry{ID: "b", Lam: 2})
	s2.Grow(50)
	if s2.Len() != 2 || s2.Entries()[0].ID != "a" || s2.Entries()[1].ID != "b" {
		t.Fatalf("Grow disturbed the set: %v", s2.Entries())
	}
	s2.Add(Entry{ID: "c", Lam: 3})
	if s2.Entries()[2].ID != "c" {
		t.Fatal("append after Grow lost order")
	}
}
