package oplog

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/uniq"
)

// The set against the obvious reference: a map keyed by ID (first write
// wins) sorted from scratch on every read. A script is a byte string; each
// step reads an opcode and its operands off the front, drives the set and
// the map alike, and compares every read the set offers. Packed rows, the
// byte arena and the ID index are all invisible at this surface — which is
// the invariant every checkpointed fold, Converged and Copy depend on.

// script reads operands off a byte string, zeros once it runs dry.
type script struct{ b []byte }

func (s *script) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

var modelKinds = []string{"deposit", "withdraw", "", "k\xff\xfe"}

// modelMints are the (node, sequence number) pairs the mint step draws:
// both sides of the six-digit boundary and an incarnation base, on an
// unsharded and a sharded node name.
var modelMints = []struct {
	node string
	seq  uint64
}{{"r0", 1}, {"r0", 999_999}, {"s3/r1", 1_000_000}, {"r0", 1<<40 + 7}, {"s3/r1", 1}}

// modelIDs is small, so scripts hit duplicates, and its IDs differ in
// length and share prefixes, so an index that compared less than the whole
// ID would show. The minted IDs are among them, so Add and Mint meet on
// the same ID in both orders.
var modelIDs = func() []uniq.ID {
	ids := []uniq.ID{""}
	for i := 0; i < 23; i++ {
		ids = append(ids, uniq.ID(strings.Repeat("r", 1+i%3)+string(rune('a'+i))))
	}
	for _, m := range modelMints {
		ids = append(ids, uniq.ID(fmt.Sprintf("%s-%06d", m.node, m.seq)))
	}
	return ids
}()

// entry draws one entry. Few distinct (Lam, At) pairs, so ties that only
// the ID breaks are common; strings from empty through one longer than
// the arena's first chunks, so records land on every side of a chunk's end.
func (s *script) entry() Entry {
	a, b, c := s.next(), s.next(), s.next()
	long := func(n int) string { return strings.Repeat(string(rune('A'+n%26)), n%7*n%400) }
	return Entry{
		ID:   modelIDs[a%len(modelIDs)],
		Kind: modelKinds[a/len(modelIDs)%len(modelKinds)],
		Key:  long(b >> 2),
		Note: long(c),
		Arg:  int64(b) - 128,
		Lam:  uint64(b & 3),
		At:   sim.Time(c&3) - 1,
	}
}

func (s *script) mark() Watermark {
	e := s.entry()
	return e.Mark()
}

// brief prints entries with their long strings cut short.
func brief(es []Entry) string {
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "{%q %q %.8q… %.8q… %d @%d/%d} ", e.ID, e.Kind, e.Key, e.Note, e.Arg, e.Lam, e.At)
	}
	return b.String()
}

// runModel plays script against a set and the reference, failing t at the
// first read on which they differ.
func runModel(t *testing.T, b []byte) {
	t.Helper()
	sc := &script{b: b}
	s, ref := NewSet(), map[uniq.ID]Entry{}
	for step := 0; len(sc.b) > 0; step++ {
		switch op := sc.next() % 9; op {
		case 0, 1: // one entry
			e := sc.entry()
			_, dup := ref[e.ID]
			if s.Add(e) == dup {
				t.Fatalf("step %d: Add(%q) = %v with the ID present: %v", step, e.ID, !dup, dup)
			}
			if !dup {
				ref[e.ID] = e
			}
		case 2, 3: // a batch: in order or not, duplicates inside it and of what is there
			batch := make([]Entry, sc.next()%9)
			var fresh []Entry
			for i := range batch {
				batch[i] = sc.entry()
				if _, dup := ref[batch[i].ID]; !dup {
					ref[batch[i].ID] = batch[i]
					fresh = append(fresh, batch[i])
				}
			}
			if added := s.AddAll(batch); !slices.Equal(added, fresh) {
				t.Fatalf("step %d: AddAll returned %s, want the new entries in arrival order %s", step, brief(added), brief(fresh))
			}
		case 4: // carry on with a copy; the original must not notice
			was := s.Entries()
			c := s.Copy()
			extra := Entry{ID: "copy-only", Kind: "deposit", Key: "k", Lam: 2}
			if !c.Equal(s) || !s.Equal(c) {
				t.Fatalf("step %d: a copy is not Equal to its original", step)
			}
			_, had := ref[extra.ID]
			if c.Add(extra) == had || c.Add(extra) || s.Contains(extra.ID) != had || c.Equal(s) != had || !slices.Equal(s.Entries(), was) {
				t.Fatalf("step %d: a copy's rows, bytes and index are not its own", step)
			}
			if !had {
				ref[extra.ID] = extra
			}
			s = c
		case 5:
			s.Grow(sc.next())
		case 6: // suffixes: from a mark that may fall between entries, or on one
			w := sc.mark()
			want := canonical(ref)
			i := sort.Search(len(want), func(i int) bool { return w.Less(want[i].Mark()) })
			if w.IsZero() {
				i = 0
			}
			var got []Entry
			for j := s.Start(w); j < s.Len(); j++ {
				got = append(got, s.At(j))
			}
			if !slices.Equal(got, want[i:]) {
				t.Fatalf("step %d: walking from Start(%+v) = %s, want %s", step, w, brief(got), brief(want[i:]))
			}
			if got := s.EntriesAfter(w); !slices.Equal(got, want[i:]) {
				t.Fatalf("step %d: EntriesAfter(%+v) = %s, want %s", step, w, brief(got), brief(want[i:]))
			}
		case 7: // the same entries arriving in another order make an Equal set
			all := canonical(ref)
			rand.New(rand.NewSource(int64(sc.next()))).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			o := NewSet()
			o.AddAll(all[:len(all)/2])
			for _, e := range all[len(all)/2:] {
				o.Add(e)
			}
			if !o.Equal(s) || !s.Equal(o) || s.Union(o) != 0 || len(s.Diff(o)) != 0 || len(o.Diff(s)) != 0 {
				t.Fatalf("step %d: a set built from the same entries in another order differs", step)
			}
		case 8: // mint: Add of the rendered ID, which nobody built
			m := modelMints[sc.next()%len(modelMints)]
			e := sc.entry()
			e.ID = uniq.ID(fmt.Sprintf("%s-%06d", m.node, m.seq))
			_, dup := ref[e.ID]
			minted := e
			minted.ID = "ignored"
			got, added := s.Mint(minted, m.node, m.seq)
			if added == dup || got != e {
				t.Fatalf("step %d: Mint(%s, %d) = %s, %v with the ID present: %v; want %s", step, m.node, m.seq, brief([]Entry{got}), added, dup, brief([]Entry{e}))
			}
			if !dup {
				ref[e.ID] = e
			}
		}
		want := canonical(ref)
		if got := s.Entries(); s.Len() != len(want) || !slices.Equal(got, want) {
			t.Fatalf("step %d: Entries() = %s, want %s", step, brief(got), brief(want))
		}
		maxLam := uint64(0)
		if len(want) > 0 {
			maxLam = want[len(want)-1].Lam
		}
		if s.MaxLam() != maxLam {
			t.Fatalf("step %d: MaxLam() = %d, want %d", step, s.MaxLam(), maxLam)
		}
		for _, id := range append(modelIDs, "copy-only", "absent") {
			if _, in := ref[id]; s.Contains(id) != in {
				t.Fatalf("step %d: Contains(%q) = %v", step, id, !in)
			}
		}
	}
}

// modelSeeds start the fuzzer and are swept, every prefix of each, by
// TestSetMatchesModel: adds in order, a batch into the past, duplicates
// inside one batch and across batches, copies, suffix reads, rebuilds and
// mints.
var modelSeeds = []string{
	"\x00\x01\x04\x00\x00\x02\x08\x00\x00\x03\x0c\x00",                                 // three adds, ascending
	"\x00\x03\x0f\x03\x00\x02\x00\x00\x00\x01\x00\x00",                                 // adds that sort into the past
	"\x02\x05\x01\x03\x00\x01\x03\x00\x02\x01\x00\x02\x02\x00\x03\x00\x03",             // one batch, duplicates inside it
	"\x02\x03\x05\x07\x01\x06\x02\x02\x07\x01\x03\x02\x03\x05\x07\x01\x08\x00\x00",     // two batches sharing an ID
	"\x00\x01\xff\xff\x00\x02\xfe\xfe\x04\x00\x03\xfd\xfd\x06\x02\xfe\xfe\x07\x09",     // long strings, copy, suffix, rebuild
	"\x05\xff\x00\x00\x00\x00\x05\x00\x02\x08\x00\x00\x00\x01\x00\x00\x02\x00\x00\x17", // grow, the empty ID, a full batch
	"\x04\x04\x00\x01\x01\x01\x04\x02\x02\x18\x33\x44\x19\x33\x44\x06\x00\x00\x00\x07\x00",
	"\x06\x00\x00\x00\x07\x05\x00\x2f\x01\x01\x01\x30\x02\x02\x06\x2f\x01\x01\x06\x30\x02\x03",
	"\x08\x00\x01\x02\x03\x08\x00\x05\x06\x07\x00\x18\x00\x00\x08\x03\x07\x08\x09\x04\x08\x04\x00\x00\x00", // mint, mint it again, Add it, mint into the past, copy
}

func FuzzSetMatchesModel(f *testing.F) {
	for _, s := range modelSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(runModel)
}

// TestSetMatchesModel runs the fuzz target's contract in tier-1: every
// prefix of every seed, then scripts drawn at random.
func TestSetMatchesModel(t *testing.T) {
	for _, s := range modelSeeds {
		for n := 0; n <= len(s); n++ {
			runModel(t, []byte(s[:n]))
		}
	}
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 400; i++ {
		b := make([]byte, r.Intn(96))
		r.Read(b)
		runModel(t, b)
	}
}
