package oplog

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/uniq"
)

// The set against the obvious reference: a map keyed by ID (first write
// wins) and its entries in canonical order. A script is a byte string;
// each step reads an opcode and its operands off the front, drives the set
// and the reference alike, and compares every read the set offers. Row
// chunks, sealed blocks, the byte arena, the payload table and the ID
// index are all invisible at this surface — which is the invariant every
// checkpointed fold, Converged and Copy depend on.
//
// A script may start from a copy of one set of seedRows entries, half of
// them sealed in blocks, all on the first (Lam, At) pair the script's own
// entries draw, with IDs on either side of nearly all of theirs: so a
// script's entry on that pair lands among sealed rows, thaws a block or
// two and is sealed again, and the blocks the copies share must never
// change. Its entries on any other pair sort after the seed's, as most
// gossip does.

// seedRows is past the hot tail: the seed set holds two blocks.
const seedRows = (hotChunks + 2) * rowChunk

// seed is the set and the reference a seeded script starts from a copy of.
// No script draws an ID of the seed's shape, so the reference's map, which
// answers for the IDs scripts draw, leaves them out.
var seed = func() (m *model) {
	m = &model{ref: map[uniq.ID]Entry{}}
	for i := range seedRows {
		prefix := "a" // below every ID a script draws but the empty one, for the first 6 144; above them after
		if i >= 3*seedRows/8 {
			prefix = "z"
		}
		m.want = append(m.want, Entry{
			ID:   uniq.ID(fmt.Sprintf("%s-%06d", prefix, i)),
			Kind: modelKinds[i%len(modelKinds)],
			Key:  runKeys[i%len(runKeys)],
			Arg:  int64(i%7 - 3),
			At:   -1,
		})
	}
	return m
}()

var seedSet = NewSet(seed.want...)

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

// modelKinds include two whose payload record, with an empty key and
// note, is exactly as long as the payload lookup buffer and one byte more.
var modelKinds = []string{"deposit", "withdraw", "", "k\xff\xfe", strings.Repeat("f", payloadBuf-3), strings.Repeat("o", payloadBuf-2)}

// modelMints are the (node, sequence number) pairs the mint step draws:
// both sides of the six-digit boundary and an incarnation base, on an
// unsharded and a sharded node name, and the numbers the near-miss IDs
// of modelIDs would alias if they parsed. One node's numbers arrive in
// any order, so they open runs, extend them and, between two runs, take
// the ID table.
var modelMints = []struct {
	node string
	seq  uint64
}{{"r0", 1}, {"r0", 999_999}, {"s3/r1", 1_000_000}, {"r0", 1<<40 + 7}, {"s3/r1", 1}, {"r0", 1234}, {"r0", 123}, {"r0", 12}, {"r0", 0}}

// modelIDs is small, so scripts hit duplicates, and its IDs differ in
// length and share prefixes, so an index that compared less than the whole
// ID would show. The minted IDs are among them, so Add and Mint meet on
// the same ID in both orders; so are IDs that look minted but are not —
// padded past six digits, short of six, not all digits, beyond a uint64,
// no '-' — which must stay in the ID table, never meeting the minted ID
// they resemble.
var modelIDs = func() []uniq.ID {
	ids := []uniq.ID{""}
	for i := 0; i < 23; i++ {
		ids = append(ids, uniq.ID(strings.Repeat("r", 1+i%3)+string(rune('a'+i))))
	}
	for _, m := range modelMints {
		ids = append(ids, uniq.ID(fmt.Sprintf("%s-%06d", m.node, m.seq)))
	}
	return append(ids, "r0-0001234", "r0-00123", "r0-00012a", "r0-18446744073709551616", "r0000001")
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
		At:   time.Duration(c&3) - 1,
	}
}

func (s *script) mark() Watermark {
	e := s.entry()
	return e.Mark()
}

// runOp is the one opcode byte that adds a run, so that random scripts
// draw one rarely: after it, every read compares thousands of entries.
const runOp = 0xff

// run draws rowChunk+1+mode%64 entries with fresh IDs, on the same few (Lam,
// At) pairs as the rest, so that they interleave with what is there, in
// canonical order or, with bit 0 of mode, shuffled, or, with bit 6, with
// each 16 in a row shuffled among themselves, as callers sharing an SDK
// session deliver them. The IDs are minted ones, node "run" numbered in
// canonical order, so in order they extend one run at its tail, and out
// of order they open runs between others, which merge as their gaps
// close; with bit 3 every fifth number is missing, leaving holes, which
// with bit 4 arrive after the rest and refill them. With bit 5 the IDs
// are spread over more nodes than the runs admit origins, and with bit 7
// they are the shapes sealedIDs draws, every one a sealed row may keep,
// interleaved inside one block: IDs never minted, minted IDs the runs
// refuse, and minted IDs they hold, from origins whose names contain '-'
// or are empty, more of them than an ID word's lanes, at numbers where the
// rendered ID grows a digit or a delta wraps. Their
// payloads repeat a few keys; with bit 2 every note is its own, so the
// payload table stops admitting them, and every 97th note is longer than
// its lookup buffer.
func run(mode int) []Entry {
	n := rowChunk + 1 + mode%64
	ids := runIDs
	switch {
	case mode&128 != 0:
		ids = shapedIDs
	case mode&32 != 0:
		ids = originIDs
	}
	var run, holes []Entry
	for i := range n {
		k := 12 * i / n // (Lam, At) never falls as i rises, so i's order is canonical
		e := Entry{
			ID:   ids[i],
			Kind: modelKinds[i%len(modelKinds)],
			Key:  runKeys[i%len(runKeys)],
			Arg:  int64(i),
			Lam:  uint64(k / 3),
			At:   time.Duration(k%3) - 1,
		}
		if mode&4 != 0 {
			e.Note = runNotes[i]
		}
		if i%97 == 0 {
			e.Note = strings.Repeat("n", payloadBuf)
		}
		if mode&8 != 0 && i%5 == 4 {
			holes = append(holes, e)
			continue
		}
		run = append(run, e)
	}
	r := rand.New(rand.NewSource(int64(mode)))
	switch {
	case mode&1 != 0:
		r.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
	case mode&64 != 0:
		slices.SortFunc(run, byMark)
		for w := 0; w < len(run); w += 16 {
			win := run[w:min(w+16, len(run))]
			r.Shuffle(len(win), func(i, j int) { win[i], win[j] = win[j], win[i] })
		}
	default:
		slices.SortFunc(run, byMark)
	}
	if mode&16 != 0 {
		run = append(run, holes...)
	}
	return run
}

// The strings runs are made of, formatted once. The nodes of originIDs
// outnumber the origins the runs admit for a set of two row chunks.
var (
	shapedIDs                   = sealedIDs(rowChunk + 64)
	runKeys                     = []string{"k0", "k1", "k2", "k3", "k4"}
	runIDs, originIDs, runNotes = func() (ids, spread []uniq.ID, notes []string) {
		for i := range rowChunk + 64 {
			ids = append(ids, uniq.ID(fmt.Sprintf("run-%06d", i)))
			spread = append(spread, uniq.ID(fmt.Sprintf("o%d-%06d", i%250, i/250)))
			notes = append(notes, fmt.Sprint(i))
		}
		return ids, spread, notes
	}()
)

// byMark orders entries canonically.
func byMark(a, b Entry) int {
	switch {
	case a.Mark().Less(b.Mark()):
		return -1
	case b.Mark().Less(a.Mark()):
		return 1
	}
	return 0
}

// model is the reference: a map keyed by ID, first write wins, and the
// same entries in canonical order, each put in place by a binary search.
type model struct {
	ref  map[uniq.ID]Entry
	want []Entry
}

func (m *model) has(id uniq.ID) bool {
	_, ok := m.ref[id]
	return ok
}

func (m *model) clone() *model { return &model{ref: maps.Clone(m.ref), want: slices.Clone(m.want)} }

// admit records the entries whose IDs are new and returns them in arrival
// order. A run is appended and sorted, not placed one entry at a time.
func (m *model) admit(es ...Entry) (fresh []Entry) {
	for _, e := range es {
		if !m.has(e.ID) {
			m.ref[e.ID] = e
			fresh = append(fresh, e)
		}
	}
	if len(fresh) > 64 {
		m.want = append(m.want, fresh...)
		slices.SortFunc(m.want, byMark)
		return fresh
	}
	for _, e := range fresh {
		i := sort.Search(len(m.want), func(i int) bool { return e.Mark().Less(m.want[i].Mark()) })
		m.want = slices.Insert(m.want, i, e)
	}
	return fresh
}

// brief prints entries with their long strings cut short.
func brief(es []Entry) string {
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "{%q %.8q… %.8q… %.8q… %d @%d/%d} ", e.ID, e.Kind, e.Key, e.Note, e.Arg, e.Lam, e.At)
	}
	return b.String()
}

// runModel plays script against a set and the reference, failing t at the
// first read on which they differ. The set starts empty, or when seeded
// from a copy of the seed set.
func runModel(t *testing.T, b []byte, seeded bool) {
	t.Helper()
	sc := &script{b: b}
	s, m := NewSet(), &model{ref: map[uniq.ID]Entry{}}
	if seeded {
		s, m = seedSet.Copy(), seed.clone()
	}
	base := len(m.want)
	for step := 0; len(sc.b) > 0; step++ {
		op := sc.next()
		if op != runOp {
			op %= 9
		}
		switch op {
		case 0, 1: // one entry
			e := sc.entry()
			dup := m.has(e.ID)
			if s.Add(e) == dup {
				t.Fatalf("step %d: Add(%q) = %v with the ID present: %v", step, e.ID, !dup, dup)
			}
			m.admit(e)
		case 2, 3: // a batch: in order or not, duplicates inside it and of what is there
			batch := make([]Entry, sc.next()%9)
			for i := range batch {
				batch[i] = sc.entry()
			}
			added := s.AddAll(batch)
			if fresh := m.admit(batch...); !slices.Equal(added, fresh) {
				t.Fatalf("step %d: AddAll returned %s, want the new entries in arrival order %s", step, brief(added), brief(fresh))
			}
		case 4: // a copy, then each side goes its own way: the numbers on either side of a mint's, and on the copy an ID for the table; carry on with either
			mt := modelMints[sc.next()%len(modelMints)]
			mine, theirs := sc.entry(), sc.entry()
			mine.ID = uniq.ID(uniq.AppendID(nil, mt.node, mt.seq+1))
			theirs.ID = uniq.ID(uniq.AppendID(nil, mt.node, mt.seq-1))
			extra := Entry{ID: "copy-only", Kind: "deposit", Key: "k", Lam: 2}
			c, cm := s.Copy(), m.clone()
			if !c.Equal(s) || !s.Equal(c) {
				t.Fatalf("step %d: a copy is not Equal to its original", step)
			}
			for _, e := range []Entry{mine, mine} {
				if s.Add(e) == m.has(e.ID) {
					t.Fatalf("step %d: Add(%q) to an original = %v with the ID present: %v", step, e.ID, !m.has(e.ID), m.has(e.ID))
				}
				m.admit(e)
			}
			for _, e := range []Entry{theirs, extra, theirs, extra} {
				if c.Add(e) == cm.has(e.ID) {
					t.Fatalf("step %d: Add(%q) to a copy = %v with the ID present: %v", step, e.ID, !cm.has(e.ID), cm.has(e.ID))
				}
				cm.admit(e)
			}
			for _, id := range []uniq.ID{mine.ID, theirs.ID, extra.ID} {
				if s.Contains(id) != m.has(id) || c.Contains(id) != cm.has(id) {
					t.Fatalf("step %d: %q is in a copy and its original %v and %v, want %v and %v: their runs or tables are shared", step, id, c.Contains(id), s.Contains(id), cm.has(id), m.has(id))
				}
			}
			cm.check(t, step, c)
			m.check(t, step, s)
			if sc.next()&1 != 0 {
				s, m = c, cm
			}
		case 5:
			s.grow(sc.next())
		case 6: // suffixes: from a mark that may fall between entries, from one of the last 256 entries, and from one anywhere
			marks := []Watermark{sc.mark()}
			if k := sc.next(); k < len(m.want) {
				marks = append(marks, m.want[len(m.want)-1-k].Mark())
			}
			if k := sc.next(); len(m.want) > 0 {
				marks = append(marks, m.want[k*len(m.want)/256].Mark())
			}
			for _, w := range marks {
				want := m.want
				i := sort.Search(len(want), func(i int) bool { return w.Less(want[i].Mark()) })
				if w.IsZero() {
					i = 0
				}
				if got := entriesAfter(s, w); !slices.Equal(got, want[i:]) {
					t.Fatalf("step %d: walking from Start(%+v) = %s, want %s", step, w, brief(got), brief(want[i:]))
				}
			}
			if got := s.Entries(); !slices.Equal(got, m.want) {
				t.Fatalf("step %d: Entries() = %s, want %s", step, brief(got), brief(m.want))
			}
		case 7: // the same entries arriving in another order make an Equal set; less a few, a set s differs from by exactly those
			all := slices.Clone(m.want)
			rand.New(rand.NewSource(int64(sc.next()))).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			o := NewSet()
			split := max(len(all)/2, len(all)-64) // the rest one at a time, each into the past as likely as not
			o.AddAll(all[:split])
			for _, e := range all[split:] {
				o.Add(e)
			}
			if !o.Equal(s) || !s.Equal(o) || s.Union(o) != 0 {
				t.Fatalf("step %d: a set built from the same entries in another order differs", step)
			}
			missing := all[:min(len(all), 1+sc.next()%8)]
			o = NewSet(all[len(missing):]...)
			slices.SortFunc(missing, byMark)
			if len(all) > 0 && (o.Equal(s) || s.Equal(o)) {
				t.Fatalf("step %d: a set missing %d entries is Equal to the whole", step, len(missing))
			}
			if n := o.Union(s); n != len(missing) || !o.Equal(s) {
				t.Fatalf("step %d: Union into a set missing %d entries added %d, or left it unequal", step, len(missing), n)
			}
		case 8: // mint: Add of the rendered ID, which nobody built
			mt := modelMints[sc.next()%len(modelMints)]
			e := sc.entry()
			e.ID = uniq.ID(fmt.Sprintf("%s-%06d", mt.node, mt.seq))
			dup := m.has(e.ID)
			minted := e
			minted.ID = "ignored"
			got, added := s.Mint(minted, mt.node, mt.seq)
			if added == dup || got != e {
				t.Fatalf("step %d: Mint(%s, %d) = %s, %v with the ID present: %v; want %s", step, mt.node, mt.seq, brief([]Entry{got}), added, dup, brief([]Entry{e}))
			}
			m.admit(e)
		case runOp: // a run across a row chunk's end, one by one or, with bit 1 of mode, in one batch; only while the script has added under a chunk, which one run without holes fills
			mode := sc.next()
			if len(m.want)-base >= rowChunk {
				break
			}
			entries := run(mode)
			if mode&2 != 0 {
				added := s.AddAll(entries)
				if fresh := m.admit(entries...); !slices.Equal(added, fresh) {
					t.Fatalf("step %d: AddAll of a run returned %d entries, want %d", step, len(added), len(fresh))
				}
				break
			}
			for _, e := range entries { // a second run repeats the first's IDs, or fills its holes
				if dup := m.has(e.ID); s.Add(e) == dup {
					t.Fatalf("step %d: Add(%q) in a run = %v with the ID present: %v", step, e.ID, !dup, dup)
				}
			}
			m.admit(entries...)
		}
		m.check(t, step, s)
	}
}

// check compares every read of s with the reference after a step: Len,
// a Cursor's walk, and one started at each block's ends, inside it and
// through the tail, MaxLam and Contains — of modelIDs, and of runs' IDs at
// their ends and around their first hole — and holds s's runs to their
// invariants.
func (m *model) check(t *testing.T, step int, s *Set) {
	t.Helper()
	checkRuns(t, step, &s.runs)
	want := m.want
	if s.Len() != len(want) {
		t.Fatalf("step %d: Len() = %d, want %d", step, s.Len(), len(want))
	}
	c := s.Cursor(0)
	var got Entry
	for i, e := range want {
		if !c.Next(&got) || got != e {
			t.Fatalf("step %d: a Cursor's entry %d = %s, want %s", step, i, brief([]Entry{got}), brief([]Entry{e}))
		}
	}
	if c.Next(&got) {
		t.Fatalf("step %d: a Cursor walks past the last entry to %s", step, brief([]Entry{got}))
	}
	for i := range want {
		if i >= s.sealed() || i&rowMask <= 1 || i&rowMask == rowMask || i&rowMask == 1+step*131%(rowChunk-2) {
			if got := entryAt(s, i); got != want[i] {
				t.Fatalf("step %d: a Cursor at %d read %s, want %s", step, i, brief([]Entry{got}), brief([]Entry{want[i]}))
			}
		}
	}
	maxLam := uint64(0)
	if len(want) > 0 {
		maxLam = want[len(want)-1].Lam
	}
	if s.MaxLam() != maxLam {
		t.Fatalf("step %d: MaxLam() = %d, want %d", step, s.MaxLam(), maxLam)
	}
	for _, id := range slices.Concat(modelIDs, []uniq.ID{"copy-only", "absent", runIDs[0], runIDs[3], runIDs[4], runIDs[5], runIDs[rowChunk], originIDs[0], originIDs[rowChunk]}, shapedIDs[:8], shapedIDs[rowChunk:rowChunk+4]) {
		if in := m.has(id); s.Contains(id) != in {
			t.Fatalf("step %d: Contains(%q) = %v", step, id, !in)
		}
	}
}

// checkRuns fails t unless each origin's runs are sorted, disjoint and
// never adjacent — two runs one number apart would be one — and the runs
// counted are the runs held.
func checkRuns(t *testing.T, step int, r *runs) {
	t.Helper()
	total := 0
	for node, o := range r.byNode {
		sp := o.spans
		for i, x := range sp {
			if x.lo > x.hi || i > 0 && (x.lo <= sp[i-1].hi || x.lo-sp[i-1].hi == 1) {
				t.Fatalf("step %d: node %q's runs %d and %d, %v and %v, are not sorted, disjoint and apart", step, node, i-1, i, sp[max(i-1, 0)], x)
			}
		}
		total += len(sp)
	}
	if total != r.n {
		t.Fatalf("step %d: the runs count %d runs, and hold %d", step, r.n, total)
	}
}

// modelSeeds start the fuzzer and are swept, every prefix of each, by
// TestSetMatchesModel: adds in order, a batch into the past, duplicates
// inside one batch and across batches, copies, suffix reads, rebuilds,
// mints, and runs that carry all of these across a row chunk's end.
var modelSeeds = []string{
	"\x00\x01\x04\x00\x00\x02\x08\x00\x00\x03\x0c\x00",                                 // three adds, ascending
	"\x00\x03\x0f\x03\x00\x02\x00\x00\x00\x01\x00\x00",                                 // adds that sort into the past
	"\x02\x05\x01\x03\x00\x01\x03\x00\x02\x01\x00\x02\x02\x00\x03\x00\x03",             // one batch, duplicates inside it
	"\x02\x03\x05\x07\x01\x06\x02\x02\x07\x01\x03\x02\x03\x05\x07\x01\x08\x00\x00",     // two batches sharing an ID
	"\x00\x01\xff\xff\x00\x02\xfe\xfe\x04\x00\x03\xfd\xfd\x06\x02\xfe\xfe\x00\x07\x09", // long strings, copy, suffix, rebuild
	"\x05\xff\x00\x00\x00\x00\x05\x00\x02\x08\x00\x00\x00\x01\x00\x00\x02\x00\x00\x17", // grow, the empty ID, a full batch
	"\x04\x04\x00\x01\x01\x01\x04\x02\x02\x18\x33\x44\x19\x33\x44\x06\x00\x00\x00\x00\x07\x00",
	"\x06\x00\x00\x00\x00\x07\x05\x00\x2f\x01\x01\x01\x30\x02\x02\x06\x2f\x01\x01\x00\x06\x30\x02\x03\x00",
	"\x08\x00\x01\x02\x03\x08\x00\x05\x06\x07\x00\x18\x00\x00\x08\x03\x07\x08\x09\x04\x08\x04\x00\x00\x00", // mint, mint it again, Add it, mint into the past, copy
	// A run added in order, one by one, past a chunk's end; an Add and a
	// batch into the past, moving rows across it; copy, suffix, rebuild, mint.
	"\xff\x08\x00\x01\x00\x00\x02\x03\x02\x01\x01\x03\x02\x02\x04\x03\x03\x04\x06\x05\x03\x02\x05\x07\x09\x08\x00\x05\x03\x02",
	// Two adds, then a shuffled run in one batch, every note its own; mint,
	// a suffix, grow, an Add into the past, copy, rebuild.
	"\x00\x05\x07\x02\x00\x06\x0b\x03\xff\x07\x08\x02\x01\x02\x03\x06\x00\x00\x00\x10\x05\x40\x00\x07\x01\x01\x04\x07\x03",
	"\xff\x05\x00\x01\x00\x00\x03\x02\x05\x01\x01\x06\x01\x01", // a shuffled run one by one, then an Add and a batch into the past
	// A run one by one in order with every fifth number held back until
	// the rest are in; a copy that each side extends around a mint's
	// number, carried on with; a suffix; a rebuild.
	"\xff\x18\x04\x00\x01\x02\x03\x04\x05\x06\x01\x06\x00\x00\x00\x00\x07\x02",
	// A shuffled run in one batch with its holes left open; mints that
	// open a run and fall between two; a copy, carried on with the
	// original; a batch of IDs that look minted and are not.
	"\xff\x0b\x08\x05\x00\x01\x02\x08\x08\x03\x03\x03\x04\x06\x00\x00\x00\x01\x01\x01\x00\x02\x03\x21\x00\x00\x22\x00\x00\x23\x00\x00",
	// A run over more nodes than the runs admit origins, in one batch; a
	// copy; grow; a suffix.
	"\xff\x22\x04\x01\x00\x00\x00\x00\x00\x00\x01\x05\x40\x06\x00\x00\x00\x05",
	// The same shuffled, one by one; an Add that looks minted; a rebuild.
	"\xff\x21\x00\x25\x00\x00\x07\x03",
	// Node r0's numbers 13 and, on a copy carried on with, 11 — two runs
	// with a gap — then 12, which closes it; a copy; a suffix.
	"\x04\x07\x00\x00\x00\x00\x00\x00\x00\x04\x07\x00\x00\x00\x00\x00\x00\x01\x08\x07\x00\x00\x00\x04\x07\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00",
	// Mints descending — each opens a run before the others, inside the
	// window — then numbers beside two of them, on an original and a copy.
	"\x08\x05\x00\x00\x00\x08\x06\x00\x00\x00\x08\x07\x00\x00\x00\x08\x08\x00\x00\x00\x04\x08\x00\x00\x00\x00\x00\x00\x00\x04\x07\x00\x00\x00\x00\x00\x00\x01",
	// A run one by one in windows of 16, each shuffled, as 16 callers of one
	// SDK session deliver it: runs open mid-window and merge; a suffix.
	"\xff\x40\x06\x00\x00\x00\x00",
	// The same in one batch with every fifth number held back until the
	// rest are in; a copy; a rebuild.
	"\xff\x5a\x04\x00\x00\x00\x00\x00\x00\x00\x00\x07\x01",
	// Every shape of ID a sealed row keeps, one by one in order; a suffix;
	// a rebuild.
	"\xff\x80\x06\x00\x00\x00\x00\x07\x05",
	// The same shuffled in one batch, every note its own; a copy carried
	// on with.
	"\xff\x87\x04\x02\x00\x00\x00\x00\x00\x00\x01",
}

func FuzzSetMatchesModel(f *testing.F) {
	for _, s := range modelSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) { runModel(t, b, true) })
}

// TestSetMatchesModel runs the fuzz target's contract in tier-1: every
// prefix of every seed on an empty set and every seed on the seed set,
// then scripts drawn at random, one in sixteen on the seed set — a step
// on it reads some 16 000 entries, where most steps on an empty set read
// a few dozen.
func TestSetMatchesModel(t *testing.T) {
	for _, s := range modelSeeds {
		for n := 0; n <= len(s); n++ {
			runModel(t, []byte(s[:n]), false)
		}
		runModel(t, []byte(s), true)
	}
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 400; i++ {
		b := make([]byte, r.Intn(96))
		r.Read(b)
		runModel(t, b, i%16 == 0)
	}
}
