// Package oplog implements the operation-centric log at the heart of the
// paper's §6.5 pattern: business operations captured "much like a ledger
// entry", each carrying a uniquifier, merged across replicas by set union.
//
// Union of uniquified operation sets is associative, commutative, and
// idempotent — the A, C, and I of ACID 2.0 (§8) — so "replicas that have
// seen the same work should see the same result, independent of the order
// in which the work has arrived" (§7.6). Applications derive their state
// by folding the entries in a canonical order; packages cart, bank, and
// core all build on this.
//
// # Canonical order and incremental derivation
//
// The canonical order is (Lam, At, ID): ascending Lamport timestamp, then
// ingress time, ties broken by uniquifier. A Set holds its entries once,
// in this order, kept current on every Add — an O(1) append when the new
// entry sorts after everything present (the common case: ingress stamps
// Lamport max+1, so local submits and in-order gossip are pure appends),
// an O(n) insertion only when gossip delivers an entry that sorts into
// the past.
//
// The maintained order makes state derivation incremental. A Watermark
// names a position in the canonical order; Start(w) is where the entries
// beyond it begin, and At walks them in place, so a consumer that
// remembers the watermark of its last fold can advance its derived state
// by folding just the new suffix instead of replaying the whole ledger.
// Consumers detect the rare sorts-into-the-past insertion by comparing the
// new entry's Mark against their watermark (see Entry.Mark and
// Watermark.Before) and only then fall back to replaying from an older
// checkpoint. internal/core's Replica is the canonical consumer of this
// contract.
//
// # How a Set is stored
//
// The set is the one structure that grows with every operation ever seen,
// so it is stored packed, in three parts the garbage collector never has
// to look inside:
//
//   - a slab of fixed-size rows in canonical order — Lam, At and Arg inline
//     and two 32-bit handles, 32 bytes in all. Keeping the order means
//     moving rows, never strings;
//   - an append-only byte arena holding each entry's ID, Key and Note once,
//     length-prefixed as in the entry codec, and each distinct Kind once
//     (operation names are a closed vocabulary; see maxKinds). Its chunks
//     are never reallocated, and a record never straddles two;
//   - the §5.4 "have I seen this uniquifier" index: open addressing over
//     arena handles, one byte of hash beside each — five bytes a slot, and
//     of the three parts the one that stable-prefix compaction will have to
//     keep for good (with the ~11 arena bytes of the ID it points at).
//
// Entry remains the type at every API. Entries read out of a set are
// materialized from its rows, and their strings are substrings of the
// arena: valid, and unchanged, for as long as anything references them —
// past the set's own life if need be — at the cost of keeping the chunk
// they sit in alive, and read-only like every Go string. Nothing handed to
// a set is retained: Add and AddAll copy the bytes they keep, so a caller's
// strings may be cut from a request body or a network frame. One set holds
// at most 4 GiB of such bytes.
//
// An ingress ID need not exist as a string before its entry is stored:
// Mint takes the node and sequence number instead, renders the ID on the
// stack (uniq.AppendID, the formatter uniq.Gen uses), checks the index
// from there and writes the bytes once, into the arena record — so a
// guess's uniquifier is never a heap object of its own, and the entry
// Mint returns carries the set's copy onward.
package oplog

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/uniq"
)

// Entry is one recorded business operation. Entries are immutable and
// comparable; two entries with the same ID describe the same operation.
//
// The scalar payload (Kind, Key, Arg, Note) deliberately covers every
// application in this repository: a cart op is {Kind:"add", Key:item,
// Arg:qty}, a bank op is {Kind:"debit", Key:account, Arg:cents}, and so
// on. Keeping the payload concrete keeps sets comparable and hashable.
type Entry struct {
	ID   uniq.ID  // uniquifier assigned at ingress
	Kind string   // business operation name, e.g. "add-to-cart"
	Key  string   // object the operation targets (item, account, ...)
	Arg  int64    // numeric argument (quantity, cents, ...)
	Lam  uint64   // Lamport timestamp: orders causally related operations
	At   sim.Time // ingress wall-clock timestamp (statement cutoffs etc.)
	Note string   // free-form annotation carried with the op
}

// Mark returns the entry's position in the canonical order.
func (e Entry) Mark() Watermark { return Watermark{Lam: e.Lam, At: e.At, ID: e.ID} }

// Watermark names a position in the canonical (Lam, At, ID) order. The
// zero Watermark sorts before every real entry (real entries carry
// non-empty IDs), so it means "genesis: nothing folded yet".
type Watermark struct {
	Lam uint64
	At  sim.Time
	ID  uniq.ID
}

// IsZero reports whether w is the genesis watermark.
func (w Watermark) IsZero() bool { return w == Watermark{} }

// Less reports whether w sorts strictly before o in canonical order.
func (w Watermark) Less(o Watermark) bool {
	if w.Lam != o.Lam {
		return w.Lam < o.Lam
	}
	if w.At != o.At {
		return w.At < o.At
	}
	return w.ID < o.ID
}

// Before reports whether w sorts strictly before entry e — that is,
// whether e lies beyond the watermark and can be folded incrementally. A
// consumer holding watermark w must treat an arriving entry with
// !w.Before(e) as sorting into its already-folded past.
func (w Watermark) Before(e Entry) bool { return w.Less(e.Mark()) }

// Set is a mergeable set of entries keyed by uniquifier, held once in
// canonical order. The zero value is not usable; construct with NewSet.
//
// An entry is stored in three pointer-free parts: a fixed-size row in the
// canonical-order slab, its variable-length bytes in the arena, and a slot
// in the ID index. Entries read back out are materialized from the row;
// their strings are substrings of the arena (see the package comment).
type Set struct {
	rows  []row // canonical (Lam, At, ID) order
	arena arena // every row's ID|Key|Note record, and each Kind
	kinds map[string]uint32

	// The dedup index: open addressing, linear probing, at most 7/8 full.
	// A slot is one byte of the ID's hash (0 marks it empty) and the arena
	// handle of the record whose ID it holds, in two parallel arrays so a
	// probe scans bytes and touches the arena only on a tag match.
	tags []uint8
	refs []uint32

	// Scratch AddAll reuses: its result, and settle's sorted newcomers.
	added []Entry
	fresh []row
}

// row is the fixed-size part of one entry: the sort key and the numeric
// payload inline, the strings by arena handle.
type row struct {
	lam  uint64
	at   sim.Time
	arg  int64
	ref  uint32 // the record ID|Key|Note, each uvarint-length-prefixed
	kind uint32 // one uvarint-length-prefixed string, shared by every row of that kind
}

// maxKinds bounds the kind table. Operation names are a closed vocabulary,
// so a real application stays far below it and pays for each name once; a
// stream of made-up kinds beyond it is stored per entry, like Key and Note,
// and the table stops growing.
const maxKinds = 256

var idSeed = maphash.MakeSeed()

func hashID(id uniq.ID) uint64 { return maphash.String(idSeed, string(id)) }

// tagOf is the index byte of a hash: its top bits, which the slot position
// (the low bits) does not use, and never the 0 that marks an empty slot.
func tagOf(h uint64) uint8 { return uint8(h>>56) | 1 }

// NewSet returns an empty set, optionally seeded with entries.
func NewSet(entries ...Entry) *Set {
	s := &Set{}
	s.Grow(len(entries))
	for _, e := range entries {
		s.Add(e)
	}
	return s
}

// Add inserts e, reporting true if it was new. Re-adding an entry with an
// already-present ID is a no-op returning false — this is what makes
// processing "have the business impact of a single execution even as it is
// processed at multiple replicas" (§5.4).
//
// Add maintains the canonical order: appending (an entry sorting after
// everything present) is O(1) amortized; an entry sorting into the past
// costs an O(n) insertion, which only out-of-order gossip pays.
func (s *Set) Add(e Entry) bool {
	old := len(s.rows)
	if !s.push(e) {
		return false
	}
	s.settle(old)
	return true
}

// AddAll unions a batch of entries, returning the ones that were new in
// their input (arrival) order. It is the vectorized sibling of Add: the
// fresh entries are merged into the canonical order in ONE pass, so a
// gossip push of K entries that sort into the past costs one tail move
// instead of K of them — the difference between anti-entropy keeping up
// with sustained ingest and falling quadratically behind it.
//
// The result is the set's own scratch, materialized from the rows just
// stored (its strings are the set's, like any entry read out of it): valid
// until the next AddAll, and never to be written. Copy what must outlive
// that.
func (s *Set) AddAll(entries []Entry) (added []Entry) {
	old := len(s.rows)
	s.added = s.added[:0]
	for _, e := range entries {
		if s.push(e) {
			s.added = append(s.added, s.entry(s.rows[len(s.rows)-1]))
		}
	}
	s.settle(old)
	return s.added
}

// Mint is Add for an entry whose ID is the ingress ID uniq.AppendID
// renders for node and seq — e.ID is ignored — and which nobody has built
// yet: the ID is rendered into a stack buffer, looked up from there, and
// written once, into the arena record it lives in. It reports whether the
// entry was new, and returns e carrying its ID: when stored, read back
// from its row, so every string is the set's; on a duplicate, the present
// record's ID.
func (s *Set) Mint(e Entry, node string, seq uint64) (stored Entry, added bool) {
	var buf [32]byte
	id := uniq.AppendID(buf[:0], node, seq)
	h := maphash.Bytes(idSeed, id)
	if ref, ok := lookup(s, id, h); ok {
		e.ID = uniq.ID(s.id(ref))
		return e, false
	}
	old := len(s.rows)
	s.growIndex(1)
	s.place(e, s.arena.putMinted(id, e.Key, e.Note), h)
	stored = s.entry(s.rows[old])
	s.settle(old)
	return stored, true
}

// push stores e after the last row, wherever it sorts, unless its ID is
// already present; settle then restores the order. A pushed row is indexed
// at once, so duplicates inside one batch are caught like any other.
func (s *Set) push(e Entry) bool {
	h := hashID(e.ID)
	if _, ok := lookup(s, e.ID, h); ok {
		return false
	}
	s.store(e, h)
	return true
}

// store is push for an entry known to be absent, h the hash of its ID.
func (s *Set) store(e Entry, h uint64) {
	s.growIndex(1)
	s.place(e, s.arena.put(string(e.ID), e.Key, e.Note), h)
}

// place indexes the record at ref, whose ID hashes to h, and appends e's
// row for it. growIndex must have made room.
func (s *Set) place(e Entry, ref uint32, h uint64) {
	s.index(ref, h)
	s.rows = append(s.rows, row{lam: e.Lam, at: e.At, arg: e.Arg, ref: ref, kind: s.kind(e.Kind)})
}

// kind returns the handle of k's bytes, writing them on first sight.
func (s *Set) kind(k string) uint32 {
	if h, ok := s.kinds[k]; ok {
		return h
	}
	h := s.arena.put(k)
	if len(s.kinds) < maxKinds {
		if s.kinds == nil {
			s.kinds = make(map[string]uint32)
		}
		own, _ := cutString(s.arena.at(h)) // the key must not pin the caller's string
		s.kinds[own] = h
	}
	return h
}

// settle restores canonical order given that rows[:old] are in order and
// rows[old:] were pushed as they arrived.
func (s *Set) settle(old int) {
	// Fast path: the batch extends the tail in order (local submits,
	// in-order gossip) — the pushes were pure appends.
	n := max(old, 1)
	for n < len(s.rows) && s.cmp(s.rows[n-1], s.rows[n]) < 0 {
		n++
	}
	if n == len(s.rows) {
		return
	}
	fresh := s.rows[old:]
	if len(fresh) == 1 {
		// One row into the past: find its place and shift the tail over.
		r := fresh[0]
		i := sort.Search(old, func(i int) bool { return s.cmp(r, s.rows[i]) < 0 })
		copy(s.rows[i+1:], s.rows[i:old])
		s.rows[i] = r
		return
	}
	// Merge path: sort a copy of the newcomers, then merge from the back so
	// every existing row moves at most once.
	s.fresh = append(s.fresh[:0], fresh...)
	fresh = s.fresh
	slices.SortFunc(fresh, s.cmp)
	i, j := old-1, len(fresh)-1
	for w := len(s.rows) - 1; j >= 0; w-- {
		if i >= 0 && s.cmp(fresh[j], s.rows[i]) < 0 {
			s.rows[w] = s.rows[i]
			i--
		} else {
			s.rows[w] = fresh[j]
			j--
		}
	}
}

// cmp orders two rows canonically. The ID, the one part of the key that
// lives in the arena, is read only to break a (Lam, At) tie.
func (s *Set) cmp(a, b row) int {
	if a.lam != b.lam {
		return cmp.Compare(a.lam, b.lam)
	}
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	return strings.Compare(s.id(a.ref), s.id(b.ref))
}

// Start returns the canonical-order position of the first entry sorting
// strictly after w (Len() when none does); the genesis watermark is before
// every entry. With At it walks a suffix in place —
//
//	for i := s.Start(w); i < s.Len(); i++ { e := s.At(i); ... }
//
// — without allocating. It is an index walk on purpose: a range-over-func
// iterator's body is a closure, and whether that stays on the stack is
// decided anew in every generic instantiation ranging over it (it did
// not in quicksandd's fold). Positions hold only
// while the set does not change: the walk is for a caller holding
// whatever lock guards the set for as long as it walks.
func (s *Set) Start(w Watermark) int {
	if w.IsZero() {
		return 0
	}
	return sort.Search(len(s.rows), func(i int) bool {
		r := s.rows[i]
		if r.lam != w.Lam {
			return r.lam > w.Lam
		}
		if r.at != w.At {
			return r.at > w.At
		}
		return s.id(r.ref) > string(w.ID)
	})
}

// id reads the ID of the record at ref.
func (s *Set) id(ref uint32) string {
	id, _ := cutString(s.arena.at(ref))
	return id
}

// entry materializes a row. The strings are substrings of the arena.
func (s *Set) entry(r row) Entry {
	id, rec := cutString(s.arena.at(r.ref))
	key, rec := cutString(rec)
	note, _ := cutString(rec)
	kind, _ := cutString(s.arena.at(r.kind))
	return Entry{ID: uniq.ID(id), Kind: kind, Key: key, Arg: r.arg, Lam: r.lam, At: r.at, Note: note}
}

// lookup finds the record holding id, whose hash is h, through the index.
// The ID may be held as bytes; it is compared in place either way.
func lookup[T ~string | ~[]byte](s *Set, id T, h uint64) (ref uint32, ok bool) {
	if len(s.tags) == 0 {
		return 0, false
	}
	mask, tag := uint64(len(s.tags)-1), tagOf(h)
	for i := h & mask; s.tags[i] != 0; i = (i + 1) & mask {
		if s.tags[i] == tag && s.id(s.refs[i]) == string(id) {
			return s.refs[i], true
		}
	}
	return 0, false
}

// index records that the record at ref holds an ID hashing to h. The ID
// must be absent and growIndex must have made room.
func (s *Set) index(ref uint32, h uint64) {
	mask := uint64(len(s.tags) - 1)
	i := h & mask
	for s.tags[i] != 0 {
		i = (i + 1) & mask
	}
	s.tags[i], s.refs[i] = tagOf(h), ref
}

// growIndex makes room for n more IDs. A slot keeps one byte of its hash,
// so growing rehashes — walking the rows, which reads the arena nearly in
// the order it was written.
func (s *Set) growIndex(n int) {
	need := len(s.rows) + n
	if need*8 <= len(s.tags)*7 {
		return
	}
	size := max(8, len(s.tags))
	for need*8 > size*7 {
		size *= 2
	}
	s.tags, s.refs = make([]uint8, size), make([]uint32, size)
	for _, r := range s.rows {
		s.index(r.ref, hashID(uniq.ID(s.id(r.ref))))
	}
}

// Grow ensures the set has room for n more entries' rows and index slots
// without reallocating either. Callers that know a batch's size (the
// batched ingest loop, recovery replay) call it once up front so the
// per-entry Add is a pure append.
func (s *Set) Grow(n int) {
	if n <= 0 {
		return
	}
	s.rows = slices.Grow(s.rows, n)
	s.growIndex(n)
}

// Contains reports whether an entry with the given ID is present.
func (s *Set) Contains(id uniq.ID) bool {
	_, ok := lookup(s, id, hashID(id))
	return ok
}

// Len reports the number of distinct operations.
func (s *Set) Len() int { return len(s.rows) }

// Union absorbs every entry of o into s, returning how many were new.
// Union is the gossip primitive: "when the work flows together, a new,
// more accurate answer is created" (§7.6).
func (s *Set) Union(o *Set) int {
	old := len(s.rows)
	for _, r := range o.rows {
		id := uniq.ID(o.id(r.ref))
		h := hashID(id)
		if _, ok := lookup(s, id, h); !ok {
			s.store(o.entry(r), h)
		}
	}
	s.settle(old)
	return len(s.rows) - old
}

// Diff returns the entries present in s but absent from o, in canonical
// order. Replicas exchange diffs during anti-entropy.
func (s *Set) Diff(o *Set) []Entry {
	var out []Entry
	for _, r := range s.rows {
		if !o.Contains(uniq.ID(s.id(r.ref))) {
			out = append(out, s.entry(r))
		}
	}
	return out
}

// Copy returns an independent copy. The bytes already in the arena are
// immutable, so the two sets share them; each writes its own from here on.
func (s *Set) Copy() *Set {
	return &Set{
		rows:  slices.Clone(s.rows),
		arena: arena{chunks: slices.Clone(s.arena.chunks)},
		kinds: maps.Clone(s.kinds),
		tags:  slices.Clone(s.tags),
		refs:  slices.Clone(s.refs),
	}
}

// Equal reports whether both sets hold exactly the same entries. Each
// set's entries are in the one canonical order, so equal sets are equal
// sequences.
func (s *Set) Equal(o *Set) bool {
	if len(s.rows) != len(o.rows) {
		return false
	}
	for i, r := range s.rows {
		if s.entry(r) != o.entry(o.rows[i]) {
			return false
		}
	}
	return true
}

// Entries returns all operations in canonical order: ascending Lamport
// timestamp, then ingress time, ties broken by ID. Lamport assignment at
// ingress (see MaxLam) makes an operation sort after everything its
// replica had already seen, so causes fold before effects; the remaining
// ties are concurrent operations, ordered deterministically. Folding
// state in canonical order makes the derived state a pure function of the
// set — the arrival order at this replica "is not the determining factor
// in the outcome" (§7.6).
//
// The returned slice is the caller's; its entries' strings are the set's.
// With the order maintained by Add, this costs one O(n) pass, not a sort.
func (s *Set) Entries() []Entry { return s.EntriesAfter(Watermark{}) }

// EntriesAfter returns, in canonical order, only the entries sorting
// strictly after watermark w — the suffix a checkpointed fold still has
// to apply. The genesis (zero) watermark yields every entry. Cost is
// O(log n) to locate the suffix plus materializing just that suffix.
func (s *Set) EntriesAfter(w Watermark) []Entry {
	tail := s.rows[s.Start(w):]
	if len(tail) == 0 {
		return nil
	}
	out := make([]Entry, len(tail))
	for i, r := range tail {
		out[i] = s.entry(r)
	}
	return out
}

// At materializes the entry at canonical-order position i, 0 <= i < Len().
// Its strings are substrings of the arena.
func (s *Set) At(i int) Entry { return s.entry(s.rows[i]) }

// MaxLam returns the highest Lamport timestamp in the set (0 when empty).
// An ingress point stamps new operations with max(seen)+1. The Lamport
// stamp is the canonical order's primary key, so this reads the last row
// in O(1).
func (s *Set) MaxLam() uint64 {
	if n := len(s.rows); n > 0 {
		return s.rows[n-1].lam
	}
	return 0
}

// Fold applies fn to every entry in canonical order, threading an
// accumulator. It is the generic "derive state from the ledger" helper —
// the from-genesis replay; checkpointed consumers walk from Start(mark)
// instead.
func Fold[S any](s *Set, init S, fn func(S, Entry) S) S {
	acc := init
	for _, r := range s.rows {
		acc = fn(acc, s.entry(r))
	}
	return acc
}

// Journal is an arrival-ordered send buffer with a truncatable prefix —
// the structure behind incremental anti-entropy. A replica appends every
// entry it absorbs and remembers, per peer, the absolute position that
// peer has acknowledged; once every peer it gossips with has acknowledged
// a prefix, TruncateTo releases that prefix's memory. Positions are
// absolute (they keep counting across truncations), so acknowledgement
// bookkeeping never shifts. The zero Journal is ready to use.
type Journal struct {
	base    int // entries truncated off the front
	entries []Entry
	dropped int // truncated entries still pinned by the backing array
}

// JournalAt returns an empty journal whose next append lands at absolute
// position base — the constructor crash recovery uses to resume the
// position numbering of a journal whose prefix [0, base) was already
// truncated before the crash.
func JournalAt(base int) Journal { return Journal{base: base} }

// Append records one entry at position Len().
func (j *Journal) Append(e Entry) { j.entries = append(j.entries, e) }

// AppendAll records the entries at consecutive positions starting at
// Len() — the vectorized sibling of Append. One call grows the backing
// array at most once however many entries a batched ingest absorbed, so
// the amortized per-entry cost stays a copy.
func (j *Journal) AppendAll(entries []Entry) { j.entries = append(j.entries, entries...) }

// Len is the absolute length: every entry ever appended, including the
// truncated prefix.
func (j *Journal) Len() int { return j.base + len(j.entries) }

// Base reports how many leading entries have been truncated away.
func (j *Journal) Base() int { return j.base }

// Retained reports how many entries are still held in memory — the
// figure journal truncation exists to bound.
func (j *Journal) Retained() int { return len(j.entries) }

// Since returns a copy of the entries at absolute positions [from, Len()).
// Asking for a position inside the truncated prefix panics: those entries
// are gone, and silently serving a shorter suffix would break the
// anti-entropy invariant that a peer receives every entry past its ack.
func (j *Journal) Since(from int) []Entry {
	if from < j.base {
		panic(fmt.Sprintf("oplog: journal suffix from %d requested but prefix truncated to %d", from, j.base))
	}
	if from >= j.Len() {
		return nil
	}
	return append([]Entry(nil), j.entries[from-j.base:]...)
}

// TruncateTo drops every entry before absolute position n. The common
// truncation — one per acknowledged gossip push — is an O(1) re-slice;
// the dropped prefix's backing memory is released by an occasional
// compaction once it outweighs what is retained, so a long-lived journal
// never pins more than ~2× its live entries while steady-state
// truncation costs no copy at all. Positions at or below Base (nothing
// new) and beyond Len (clamped) are both safe.
func (j *Journal) TruncateTo(n int) {
	if n > j.Len() {
		n = j.Len()
	}
	if n <= j.base {
		return
	}
	k := n - j.base
	j.entries = j.entries[k:]
	j.base = n
	j.dropped += k
	if j.dropped > len(j.entries) {
		// The pinned prefix outweighs the live tail: copy out and let the
		// old array go. Amortized over the drops that got us here, still
		// O(1) per truncated entry.
		j.entries = append(make([]Entry, 0, len(j.entries)), j.entries...)
		j.dropped = 0
	}
}
