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
// the past. A journal replays through NewSet, the one bulk load, which
// settles what lands near the end as Add does and merges the rest in
// once.
//
// The maintained order makes state derivation incremental. A Watermark
// names a position in the canonical order; Start(w) is where the entries
// beyond it begin, and a Cursor from there walks them in place, so a
// consumer that remembers the watermark of its last fold can advance its
// derived state by folding just the new suffix instead of replaying the
// whole ledger.
// Consumers detect the rare sorts-into-the-past insertion by comparing the
// new entry's Mark against their watermark (see Entry.Mark and
// Watermark.Before) and only then fall back to replaying from an older
// checkpoint. internal/core's Replica is the canonical consumer of this
// contract.
//
// # How a Set is stored
//
// The set is the one structure that grows with every operation ever seen,
// so it is stored packed, in parts the garbage collector never has to look
// inside:
//
//   - one row per entry, in canonical order — Lam, At and Arg and two 32-bit
//     arena handles. The newest rows are the tail: fixed-size rows, 32
//     bytes each, in chunks of rowChunk rows, every one full but the last,
//     so growing it allocates a chunk and copies no row (only the first
//     chunk grows by doubling, so that a small set stays small), and
//     keeping the order means moving rows, never strings. Once the tail
//     holds more than hotChunks full chunks, its oldest is sealed into a
//     block: the chunk's first row whole, and every other row as varint
//     deltas from the row before it, some 6 or 7 bytes where the tail
//     spends 32. An ID the runs hold is kept there as its origin's
//     ordinal and its number, a byte for a replica's (see block), so a
//     sealed row's ID costs no arena bytes. Ingest, in-order and late
//     gossip alike, lands in the tail, since late gossip lands within a
//     thousand rows of the end; a row sorting below the tail thaws the
//     blocks from its place on back into it, and they are sealed anew.
//     Blocks are immutable, so copies share them. A walk decodes each
//     block once (Cursor), and renders the held IDs of a block it enters
//     into one buffer, which a weak pointer keeps for the next walk until
//     the collector frees it; Equal compares rows, a held ID as its
//     origin and number, and renders none. A Cursor is the one read of
//     sealed rows;
//   - append-only byte arenas, their chunks never reallocated, a record
//     never straddling two. The kept arena never lets go of a byte: it
//     holds each payload — Kind, Key and Note, length-prefixed as in the
//     entry codec — once for every row that repeats it, each ID the ID
//     table indexes, each block's first ID, which searches compare, and
//     the origins' names. The ids arena holds the IDs of tail rows that
//     the runs hold; once sealing has moved every row that reads a chunk
//     into blocks, the chunk is retired and its slot reused, so a set
//     keeps the bytes of its newest IDs only. A thaw keeps the numbers of
//     the held IDs it decodes in a third, dropped once they are sealed
//     again;
//   - the §5.4 "have I seen this uniquifier" index, the part stable-prefix
//     compaction will have to keep for good, in two parts that never hold
//     the same ID. An ID an ingress minted — one uniq.ParseID takes apart
//     into a node and a sequence number — is a number in its node's sorted
//     runs of consecutive numbers (see runs), which a replica's IDs fill a
//     run at a time; the map from node to runs, an entry per origin, is,
//     with the list of blocks, one entry per rowChunk rows, and the list
//     of origins, the only part holding pointers. Every other ID, and a
//     minted one no run may take, is a slot in the ID table;
//   - two tables over kept-arena handles, open-addressed, one byte of hash
//     beside each handle — five bytes a slot. One is the ID table. The
//     other finds a payload's record when it repeats. It admits new
//     payloads only while they number fewer than payloadFloor plus one per
//     payloadShare rows, so input whose payloads never repeat costs it at
//     most a fraction of a slot a row, and a payload longer than
//     payloadBuf is never looked up: each entry writes its own record of
//     it.
//
// Entry remains the type at every API. Entries read out of a set are
// materialized from its rows, and their strings are substrings of the
// arenas, or of the string a sealed row's ID was rendered into: valid, and
// unchanged, for as long as anything references them — past the set's own
// life, or the retirement of their chunk, if need be — at the cost of
// keeping the chunk they sit in alive, and read-only like every Go string.
// Nothing handed to a set is retained: Add and AddAll copy the bytes they
// keep, so a caller's strings may be cut from a request body or a network
// frame. The kept arena holds at most 3.5 GiB; the ids arena 256 MiB of
// IDs at once — the tail's, and every ID one batch pushes until it is
// sealed — and the thaws arena 256 MiB of one thaw's numbers, a few bytes
// a held row.
//
// An ingress ID need not exist as a string before its entry is stored:
// Mint takes the node and sequence number instead, renders the ID on the
// stack (uniq.AppendID, the formatter uniq.Gen uses), checks the index
// from there and writes the bytes once, into the record of the arena that
// keeps it — so a guess's uniquifier is never a heap object of its own,
// and the entry Mint returns carries the set's copy onward.
package oplog

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"time"

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
	ID   uniq.ID       // uniquifier assigned at ingress
	Kind string        // business operation name, e.g. "add-to-cart"
	Key  string        // object the operation targets (item, account, ...)
	Arg  int64         // numeric argument (quantity, cents, ...)
	Lam  uint64        // Lamport timestamp: orders causally related operations
	At   time.Duration // ingress wall-clock timestamp (statement cutoffs etc.)
	Note string        // free-form annotation carried with the op
}

// Mark returns the entry's position in the canonical order.
func (e Entry) Mark() Watermark { return Watermark{Lam: e.Lam, At: e.At, ID: e.ID} }

// Watermark names a position in the canonical (Lam, At, ID) order. The
// zero Watermark sorts before every real entry (real entries carry
// non-empty IDs), so it means "genesis: nothing folded yet".
type Watermark struct {
	Lam uint64
	At  time.Duration
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
// An entry is stored in pointer-free parts: a row in canonical order, in
// the tail or packed in a block, its ID's record in an arena — unless it
// is sealed and its ID is in a run, which the block keeps as its origin
// and number — its ID in a run or a slot of the ID table, and its
// payload's record, which rows with equal payloads share. Entries read
// back out are materialized from the row; their strings are substrings of
// the arenas or of a rendering (see the package comment).
type Set struct {
	// Canonical (Lam, At, ID) order: position i is in blocks[i>>rowBits]
	// while i < sealed(), and rows[i>>rowBits-len(blocks)][i&rowMask] after.
	blocks  []block // the older rows, sealed rowChunk to a block
	rows    [][]row // the tail: the newest rows, every chunk full but the last
	n       int     // rows held
	arena   arena   // kept: payload records, the ID table's IDs, blocks' first IDs and origin names
	ids     arena   // the held IDs of tail rows; retires chunks as their rows seal
	thaws   arena   // a thaw's held numbers until they are sealed or written out to ids
	runs    runs    // the ingress-form IDs, as numbers in their origin's runs
	idTable table   // the other rows' ID records, by ID
	pays    table   // the interned payload records, by their bytes

	// Scratch AddAll reuses: its result, and order's sorted newcomers.
	added []Entry
	fresh []row
}

// row is the fixed-size part of one entry: the sort key and the numeric
// payload inline, the strings by arena handle.
type row struct {
	lam uint64
	at  time.Duration
	arg int64
	ref uint32 // the ID record, one uvarint-length-prefixed string: in ids when held, else in the kept arena
	pay uint32 // the payload record: Kind, Key and Note, each uvarint-length-prefixed
}

// A row's ID handle says where its ID is. One below idsBase is a handle
// into the kept arena. One from idsBase on is held — the runs hold the ID,
// and a sealed block keeps it as its origin and number: idsBase plus a
// handle into the ids arena, or, while a thaw is being settled, thawBase
// plus one into the thaws arena. So the kept arena, which never lets go
// of a byte, has 3.5 GiB of handle space, and the ids arena, which holds
// the tail's IDs, and the thaws arena, which holds one thaw's numbers,
// 256 MiB each.
const (
	idsBase   = 0xE000_0000
	thawBase  = 0xF000_0000
	keptSlots = idsBase >> chunkBits
	idsSlots  = (thawBase - idsBase) >> chunkBits
	thawSlots = (1<<32 - thawBase) >> chunkBits
)

// isHeld reports whether the ID handle ref is a held ID's.
func isHeld(ref uint32) bool { return ref >= idsBase }

// idOf reads the ID of a tail row's record at ref.
func (s *Set) idOf(ref uint32) string {
	if isHeld(ref) {
		return s.ids.id(ref - idsBase)
	}
	return s.arena.id(ref)
}

// payload returns the payload record at ref in a, its three strings with
// their length prefixes.
func payload(a *arena, ref uint32) string {
	rec := a.at(ref)
	_, rest := cutString(rec)
	_, rest = cutString(rest)
	_, rest = cutString(rest)
	return rec[:len(rec)-len(rest)]
}

// fill materializes a row whose ID is id into e, in place. The payload's
// strings are substrings of the kept arena.
func (s *Set) fill(e *Entry, r *row, id string) {
	kind, rec := cutString(s.arena.at(r.pay))
	key, rec := cutString(rec)
	note, _ := cutString(rec)
	// Field by field: building an Entry and copying it over *e made a walk
	// over sealed rows a tenth slower.
	e.ID, e.Kind, e.Key, e.Arg, e.Lam, e.At, e.Note = uniq.ID(id), kind, key, r.arg, r.lam, r.at, note
}

// The slab's chunks hold rowChunk rows, 128 KiB.
const (
	rowBits  = 12
	rowChunk = 1 << rowBits
	rowMask  = rowChunk - 1
)

// The payload table's bounds. A lookup encodes the payload's record in a
// stack buffer of payloadBuf bytes; a longer one is written per entry. A
// new payload is admitted while the table holds fewer than payloadFloor
// plus one per payloadShare rows: the payloads an application repeats (its
// kinds × keys) are admitted early, and a stream that never repeats stops
// growing the table at one payload per eight rows.
const (
	payloadBuf   = 64
	payloadFloor = 256
	payloadShare = 8
)

// NewSet returns an empty set, optionally seeded with entries, in any
// order: the bulk load every replay of a journal goes through. It pushes
// them in input order, so the first copy of an ID wins. Each that lands
// within the last rowChunk rows is settled at once, as Add settles it, so
// the tail seals as it fills and an ordered journal is never held
// unsealed. From the first that lands deeper on, the rest are pushed
// unsettled and merged in once at the end, with one thaw: a journal whose
// origins arrive one after another, as after a partition heals, costs
// one merge, not a thaw per entry. The merge's scratch is dropped, so the
// set keeps none sized by its input.
func NewSet(entries ...Entry) *Set {
	s := &Set{arena: arena{slots: keptSlots}, ids: arena{slots: idsSlots}, thaws: arena{slots: thawSlots}}
	s.grow(len(entries))
	deep := -1 // the first position pushed and not settled
	for _, e := range entries {
		switch old := s.n; {
		case !s.push(e) || deep >= 0: // a duplicate, or one the merge at the end takes
		case old >= rowChunk && s.cmp(*s.row(old), *s.row(old - rowChunk)) < 0:
			deep = old
		default:
			s.settle(old)
		}
	}
	if deep >= 0 {
		s.settle(deep)
	}
	s.fresh = nil
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
	old := s.n
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
// with sustained ingest and falling quadratically behind it. A journal
// replays through NewSet instead, which settles as it goes and
// materializes nothing.
//
// The result is the set's own scratch, materialized from the rows just
// stored (its strings are the set's, like any entry read out of it): valid
// until the next AddAll, and never to be written. Copy what must outlive
// that.
func (s *Set) AddAll(entries []Entry) (added []Entry) {
	old := s.n
	s.added = s.added[:0]
	for _, e := range entries {
		if s.push(e) {
			s.added = append(s.added, s.at(s.n-1))
		}
	}
	s.settle(old)
	return s.added
}

// Mint is Add for an entry whose ID is the ingress ID uniq.AppendID
// renders for node and seq — e.ID is ignored — and which nobody has built
// yet: seq is looked up in node's runs, the ID is rendered into a stack
// buffer and looked up from there in the ID table, and it is written
// once, into the record of the arena that keeps it: ids when a run takes
// the number, else the kept arena, for the ID table. It reports whether the
// entry was new, and returns e carrying its ID: when stored, read back
// from its row, so every string is the set's; on a duplicate, the ID
// rendered.
func (s *Set) Mint(e Entry, node string, seq uint64) (stored Entry, added bool) {
	var buf [32]byte
	id := uniq.AppendID(buf[:0], node, seq)
	if s.runs.has(node, seq) || s.idTable.n > 0 && inTable(s, id, maphash.Bytes(hashSeed, id)) {
		e.ID = uniq.ID(id)
		return e, false
	}
	old := s.n
	if s.runs.add(&s.arena, node, seq, s.n) {
		s.place(e, idsBase+s.ids.putMinted(id))
	} else {
		s.place(e, s.index(s.arena.putMinted(id)))
	}
	stored = s.at(old)
	s.settle(old)
	return stored, true
}

// push stores e after the last row, wherever it sorts, unless its ID is
// already present; settle then restores the order. A pushed row is indexed
// at once, so duplicates inside one batch are caught like any other.
// Whether a run takes the ID decides which arena it is written to, once.
func (s *Set) push(e Entry) bool {
	node, seq, ingress := uniq.ParseID(string(e.ID))
	if s.holds(e.ID, node, seq, ingress) {
		return false
	}
	if ingress && s.runs.add(&s.arena, node, seq, s.n) {
		s.place(e, idsBase+s.ids.put(string(e.ID)))
	} else {
		s.place(e, s.index(s.arena.put(string(e.ID))))
	}
	return true
}

// holds reports whether the set holds id, which is node's number seq when
// ingress: in node's runs, else in the ID table, which is not looked at
// while it is empty.
func (s *Set) holds(id uniq.ID, node string, seq uint64, ingress bool) bool {
	if ingress && s.runs.has(node, seq) {
		return true
	}
	return s.idTable.n > 0 && inTable(s, id, maphash.String(hashSeed, string(id)))
}

// inTable reports whether the ID table holds id, which hashes to h.
func inTable[T ~string | ~[]byte](s *Set, id T, h uint64) bool {
	_, ok := find(&s.idTable, &s.arena, id, h, idKey)
	return ok
}

// index puts the kept arena's ID record at ref in the ID table, and
// returns ref.
func (s *Set) index(ref uint32) uint32 {
	s.idTable.reserve(&s.arena, idKey)
	s.idTable.insert(ref, maphash.String(hashSeed, s.arena.id(ref)))
	return ref
}

// place appends e's row, its ID the record at ref.
func (s *Set) place(e Entry, ref uint32) {
	s.growRows(s.n + 1)
	c := s.n>>rowBits - len(s.blocks)
	s.rows[c] = append(s.rows[c], row{lam: e.Lam, at: e.At, arg: e.Arg, ref: ref, pay: s.payload(e.Kind, e.Key, e.Note)})
	s.n++
}

// payload returns the handle of a record of kind, key and note: the
// payload table's when it holds one, else a new record, which the table
// admits while its bound allows. The record is encoded on the stack for
// the lookup, so looking up allocates nothing.
func (s *Set) payload(kind, key, note string) uint32 {
	if stringSize(len(kind))+stringSize(len(key))+stringSize(len(note)) > payloadBuf {
		return s.arena.put(kind, key, note)
	}
	var buf [payloadBuf]byte
	rec := appendString(appendString(appendString(buf[:0], kind), key), note)
	h := maphash.Bytes(hashSeed, rec)
	if ref, ok := find(&s.pays, &s.arena, rec, h, payloadKey); ok {
		return ref
	}
	ref := s.arena.put(kind, key, note)
	if s.pays.n < payloadFloor+s.n/payloadShare {
		s.pays.reserve(&s.arena, payloadKey)
		s.pays.insert(ref, h)
	}
	return ref
}

// growRows makes room in the tail for need rows in all. A chunk past the
// first is allocated whole, so growing copies no row; the first doubles
// until it is whole, so that a small set stays small.
func (s *Set) growRows(need int) {
	need -= s.sealed()
	for c := s.n>>rowBits - len(s.blocks); c<<rowBits < need; c++ {
		if c == len(s.rows) {
			s.rows = append(s.rows, nil)
		}
		ch := s.rows[c]
		if want := min(need-c<<rowBits, rowChunk); cap(ch) < want {
			size := rowChunk
			if c == 0 {
				size = min(max(want, 2*cap(ch), 8), rowChunk)
			}
			s.rows[c] = append(make([]row, 0, size), ch...)
		}
	}
}

// row returns the tail's row at canonical-order position i, i >= sealed().
func (s *Set) row(i int) *row { return &s.rows[i>>rowBits-len(s.blocks)][i&rowMask] }

// settle restores canonical order given that the rows before position old
// are in order and those from old on were pushed as they arrived, then
// seals what the tail has outgrown.
func (s *Set) settle(old int) {
	s.order(old)
	s.seal()
}

// order is settle's first half. A set with blocks keeps hotChunks full
// chunks in its tail, so old is a tail position; a newcomer sorting below
// the tail's first row thaws the blocks its place falls in.
func (s *Set) order(old int) {
	// Fast path: the batch extends the tail in order (local submits,
	// in-order gossip) — the pushes were pure appends.
	n := max(old, 1)
	for n < s.n && s.cmp(*s.row(n - 1), *s.row(n)) < 0 {
		n++
	}
	if n >= s.n {
		return
	}
	if len(s.blocks) > 0 {
		low := *s.row(old)
		for i := old + 1; i < s.n; i++ {
			if s.cmp(*s.row(i), low) < 0 {
				low = *s.row(i)
			}
		}
		if s.cmp(low, *s.row(s.sealed())) < 0 {
			s.thaw(low)
		}
	}
	base := s.sealed()
	if s.n-old == 1 {
		// One row into the past: find its place and shift the tail over.
		r := *s.row(old)
		i := base + sort.Search(old-base, func(i int) bool { return s.cmp(r, *s.row(base + i)) < 0 })
		s.shift(i, old)
		*s.row(i) = r
		return
	}
	// Merge path: sort a copy of the newcomers, then merge from the back so
	// every existing row moves at most once.
	s.fresh = s.fresh[:0]
	for i := old; i < s.n; i++ {
		s.fresh = append(s.fresh, *s.row(i))
	}
	fresh := s.fresh
	slices.SortFunc(fresh, s.cmp)
	i, j := old-1, len(fresh)-1
	for w := s.n - 1; j >= 0; w-- {
		if i >= base && s.cmp(fresh[j], *s.row(i)) < 0 {
			*s.row(w) = *s.row(i)
			i--
		} else {
			*s.row(w) = fresh[j]
			j--
		}
	}
}

// shift moves the rows at positions [i, j) up one place, to [i+1, j+1), a
// chunk at a time from the back. Position j must exist.
func (s *Set) shift(i, j int) {
	for j > i {
		if j&rowMask == 0 { // j begins a chunk: the row before it crosses over
			*s.row(j) = *s.row(j - 1)
			j--
			continue
		}
		lo := max(i, j&^rowMask)
		ch := s.rows[j>>rowBits-len(s.blocks)]
		copy(ch[lo&rowMask+1:j&rowMask+1], ch[lo&rowMask:j&rowMask])
		j = lo
	}
}

// cmp orders two tail rows canonically. The ID, the one part of the key
// that lives in an arena, is read only to break a (Lam, At) tie.
func (s *Set) cmp(a, b row) int {
	if a.lam != b.lam {
		return cmp.Compare(a.lam, b.lam)
	}
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.ref >= thawBase || b.ref >= thawBase { // a thawed row's ID is rendered on the stack
		var bx, by [64]byte
		return bytes.Compare(s.appendID(bx[:0], a.ref), s.appendID(by[:0], b.ref))
	}
	return strings.Compare(s.idOf(a.ref), s.idOf(b.ref))
}

// appendID appends the ID of the tail row whose ID record is at ref to b.
func (s *Set) appendID(b []byte, ref uint32) []byte {
	if ord, seq, ok := s.thawed(ref); ok {
		return uniq.AppendID(b, s.runs.origins[ord], seq)
	}
	return append(b, s.idOf(ref)...)
}

// Start returns the canonical-order position of the first entry sorting
// strictly after w (Len() when none does); the genesis watermark is before
// every entry. A Cursor from it walks the suffix in place. Positions hold
// only while the set does not change. Start searches the tail, or the
// blocks' first rows and then one block.
func (s *Set) Start(w Watermark) int {
	if w.IsZero() {
		return 0
	}
	base := s.sealed()
	if base == 0 || !s.after(*s.row(base), w) {
		return base + sort.Search(s.n-base, func(i int) bool { return s.after(*s.row(base + i), w) })
	}
	b := sort.Search(len(s.blocks), func(k int) bool { return s.after(s.blocks[k].first, w) })
	if b == 0 {
		return 0
	}
	d := s.blocks[b-1].open()
	for k := 1; k < rowChunk; k++ {
		if d.next(); s.readAfter(&d, w) {
			return (b-1)<<rowBits + k
		}
	}
	return b << rowBits
}

// after reports whether r, a tail row or a block's first, sorts strictly
// after w.
func (s *Set) after(r row, w Watermark) bool {
	if r.lam != w.Lam {
		return r.lam > w.Lam
	}
	if r.at != w.At {
		return r.at > w.At
	}
	return s.idOf(r.ref) > string(w.ID)
}

// readAfter is after for the row d last read. A held ID that a tie leaves
// to compare is rendered on the stack.
func (s *Set) readAfter(d *rowReader, w Watermark) bool {
	if !d.held || d.r.lam != w.Lam || d.r.at != w.At {
		return s.after(d.r, w)
	}
	var buf [64]byte
	return string(d.renderID(s, buf[:0])) > string(w.ID)
}

// grow makes room for n more entries' rows in the tail, allocated now
// rather than chunk by chunk, but no more than the tail holds before it
// seals, so a long journal does not allocate a row for every entry up
// front. The tables grow as the entries arrive.
func (s *Set) grow(n int) {
	if n > 0 {
		s.growRows(min(s.n+n, s.sealed()+(hotChunks+1)*rowChunk))
	}
}

// Contains reports whether an entry with the given ID is present.
func (s *Set) Contains(id uniq.ID) bool {
	node, seq, ingress := uniq.ParseID(string(id))
	return s.holds(id, node, seq, ingress)
}

// Len reports the number of distinct operations.
func (s *Set) Len() int { return s.n }

// Union absorbs every entry of o into s, returning how many were new.
// Union is the gossip primitive: "when the work flows together, a new,
// more accurate answer is created" (§7.6).
func (s *Set) Union(o *Set) int {
	old := s.n
	var e Entry
	for c := o.Cursor(0); c.Next(&e); {
		s.push(e)
	}
	s.settle(old)
	return s.n - old
}

// Copy returns an independent copy. Tail rows move in place and runs grow
// in place, so each set has tail chunks and runs of its own. Blocks, and
// the bytes already in the arenas, are immutable, so the two sets share
// them — a copy costs its tail, not its length — and each writes its own
// from here on. Each has its own list of each arena's chunks, so one
// retiring a chunk never empties the other's slot.
func (s *Set) Copy() *Set {
	c := &Set{
		blocks:  slices.Clone(s.blocks),
		n:       s.n,
		arena:   s.arena.clone(),
		ids:     s.ids.clone(),
		thaws:   arena{slots: thawSlots},
		runs:    s.runs.clone(),
		idTable: s.idTable.clone(),
		pays:    s.pays.clone(),
	}
	for _, ch := range s.rows {
		if len(ch) > 0 {
			c.rows = append(c.rows, slices.Clone(ch))
		}
	}
	return c
}

// Equal reports whether both sets hold exactly the same entries. Each
// set's entries are in the one canonical order, so equal sets are equal
// sequences. The rows are compared, not entries read from them, so a
// sealed row's ID is never rendered.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for a, b := s.Cursor(0), o.Cursor(0); a.step() && b.step(); {
		if !sameRow(&a, &b) {
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
func (s *Set) Entries() []Entry {
	if s.n == 0 {
		return nil
	}
	out := make([]Entry, s.n)
	c := s.Cursor(0)
	for i := range out {
		c.Next(&out[i])
	}
	return out
}

// at materializes the tail's entry at canonical-order position i,
// sealed() <= i < Len(): the row AddAll or Mint just wrote. Its strings
// are substrings of the set's arenas.
func (s *Set) at(i int) (e Entry) {
	r := s.row(i)
	s.fill(&e, r, s.idOf(r.ref))
	return e
}

// MaxLam returns the highest Lamport timestamp in the set (0 when empty).
// An ingress point stamps new operations with max(seen)+1. The Lamport
// stamp is the canonical order's primary key, so this reads the last row,
// which the tail holds, in O(1).
func (s *Set) MaxLam() uint64 {
	if s.n > 0 {
		return s.row(s.n - 1).lam
	}
	return 0
}

// Fold applies fn to every entry in canonical order, threading an
// accumulator. It is the generic "derive state from the ledger" helper —
// the from-genesis replay; checkpointed consumers walk from Start(mark)
// instead.
func Fold[S any](s *Set, init S, fn func(S, Entry) S) S {
	acc := init
	var e Entry
	for c := s.Cursor(0); c.Next(&e); {
		acc = fn(acc, e)
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

// Since returns a copy of the entries from absolute position from on, as
// many as fit in maxBytes of EntrySize but always at least one: a prefix
// of [from, Len()) that the caller ships and continues after. Asking for a
// position inside the truncated prefix panics: those entries are gone, and
// silently serving a shorter suffix would break the anti-entropy invariant
// that a peer receives every entry past its ack.
func (j *Journal) Since(from, maxBytes int) []Entry {
	if from < j.base {
		panic(fmt.Sprintf("oplog: journal suffix from %d requested but prefix truncated to %d", from, j.base))
	}
	if from >= j.Len() {
		return nil
	}
	suffix := j.entries[from-j.base:]
	n, size := 1, EntrySize(suffix[0])
	for ; n < len(suffix); n++ {
		if size += EntrySize(suffix[n]); size > maxBytes {
			break
		}
	}
	return append([]Entry(nil), suffix[:n]...)
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
