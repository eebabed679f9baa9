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
// the past. Beside the entries sits only a set of their IDs, the §5.4
// "have I seen this uniquifier" index.
//
// The maintained order makes state derivation incremental. A Watermark
// names a position in the canonical order; EntriesAfter(w) returns only
// the entries beyond it, so a consumer that remembers the watermark of
// its last fold can advance its derived state by folding just the new
// suffix instead of replaying the whole ledger. Consumers detect the rare
// sorts-into-the-past insertion by comparing the new entry's Mark against
// their watermark (see Entry.Mark and Watermark.Before) and only then
// fall back to replaying from an older checkpoint. internal/core's
// Replica is the canonical consumer of this contract.
package oplog

import (
	"fmt"
	"slices"
	"sort"

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
type Set struct {
	ordered []Entry              // the entries, in canonical (Lam, At, ID) order
	byID    map[uniq.ID]struct{} // dedup index; keys share their bytes with ordered's IDs
}

// NewSet returns an empty set, optionally seeded with entries.
func NewSet(entries ...Entry) *Set {
	s := &Set{byID: make(map[uniq.ID]struct{})}
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
// Add maintains the canonical index: appending (an entry sorting after
// everything present) is O(1) amortized; an entry sorting into the past
// costs an O(n) insertion, which only out-of-order gossip pays.
func (s *Set) Add(e Entry) bool {
	if _, ok := s.byID[e.ID]; ok {
		return false
	}
	s.byID[e.ID] = struct{}{}
	if n := len(s.ordered); n == 0 || s.ordered[n-1].Mark().Before(e) {
		s.ordered = append(s.ordered, e)
	} else {
		i := s.searchAfter(e.Mark())
		s.ordered = append(s.ordered, Entry{})
		copy(s.ordered[i+1:], s.ordered[i:])
		s.ordered[i] = e
	}
	return true
}

// AddAll unions a batch of entries, returning the ones that were new in
// their input (arrival) order. It is the vectorized sibling of Add: the
// fresh entries are merged into the canonical index in ONE pass, so a
// gossip push of K entries that sort into the past costs one tail move
// instead of K of them — the difference between anti-entropy keeping up
// with sustained ingest and falling quadratically behind it.
func (s *Set) AddAll(entries []Entry) (added []Entry) {
	for _, e := range entries {
		if _, ok := s.byID[e.ID]; ok {
			continue
		}
		s.byID[e.ID] = struct{}{}
		added = append(added, e)
	}
	if len(added) == 0 {
		return nil
	}
	// Fast path: the whole batch extends the tail in order (local submits,
	// in-order gossip) — pure appends.
	inOrder := true
	last := Watermark{}
	if n := len(s.ordered); n > 0 {
		last = s.ordered[n-1].Mark()
	}
	for _, e := range added {
		if !last.Less(e.Mark()) {
			inOrder = false
			break
		}
		last = e.Mark()
	}
	if inOrder {
		s.ordered = append(s.ordered, added...)
		return added
	}
	// Merge path: sort a copy of the newcomers canonically (added itself
	// must keep arrival order for the caller), then merge from the back so
	// every existing entry moves at most once.
	fresh := append(make([]Entry, 0, len(added)), added...)
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Mark().Less(fresh[j].Mark()) })
	old := len(s.ordered)
	s.ordered = append(s.ordered, fresh...)
	i, j, w := old-1, len(fresh)-1, len(s.ordered)-1
	for j >= 0 {
		if i >= 0 && fresh[j].Mark().Less(s.ordered[i].Mark()) {
			s.ordered[w] = s.ordered[i]
			i--
		} else {
			s.ordered[w] = fresh[j]
			j--
		}
		w--
	}
	return added
}

// searchAfter returns the index of the first ordered entry sorting
// strictly after w (len(ordered) if none).
func (s *Set) searchAfter(w Watermark) int {
	return sort.Search(len(s.ordered), func(i int) bool {
		return w.Less(s.ordered[i].Mark())
	})
}

// Grow ensures the canonical index has spare capacity for n more entries
// without reallocating. Callers that know a batch's size (the batched
// ingest loop, recovery replay) call it once up front so the per-entry
// Add is a pure append.
func (s *Set) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(s.ordered) - len(s.ordered); free < n {
		grown := make([]Entry, len(s.ordered), len(s.ordered)+n)
		copy(grown, s.ordered)
		s.ordered = grown
	}
}

// Contains reports whether an entry with the given ID is present.
func (s *Set) Contains(id uniq.ID) bool {
	_, ok := s.byID[id]
	return ok
}

// Len reports the number of distinct operations.
func (s *Set) Len() int { return len(s.ordered) }

// Union absorbs every entry of o into s, returning how many were new.
// Union is the gossip primitive: "when the work flows together, a new,
// more accurate answer is created" (§7.6).
func (s *Set) Union(o *Set) int { return len(s.AddAll(o.ordered)) }

// Diff returns the entries present in s but absent from o, in canonical
// order. Replicas exchange diffs during anti-entropy.
func (s *Set) Diff(o *Set) []Entry {
	var out []Entry
	for _, e := range s.ordered {
		if !o.Contains(e.ID) {
			out = append(out, e)
		}
	}
	return out
}

// Copy returns an independent copy.
func (s *Set) Copy() *Set {
	c := &Set{
		ordered: append([]Entry(nil), s.ordered...),
		byID:    make(map[uniq.ID]struct{}, len(s.ordered)),
	}
	for i := range c.ordered {
		c.byID[c.ordered[i].ID] = struct{}{}
	}
	return c
}

// Equal reports whether both sets hold exactly the same entries. Each
// set's entries are in the one canonical order, so equal sets are equal
// slices.
func (s *Set) Equal(o *Set) bool { return slices.Equal(s.ordered, o.ordered) }

// Entries returns all operations in canonical order: ascending Lamport
// timestamp, then ingress time, ties broken by ID. Lamport assignment at
// ingress (see MaxLam) makes an operation sort after everything its
// replica had already seen, so causes fold before effects; the remaining
// ties are concurrent operations, ordered deterministically. Folding
// state in canonical order makes the derived state a pure function of the
// set — the arrival order at this replica "is not the determining factor
// in the outcome" (§7.6).
//
// The returned slice is a copy; callers may keep or mutate it. With the
// index maintained by Add, this costs one O(n) copy, not a sort.
func (s *Set) Entries() []Entry {
	return append([]Entry(nil), s.ordered...)
}

// EntriesAfter returns, in canonical order, only the entries sorting
// strictly after watermark w — the suffix a checkpointed fold still has
// to apply. The genesis (zero) watermark yields every entry. Cost is
// O(log n) to locate the suffix plus a copy of just that suffix.
func (s *Set) EntriesAfter(w Watermark) []Entry {
	return append([]Entry(nil), s.ViewAfter(w)...)
}

// ViewAfter is EntriesAfter without the copy: a read-only window onto the
// set's own storage, valid only until the next Add, AddAll or Grow. It is
// for a caller that holds whatever lock guards the set for as long as it
// reads the view.
func (s *Set) ViewAfter(w Watermark) []Entry {
	i := 0
	if !w.IsZero() {
		i = s.searchAfter(w)
	}
	return slices.Clip(s.ordered[i:]) // an append by the caller must not land in the set
}

// MaxLam returns the highest Lamport timestamp in the set (0 when empty).
// An ingress point stamps new operations with max(seen)+1. The Lamport
// stamp is the canonical order's primary key, so this reads the index
// tail in O(1).
func (s *Set) MaxLam() uint64 {
	if n := len(s.ordered); n > 0 {
		return s.ordered[n-1].Lam
	}
	return 0
}

// Fold applies fn to every entry in canonical order, threading an
// accumulator. It is the generic "derive state from the ledger" helper —
// the from-genesis replay; checkpointed consumers fold EntriesAfter
// instead.
func Fold[S any](s *Set, init S, fn func(S, Entry) S) S {
	acc := init
	for _, e := range s.ordered {
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
