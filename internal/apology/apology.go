// Package apology implements the paper's §5.7 accounting: "arguably, all
// computing really falls into three categories: memories, guesses, and
// apologies."
//
// A Ledger accounts for what a replica remembered (operations it saw),
// what it guessed (actions taken on local knowledge), and what it
// apologized for: memories and guesses are counted, because the operation
// set already holds them; regrets and lifecycle events are lines.
// A Queue routes apologies the way §5.6 prescribes: try
// business-specific compensation code first, and "send the problem to a
// human" when no handler claims it.
package apology

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/uniq"
)

// Kind classifies a ledger entry.
type Kind int

// The three categories of all computing (§5.7).
const (
	Memory Kind = iota // the replica saw and recorded something
	Guess              // the replica acted on local, partial knowledge
	Regret             // the replica discovered a guess was wrong
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Memory:
		return "memory"
	case Guess:
		return "guess"
	default:
		return "apology"
	}
}

// Entry is one ledger line: a regret, or a lifecycle event of the
// replica itself (degraded, recovered) — the things the
// operation set cannot reproduce.
type Entry struct {
	At   time.Duration
	Kind Kind
	Who  string  // replica that wrote the line
	What string  // human-readable description
	Ref  uniq.ID // apology this line concerns ("" for a lifecycle event)
}

// Ledger is one replica's account of its memories, guesses, and
// apologies. The operation set is the memory — every op the replica saw
// is there, once, with its uniquifier — so the ledger only counts per-op
// memories and guesses (Tally) and keeps lines (Record) for regrets and
// lifecycle events, which are few. When and how one op arrived is the
// tracer's question. The zero value is ready to use; Ledgers are safe
// for concurrent use.
type Ledger struct {
	mu     sync.Mutex
	lines  []Entry
	counts [3]int // lines + tallies, by kind
}

// Record appends a line.
func (l *Ledger) Record(at time.Duration, kind Kind, who, what string, ref uniq.ID) {
	l.mu.Lock()
	l.lines = append(l.lines, Entry{At: at, Kind: kind, Who: who, What: what, Ref: ref})
	l.counts[kind]++
	l.mu.Unlock()
}

// Tally counts n memories or guesses whose record is the operation set
// itself, without storing a line for any of them.
func (l *Ledger) Tally(kind Kind, n int) {
	l.mu.Lock()
	l.counts[kind] += n
	l.mu.Unlock()
}

// Count reports how many entries of the kind exist, recorded or tallied.
func (l *Ledger) Count(kind Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[kind]
}

// Entries returns a copy of the recorded lines, in record order.
func (l *Ledger) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.lines...)
}

// Len reports the total across kinds, recorded or tallied.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[Memory] + l.counts[Guess] + l.counts[Regret]
}

// Reset wipes the ledger. A ledger is per-replica RAM: a hard crash of
// its replica destroys it, and recovery starts a fresh one.
func (l *Ledger) Reset() {
	l.mu.Lock()
	l.lines = nil
	l.counts = [3]int{}
	l.mu.Unlock()
}

// Apology is a discovered business-rule violation that someone must now
// smooth over — "every business includes apologies" (§5.7).
type Apology struct {
	ID      uniq.ID // content-derived: identical violations dedupe
	Rule    string  // which business rule was violated
	Detail  string  // what happened
	Key     string  // object concerned (account, SKU, ...) for handlers
	Amount  int64   // money at stake, in cents (0 if not monetary)
	Replica string  // replica that discovered it
}

// NewApology builds an apology whose ID is derived from rule and detail,
// so the same violation discovered at two replicas collapses to one
// apology.
func NewApology(rule, detail string, amount int64, replica string) Apology {
	return Apology{
		ID:      uniq.ContentID([]byte(rule + "|" + detail)),
		Rule:    rule,
		Detail:  detail,
		Amount:  amount,
		Replica: replica,
	}
}

// Handler attempts automated compensation for an apology, returning true
// if it handled it. Handlers embody §5.6's "write some business specific
// software to reduce the probability that a human needs to be involved."
type Handler func(Apology) bool

// Queue routes apologies to automated handlers, then to humans. The zero
// value is not usable; construct with NewQueue. Queues are safe for
// concurrent use; handlers run outside the queue's lock, so compensation
// code may submit new operations (and thereby new apologies) re-entrantly.
type Queue struct {
	mu        sync.Mutex
	handlers  []Handler
	seen      *uniq.Dedup
	automated []Apology
	human     []Apology
}

// NewQueue returns an empty queue with no handlers.
func NewQueue() *Queue { return &Queue{seen: uniq.NewDedup()} }

// AddHandler appends an automated compensation handler; handlers run in
// registration order.
func (q *Queue) AddHandler(h Handler) {
	q.mu.Lock()
	q.handlers = append(q.handlers, h)
	q.mu.Unlock()
}

// Submit routes one apology. Duplicates (by ID) are dropped. It reports
// whether the apology was newly accepted.
func (q *Queue) Submit(a Apology) bool {
	q.mu.Lock()
	if !q.seen.Record(a.ID) {
		q.mu.Unlock()
		return false
	}
	handlers := append([]Handler(nil), q.handlers...)
	q.mu.Unlock()
	for _, h := range handlers {
		if h(a) {
			q.mu.Lock()
			q.automated = append(q.automated, a)
			q.mu.Unlock()
			return true
		}
	}
	q.mu.Lock()
	q.human = append(q.human, a)
	q.mu.Unlock()
	return true
}

// Automated returns apologies resolved by handlers.
func (q *Queue) Automated() []Apology {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]Apology(nil), q.automated...)
}

// Human returns apologies waiting for a person.
func (q *Queue) Human() []Apology {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]Apology(nil), q.human...)
}

// Total reports all accepted apologies.
func (q *Queue) Total() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.automated) + len(q.human)
}

// String summarizes the queue.
func (q *Queue) String() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return fmt.Sprintf("apologies: %d automated, %d escalated to humans", len(q.automated), len(q.human))
}
