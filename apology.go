package quicksand

// The memories/guesses/apologies machinery of §5.7, re-exported from
// internal/apology: ledgers account for what each replica remembered,
// guessed, and regretted; the queue routes discovered violations to
// automated compensation handlers first and humans last (§5.6).

import "repro/internal/apology"

type (
	// Apology is a discovered business-rule violation that someone must
	// now smooth over.
	Apology = apology.Apology
	// ApologyHandler attempts automated compensation, returning true if
	// it handled the apology.
	ApologyHandler = apology.Handler
	// ApologyQueue routes apologies to handlers, then to humans. A
	// Cluster's Apologies field holds one shared by all replicas.
	ApologyQueue = apology.Queue
	// Ledger is one replica's account of memories, guesses, and
	// apologies. Memories and guesses are tallied, not stored — the
	// operation set holds every one of them — so Count and Len include
	// them while Entries returns only the lines: regrets and lifecycle
	// events (degraded, rejoined, recovered).
	Ledger = apology.Ledger
	// LedgerEntry is one ledger line: a regret or a lifecycle event.
	LedgerEntry = apology.Entry
	// LedgerKind classifies a ledger entry.
	LedgerKind = apology.Kind
)

// The three categories of all computing (§5.7).
const (
	// Memory: the replica saw and recorded something.
	Memory = apology.Memory
	// Guess: the replica acted on local, partial knowledge.
	Guess = apology.Guess
	// Regret: the replica discovered a guess was wrong.
	Regret = apology.Regret
)
