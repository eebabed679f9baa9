// Package wal implements a write-ahead log with a durability watermark and
// a group committer.
//
// The log is the mechanism §3.2 of the paper describes: "the transaction
// log, describing the changes to the state on disk, was also used to
// describe the changes that should be known to the backup disk process" —
// checkpointing and logging combined into one stream. Records may
// "lollygag" in the in-memory tail until a flush pushes them across the
// failure boundary (to a sink: a backup DP, an ADP, a remote datacenter).
//
// The GroupCommitter models §3.2's city-bus economics [Group Commit
// Timers, Helland et al. 1987]: instead of a disk flush per commit (a car
// per driver), commits board a shared flush that departs on a timer or
// when full.
package wal

import (
	"time"

	"repro/internal/sim"
)

// LSN is a log sequence number. LSNs start at 1; 0 means "nothing".
type LSN uint64

// Kind classifies a log record.
type Kind uint8

// Record kinds. Write records carry the data; Commit/Abort close a
// transaction; Begin is informational.
const (
	KindBegin Kind = iota
	KindWrite
	KindCommit
	KindAbort
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindWrite:
		return "write"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	default:
		return "unknown"
	}
}

// Record is one log entry.
type Record struct {
	LSN   LSN
	Txn   uint64 // transaction the record belongs to
	Kind  Kind
	Key   string // for Write records
	Value string // for Write records
}

// Log is an append-only record sequence with a flushed watermark.
// Records at or below the watermark have crossed the failure boundary
// (been handed to the sink); records above it are the volatile tail that a
// fail-fast crash destroys. The zero value is not usable; construct with
// New.
type Log struct {
	records []Record
	flushed LSN
	sink    func([]Record)
}

// New returns an empty log. sink, which may be nil, receives each newly
// flushed batch exactly once, in order.
func New(sink func([]Record)) *Log { return &Log{sink: sink} }

// Append assigns the next LSN to r and appends it to the volatile tail.
func (l *Log) Append(r Record) LSN {
	r.LSN = LSN(len(l.records) + 1)
	l.records = append(l.records, r)
	return r.LSN
}

// LastLSN reports the LSN of the newest record (0 when empty).
func (l *Log) LastLSN() LSN { return LSN(len(l.records)) }

// FlushedLSN reports the durability watermark.
func (l *Log) FlushedLSN() LSN { return l.flushed }

// Unflushed returns the volatile tail: records past the watermark.
func (l *Log) Unflushed() []Record {
	return append([]Record(nil), l.records[l.flushed:]...)
}

// Flush advances the watermark to the log tail, hands the newly flushed
// records to the sink, and returns them.
func (l *Log) Flush() []Record {
	newly := append([]Record(nil), l.records[l.flushed:]...)
	l.flushed = l.LastLSN()
	if l.sink != nil && len(newly) > 0 {
		l.sink(newly)
	}
	return newly
}

// Since returns all records with LSN strictly greater than after, up to
// and including the flushed watermark. Log shipping reads with Since: only
// durable records travel.
func (l *Log) Since(after LSN) []Record {
	if after >= l.flushed {
		return nil
	}
	return append([]Record(nil), l.records[after:l.flushed]...)
}

// All returns every appended record, flushed or not. Recovery inspection
// ("examine the work in the tail of the log and determine what the heck to
// do", §5.1) uses All.
func (l *Log) All() []Record { return append([]Record(nil), l.records...) }

// LoseTail discards the volatile tail, simulating a fail-fast crash of the
// process holding the log buffer. It returns the lost records.
func (l *Log) LoseTail() []Record {
	lost := append([]Record(nil), l.records[l.flushed:]...)
	l.records = l.records[:l.flushed]
	return lost
}

// Config tunes a GroupCommitter.
type Config struct {
	// Interval is the maximum time a commit waits for the shared flush.
	// Zero means flush as soon as the device is free, coalescing every
	// commit that arrived while the previous flush was in flight.
	Interval time.Duration
	// MaxBatch, if positive, departs the flush early once this many
	// commits are waiting.
	MaxBatch int
	// FlushCost is the simulated duration of one flush (disk write or
	// checkpoint message round trip). Flushes serialize: the device has
	// capacity one.
	FlushCost time.Duration
	// NoCoalesce is the strict car-per-driver of 1984: every commit pays
	// for its own flush, queued behind all earlier ones. Under load the
	// queue — and commit latency — grow without bound, which is exactly
	// the behaviour group commit was invented to fix (§3.2).
	NoCoalesce bool
}

// GroupCommitter batches commit durability requests into shared flushes on
// a simulator. Construct with NewGroupCommitter.
type GroupCommitter struct {
	s       *sim.Sim
	log     *Log
	cfg     Config
	waiters []func()
	// flushing marks a flush in flight; timerArmed marks a departure
	// timer pending.
	flushing   bool
	timerArmed bool
	flushes    int
	batched    int           // total commits served, for mean batch size
	busyUntil  time.Duration // device queue tail in NoCoalesce mode
}

// NewGroupCommitter wires a committer to a simulator and a log.
func NewGroupCommitter(s *sim.Sim, log *Log, cfg Config) *GroupCommitter {
	return &GroupCommitter{s: s, log: log, cfg: cfg}
}

// Commit requests durability for everything appended so far. done runs
// after the flush that covers the current log tail completes. A commit
// arriving during an in-flight flush boards the next one.
func (g *GroupCommitter) Commit(done func()) {
	if g.cfg.NoCoalesce {
		// One flush per commit, serialized behind the device queue.
		now := g.s.Now()
		start := g.busyUntil
		if start < now {
			start = now
		}
		g.busyUntil = start + g.cfg.FlushCost
		g.s.At(g.busyUntil, func() {
			g.log.Flush()
			g.flushes++
			g.batched++
			done()
		})
		return
	}
	g.waiters = append(g.waiters, done)
	switch {
	case g.flushing:
		// Will be picked up when the current flush lands.
	case g.cfg.Interval == 0:
		g.startFlush()
	case g.cfg.MaxBatch > 0 && len(g.waiters) >= g.cfg.MaxBatch:
		g.startFlush()
	case !g.timerArmed:
		g.timerArmed = true
		g.s.After(g.cfg.Interval, func() {
			g.timerArmed = false
			if !g.flushing && len(g.waiters) > 0 {
				g.startFlush()
			}
		})
	}
}

func (g *GroupCommitter) startFlush() {
	g.flushing = true
	boarding := g.waiters
	g.waiters = nil
	g.s.After(g.cfg.FlushCost, func() {
		g.log.Flush()
		g.flushes++
		g.batched += len(boarding)
		for _, done := range boarding {
			done()
		}
		g.flushing = false
		// Commits that arrived during the flush have waited long
		// enough: depart again immediately.
		if len(g.waiters) > 0 {
			g.startFlush()
		}
	})
}

// Flushes reports how many flushes have completed.
func (g *GroupCommitter) Flushes() int { return g.flushes }

// MeanBatch reports the mean commits per flush (0 before any flush).
func (g *GroupCommitter) MeanBatch() float64 {
	if g.flushes == 0 {
		return 0
	}
	return float64(g.batched) / float64(g.flushes)
}
