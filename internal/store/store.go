// Package store is the durable tier of a replica: a disk-backed,
// append-only, segmented journal of oplog entries plus atomic ledger
// snapshots, glued together by a group-commit fsync loop.
//
// §3.2 of Building on Quicksand is the design brief. The transaction log
// "describing the changes to the state on disk" is also the stream that
// carries state across the failure boundary — checkpointing and logging
// are one mechanism, so this store persists the *operations* (the ledger
// the ACID 2.0 engine already gossips), never derived state. A snapshot
// here is not a memory image: it is the checkpointed prefix of the
// ledger itself, serialized in canonical fold order, from which recovery
// re-derives the fold checkpoint by replaying — the log *is* the
// checkpoint. And commits board a shared fsync the way §3.2's riders
// board a city bus [Group Commit Timers, Helland et al. 1987]: a flush
// departs after a load-shaped hold or when full, so N concurrent commits
// cost far fewer than N disk flushes (internal/wal models the same
// economics on the simulator; this package pays them against real
// files).
//
// # On-disk layout
//
// A store owns one directory:
//
//	journal-0000000000.seg   segment: header, then records
//	journal-0000012345.seg   (filename = absolute position of first record)
//	free-0000000003.seg      retired segment awaiting recycling
//	snap-0000012000.snap     full snapshot taken at journal position 12000
//	delta-0000012400.snap    delta snapshot: entries [parent, 12400) + chain link
//	incarnation              the next Open's incarnation number (Recovery.Incarnation)
//
// A segment header is the 6-byte magic "QSEG2\n" plus the segment's
// start position (uint64 LE); a pre-salt "QSEG1\n" segment is refused
// with ErrLegacySegment, never truncated. The incarnation file is the
// magic "QINC1\n", a uint64 LE and a CRC-32C of both; it is replaced
// atomically, and anything else under its name is ErrBadIncarnation.
// Every journal record is [uint32 length][uint32 CRC-32C][entry bytes]
// (little-endian, oplog.AppendEntry payload), with the CRC salted by a
// seed derived from the segment's start position — see seedFor. Appends
// go to the last segment; once it exceeds Options.SegmentBytes it is
// sealed (fsynced, truncated to its data, closed) and a fresh segment
// starts at the next position, popped from the free pool when one is
// waiting and preallocated to SegmentBytes (Options.Preallocate) so
// appends never pay allocate-and-extend at flush time. Snapshots are
// written to a temp file, fsynced, and renamed into place — they are
// atomic or absent. With Options.SnapshotChain = k, cuts alternate:
// delta snapshots carry only the entries past the previous cut plus a
// parent-position link, and every k-th cut is full, resetting the
// chain; recovery folds the newest intact chain root-first. Pruning
// keeps the newest Options.KeepSnapshots full snapshots plus every
// delta at or past the oldest retained full's position.
//
// # Recovery and the truncation invariant
//
// Open replays the directory back into memory: newest parseable
// snapshot, then every retained journal record after it. A torn final
// record — a crash mid-append — is truncated away and counted, exactly
// the "examine the work in the tail of the log and determine what the
// heck to do" of §5.1; an invalid record anywhere *before* the tail is
// corruption and fails Open loudly. Journal segments are retired only
// when every position they hold is below BOTH the base of the newest
// durable snapshot chain (Open could rebuild without them even if every
// delta above the base is torn) and the position every gossip peer has
// acknowledged (no peer will ever need them re-pushed): Compact takes
// the min of the chain base and the watermark the owner feeds it.
// Retired segments join the free pool for recycling rather than being
// unlinked, up to maxFreeSegs.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/oplog"
	"repro/internal/stats"
)

// Filenames and framing constants.
const (
	segMagicV1 = "QSEG1\n" // pre-salt journal segment header: refused, see ErrLegacySegment
	segMagicV2 = "QSEG2\n" // salted journal segment header: magic + uint64 LE start position
	snapMagic  = "QSNP1\n" // full snapshot header
	deltaMagic = "QSND1\n" // delta snapshot header: adds a parent-position chain link
	snapFooter = "QEND\n"  // snapshot trailer: present iff the write completed
	incMagic   = "QINC1\n" // incarnation file: magic + uint64 LE next incarnation + uint32 CRC-32C of both
	incFile    = "incarnation"
	recHdrLen  = 8        // uint32 length + uint32 CRC-32C
	maxRecord  = 16 << 20 // sanity bound on one record's payload

	segHdrV2 = len(segMagicV2) + 8 // v2 header: magic + start position

	// maxFreeSegs bounds the recycled-segment pool; retirements beyond it
	// are deleted as before.
	maxFreeSegs = 4
	// maxDeltaPending bounds the staged-entry buffer feeding delta
	// snapshot cuts. An owner that stages this much without ever cutting
	// has effectively disabled snapshots; the buffer is dropped and the
	// next cut is forced full rather than holding the memory hostage.
	maxDeltaPending = 1 << 16

	// The adaptive flush curve (see adaptiveHold). maxWait caps the
	// coalescing hold regardless of fsync cost; kneeBytes is the load at
	// which the hold saturates — roughly a hundred typical entries, enough
	// riders that the fsync is well amortized. At 4× kneeBytes of staged
	// backlog the flusher departs early.
	maxWait   = 2 * time.Millisecond
	kneeBytes = 8 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seedFor derives a segment's CRC seed from its absolute start position.
// Every record CRC is salted with its segment's seed, and positions are
// never reused across a store's lifetime — so when a retired segment file
// is recycled as a new segment, the old life's records (valid CRCs under
// the old seed) can never verify under the new one. Recovery sees them as
// a torn tail, exactly like any other stale bytes past the real end.
func seedFor(start int) uint32 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(start))
	return crc32.Checksum(b[:], castagnoli)
}

// ErrCorrupt reports a record that failed its CRC (or decoded to
// garbage) somewhere other than the journal's final record — damage a
// torn write cannot explain, which recovery must not paper over.
var ErrCorrupt = errors.New("store: corrupt journal record before the tail")

// ErrLegacySegment reports a journal segment in the pre-salt "QSEG1\n"
// format, which this store no longer reads. Open fails and leaves the
// file byte-identical: treating it as a torn header would truncate
// acknowledged records away.
var ErrLegacySegment = errors.New("store: QSEG1 journal segment (unsalted record CRCs) is no longer readable")

// ErrBadIncarnation reports an incarnation file that is not one a store
// wrote: wrong size, magic or checksum. Open refuses rather than guess a
// number, because an owner that bases its identifiers on the incarnation
// (see Recovery.Incarnation) could otherwise reissue one an earlier life
// already gave out.
var ErrBadIncarnation = errors.New("store: malformed incarnation file")

// Mode selects how commits reach the platter.
type Mode int

const (
	// ModeAdaptive (the default) is group commit with a load-shaped
	// coalescing hold: when the staged backlog is shallow the flush departs
	// immediately (the latency-optimal choice when the disk is keeping up),
	// and as load grows the flusher holds the bus for up to min(maxWait,
	// EWMA of recent fsync cost) — so saturated periods buy bigger batches
	// and fewer fsyncs without taxing the idle path. Under Options.Inline
	// there is no flusher to hold: each Commit drains at once.
	ModeAdaptive Mode = iota
	// ModeEveryOp is the car-per-driver baseline of 1984: one fsync per
	// staged batch, no coalescing. Kept so benchmarks can measure what
	// group commit saves.
	ModeEveryOp
)

// Options tunes a Store. The zero value selects the defaults.
type Options struct {
	// SegmentBytes rotates the active journal segment once it exceeds
	// this size (default 4 MiB).
	SegmentBytes int
	// Mode picks the commit economics (default ModeAdaptive).
	Mode Mode
	// KeepSnapshots bounds how many snapshot files survive pruning
	// (default 2; the newest is recovery's source, the runner-up is
	// insurance against a torn newest).
	KeepSnapshots int
	// Inline runs every flush, snapshot, and compaction synchronously on
	// the calling goroutine instead of the background flusher — the
	// deterministic coupling the simulator transport needs. Group-commit
	// economics disappear (each Commit pays its own fsync); correctness
	// is identical.
	Inline bool
	// Preallocate reserves each journal segment's full SegmentBytes when
	// the segment is created and recycles retired segments through a free
	// pool instead of deleting them, so steady-state appends never pay
	// allocate-and-extend metadata fsyncs at segment boundaries. Off by
	// default: preallocated files make a segment's size diverge from its
	// data length, which simulator-facing tests that compute offsets from
	// file sizes must not see.
	Preallocate bool
	// SnapshotChain enables incremental snapshot cuts: only every K-th
	// cut writes the full ledger; the K-1 cuts between write just the
	// entries staged past the previous cut, chained to it by a parent
	// link. Recovery folds the newest fully-valid chain; compaction gates
	// on the chain's base (the newest full snapshot), so a torn newest
	// delta falls back to the chain prefix losslessly. 0 or 1 disables
	// deltas (every cut is full, the pre-chain behavior).
	SnapshotChain int
	// FS is the filesystem seam every disk operation goes through
	// (default faultfs.OS, the passthrough). Fault-injection tests hand
	// in a faultfs.Injector to script EIO/ENOSPC/short writes/lying or
	// slow fsyncs and to enumerate crash points deterministically.
	FS faultfs.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	return o
}

// Stats counts the store's disk work.
type Stats struct {
	Fsyncs    int64 // journal fsyncs completed (the figure group commit minimizes)
	Appended  int64 // entries staged for the journal
	Snapshots int64 // snapshot files written (full and delta)
	// SnapshotFailures counts snapshot attempts that could not reach
	// disk. A non-zero, growing value means the snapshot watermark — and
	// with it journal compaction — has stalled: durability maintenance
	// is failing even though commits may still succeed.
	SnapshotFailures int64
	DeltaSnapshots   int64 // snapshot cuts written as chain deltas (subset of Snapshots)
	Recycled         int64 // journal segments reborn from the free pool instead of created
	TornBytes        int64 // bytes truncated from a torn tail at Open
	// MaxStallNs is the longest single flush cycle (write + fsync) in
	// nanoseconds — the worst case a commit waited on the disk itself,
	// the writer-stall figure the tail-latency work minimizes.
	MaxStallNs int64
}

// Recovery is everything Open rebuilt from disk. The owner re-derives
// its in-memory structures from it: operation set = SnapshotEntries ∪
// JournalEntries (set union dedupes the overlap), Lamport clock = max
// over both, fold checkpoint = refold (SnapshotMark names where the
// snapshot's fold stood), gossip journal = JournalEntries at absolute
// positions [Base, End).
type Recovery struct {
	SnapshotEntries []oplog.Entry   // snapshot-chain union: full snapshot then each delta, oldest first
	SnapshotPos     int             // journal position the resolved chain covers (the chain tip)
	SnapshotBase    int             // position of the chain's full snapshot (== SnapshotPos without deltas)
	SnapshotMark    oplog.Watermark // fold watermark at the chain tip
	Deltas          int             // delta links in the resolved chain
	JournalEntries  []oplog.Entry   // arrival order, positions [Base, End)
	Base            int             // absolute position of the first retained journal entry
	End             int             // next position to be appended
	TornBytes       int64           // bytes dropped from a torn final record
	// Incarnation numbers this Open among every Open of the directory: 0
	// for a fresh directory, one more at each Open after — durably, so no
	// two Opens ever read the same number whatever crashes between them. A
	// directory that holds data but no incarnation file (written before the
	// number was kept) counts as one earlier life. An owner can base
	// identifiers it mints on it and never reissue one an earlier life
	// gave out, even one that never reached this disk.
	Incarnation uint64
}

// stageLog is one side of the double-buffered staging log: the framed
// records of every Stage call since the sides last swapped — length and
// payload in place, the CRC field left zero until the flusher knows which
// segment (and so which seed) a record lands in — plus one mark per Stage
// call, because segments rotate, and ModeEveryOp fsyncs, a call at a time.
// Stage fills one side under mu while the flusher writes the other out.
type stageLog struct {
	buf   []byte
	marks []stageMark
}

// stageMark closes one Stage call's records within a stageLog.
type stageMark struct {
	off int // buf[:off] holds everything up to and including this call
	end int // position just past the call's last entry
}

func (l stageLog) reset() stageLog { return stageLog{buf: l.buf[:0], marks: l.marks[:0]} }

type waiter struct {
	end int
	fn  func(ok bool)
}

// segment is one journal file's metadata.
type segment struct {
	path   string
	start  int // absolute position of its first record
	count  int // records it holds
	sealed bool
}

// Store is one replica's durable tier. Stage/Commit/AckTo/WriteSnapshot
// are safe for concurrent use; Stage calls must be externally serialized
// in position order (the owning replica stages under its own mutex).
type Store struct {
	dir string
	opt Options
	fs  faultfs.FS // == opt.FS; every disk call routes through it

	mu          sync.Mutex
	stage       stageLog // staged, not yet taken by a flush; len(stage.buf) is the backlog
	spare       stageLog // the empty side; zero while a flush holds it
	waiters     []waiter
	fireBuf     []waiter // the drain's reused fan-out buffer; nil while a drain holds it
	end         int      // next position to assign
	flushed     int      // positions below this are fsynced
	ackPos      int      // min position every gossip peer has acknowledged
	snapPos     int      // position covered by the newest durable snapshot chain (the tip)
	snapBase    int      // position of the newest durable FULL snapshot — the compaction gate
	deltasSince int      // delta cuts since the newest full snapshot
	segs        []segment
	freeSegs    []string // retired segment files awaiting recycling
	freeSeq     int      // next free-pool filename ordinal
	failed      error    // sticky I/O error: all later commits fail
	closed      bool

	// deltaBuf holds every staged entry not yet covered by a snapshot cut
	// (chain mode only) as finished snapshot records — seed-0 CRCs, the
	// bytes a delta file carries — in stage order: the entry at position
	// deltaBase+i begins at deltaBuf[deltaOff[i]]. A delta cut at pos
	// copies the [snapPos, pos) span out and drops it on success — a
	// skipped or failed cut keeps it, so the next cut covers a superset
	// and nothing ever silently leaves the chain.
	deltaBuf  []byte
	deltaOff  []int
	deltaBase int
	deltaOver bool // the buffer overflowed and was dropped: next cut must be full

	// File handles are owned by whoever runs flushes: the background
	// flusher goroutine, or the calling goroutine under flushMu when
	// Inline. Never touched with mu held — fsync must not block staging.
	flushMu  sync.Mutex
	seg      faultfs.File
	segBytes int64  // data bytes in the active segment (file size may exceed this when preallocated)
	segSeed  uint32 // CRC seed of the active segment

	kick     chan struct{} // wake the flusher (buffered, coalescing)
	full     chan struct{} // early departure: 4× kneeBytes staged
	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	snapBusy atomic.Bool

	fsyncs     atomic.Int64
	appended   atomic.Int64
	snapshots  atomic.Int64
	snapFails  atomic.Int64
	deltaSnaps atomic.Int64
	recycled   atomic.Int64
	maxStall   atomic.Int64 // longest single flush (write+fsync), ns
	ewmaFsync  atomic.Int64 // EWMA of recent fsync cost, ns (the adaptive hold's ceiling)
	ewmaTook   atomic.Int64 // EWMA of framed bytes per flush (the adaptive hold's load signal)
	tornBytes  int64

	// Log-bucketed distributions of every journal fsync and snapshot cut
	// (serialize + write + fsync + rename, full and delta alike). Fixed
	// memory, so a long-lived store records every event, not a sample.
	fsyncHist stats.LatHist
	snapHist  stats.LatHist
}

// Open replays dir (created if absent) and returns the store positioned
// to append after everything recovered. Abandoned temp files are swept,
// a torn final record is truncated away, and corruption before the tail
// fails with ErrCorrupt. Before it returns, Open durably counts itself in
// the directory's incarnation file (Recovery.Incarnation); a malformed one
// fails with ErrBadIncarnation.
func Open(dir string, opt Options) (*Store, Recovery, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	s := &Store{
		dir:  dir,
		opt:  opt,
		fs:   opt.FS,
		kick: make(chan struct{}, 1),
		full: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	rec, err := s.replay()
	if err != nil {
		return nil, Recovery{}, err
	}
	if rec.Incarnation, err = s.incarnate(len(s.segs) > 0 || rec.End > 0); err != nil {
		return nil, Recovery{}, err
	}
	s.end = rec.End
	s.flushed = rec.End
	s.ackPos = rec.Base
	s.snapPos = rec.SnapshotPos
	s.snapBase = rec.SnapshotBase
	s.deltasSince = rec.Deltas
	s.tornBytes = rec.TornBytes
	if opt.SnapshotChain > 1 {
		// Re-seed the delta buffer: the journal retains exactly the
		// positions past the chain tip, the entries the next delta cut
		// must cover.
		s.deltaBase = rec.SnapshotPos
		if from := rec.SnapshotPos - rec.Base; from >= 0 && from <= len(rec.JournalEntries) {
			for _, e := range rec.JournalEntries[from:] {
				s.deltaOff = append(s.deltaOff, len(s.deltaBuf))
				s.deltaBuf = appendRecord(s.deltaBuf, e)
			}
		} else {
			s.deltaOver = true
		}
	}
	if !opt.Inline {
		s.wg.Add(1)
		go s.flushLoop()
	}
	return s, rec, nil
}

// Dir reports the directory the store lives in.
func (s *Store) Dir() string { return s.dir }

// InlineMode reports whether all disk work runs synchronously on the
// calling goroutine (Options.Inline) rather than on background
// goroutines. Callers that must react to a commit failure from inside
// its callback use this to decide whether spawning is safe — and, on
// the deterministic simulator, forbidden.
func (s *Store) InlineMode() bool { return s.opt.Inline }

// End reports the next journal position to be assigned.
func (s *Store) End() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// FailErr reports the sticky I/O error that poisoned this store, or nil
// while it is healthy. Once set, every later Commit fails with ok=false;
// callers use the error itself to classify the failure — a full or
// transiently failing disk (ENOSPC, EIO) may heal and be reopened, while
// corruption must stay fatal.
func (s *Store) FailErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// SnapshotPos reports the journal position covered by the newest durable
// snapshot.
func (s *Store) SnapshotPos() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapPos
}

// Stats returns the disk-work counters.
func (s *Store) Stats() Stats {
	return Stats{
		Fsyncs:           s.fsyncs.Load(),
		Appended:         s.appended.Load(),
		Snapshots:        s.snapshots.Load(),
		SnapshotFailures: s.snapFails.Load(),
		DeltaSnapshots:   s.deltaSnaps.Load(),
		Recycled:         s.recycled.Load(),
		TornBytes:        s.tornBytes,
		MaxStallNs:       s.maxStall.Load(),
	}
}

// FsyncHist exposes the log-bucketed journal fsync-cost histogram.
func (s *Store) FsyncHist() *stats.LatHist { return &s.fsyncHist }

// SnapshotCutHist exposes the log-bucketed snapshot-cut histogram.
func (s *Store) SnapshotCutHist() *stats.LatHist { return &s.snapHist }

// NextSnapshotIsFull reports whether the next WriteSnapshot cut must
// carry the full ledger: always when chaining is disabled, when no full
// snapshot exists yet, after a delta-buffer overflow, and every
// Options.SnapshotChain-th cut. Owners consult it to decide whether to
// pay the full-ledger copy; passing a nil ledger to WriteSnapshot selects
// a delta cut from the store's own staged buffer.
func (s *Store) NextSnapshotIsFull() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextFullLocked()
}

func (s *Store) nextFullLocked() bool {
	k := s.opt.SnapshotChain
	if k <= 1 || s.deltaOver {
		return true
	}
	if s.snapBase == 0 && s.snapPos == 0 {
		return true // no chain to extend yet
	}
	return s.deltasSince >= k-1
}

// Stage queues entries for the journal at the next positions and returns
// the position just past the last one — the watermark to pass to Commit.
// Each entry is encoded here, once, into the staging log (and, in chain
// mode, copied on as a finished snapshot record); nothing of batch is
// retained, so the caller may reuse it as soon as Stage returns. Staging
// is memory-only; durability arrives with the flush that covers the
// returned position. After Close or Crash, staging is a no-op (the
// process is gone; there is nowhere for the bytes to go).
func (s *Store) Stage(batch []oplog.Entry) int {
	s.mu.Lock()
	if s.closed || len(batch) == 0 {
		end := s.end
		s.mu.Unlock()
		return end
	}
	l := &s.stage
	chain := s.opt.SnapshotChain > 1 && !s.deltaOver
	if chain && len(s.deltaOff) == 0 {
		s.deltaBase = s.end
	}
	for _, e := range batch {
		hdr := len(l.buf)
		l.buf = appendFrame(l.buf, e) // sealed by the flusher, under its segment's seed
		if chain {
			off := len(s.deltaBuf)
			s.deltaOff = append(s.deltaOff, off)
			s.deltaBuf = append(s.deltaBuf, l.buf[hdr:]...)
			seal(s.deltaBuf[off:], 0)
		}
	}
	if len(s.deltaOff) > maxDeltaPending {
		s.deltaBuf, s.deltaOff, s.deltaOver = nil, nil, true
	}
	s.end += len(batch)
	end := s.end
	l.marks = append(l.marks, stageMark{off: len(l.buf), end: end})
	batchFull := len(l.buf) >= 4*kneeBytes
	s.mu.Unlock()
	s.appended.Add(int64(len(batch)))
	if batchFull {
		signal(s.full)
	}
	return end
}

// noCommitCallback stands in for a nil then.
func noCommitCallback(bool) {}

// Commit asks for durability of every position below end; then fires
// exactly once — with ok=true after the flush that covers end, or
// ok=false if the store crashed or hit an I/O error first. then runs on
// the flusher goroutine (inline on the caller when Options.Inline), so
// it must not block on a future commit of this store.
func (s *Store) Commit(end int, then func(ok bool)) {
	if then == nil {
		then = noCommitCallback
	}
	s.mu.Lock()
	switch {
	case s.failed != nil:
		s.mu.Unlock()
		then(false)
		return
	case end <= s.flushed:
		s.mu.Unlock()
		then(true)
		return
	case s.closed:
		// Nothing further will be flushed.
		s.mu.Unlock()
		then(false)
		return
	}
	s.waiters = append(s.waiters, waiter{end: end, fn: then})
	s.mu.Unlock()
	if s.opt.Inline {
		s.drain()
		return
	}
	signal(s.kick)
}

// AckTo records that every gossip peer has acknowledged positions below
// pos, unlocking compaction of segments the peers will never need again.
func (s *Store) AckTo(pos int) {
	s.mu.Lock()
	changed := pos > s.ackPos
	if changed {
		s.ackPos = pos
	}
	s.mu.Unlock()
	if !changed {
		return
	}
	if s.opt.Inline {
		s.compact()
	} else {
		signal(s.kick) // the flusher compacts after its next pass
	}
}

// WriteSnapshot atomically persists the ledger prefix [0, pos): entries
// in canonical fold order, stamped with the fold watermark they derive.
// The write waits for the journal flush covering pos — a snapshot that
// became durable ahead of the journal records it claims to cover would,
// after a crash, let compaction delete segments holding entries that
// are in no snapshot — and then happens off the caller's path (inline
// under Options.Inline). If a snapshot write is already running, this
// one is skipped; the next trigger covers a superset. On success the
// snapshot watermark advances, old snapshots are pruned to
// Options.KeepSnapshots, and fully-covered journal segments become
// compactable; a failed write counts in Stats.SnapshotFailures and the
// watermark stays put, so compaction stalls visibly rather than
// silently losing data.
//
// With Options.SnapshotChain enabled, a nil ledger selects a delta cut:
// the store persists just its internally-buffered entries past the
// previous cut, chained to it by a parent link, so the owner never pays
// a full-ledger copy for an incremental cut. Owners consult
// NextSnapshotIsFull to decide which to request.
func (s *Store) WriteSnapshot(ledger []oplog.Entry, pos int, mark oplog.Watermark) {
	s.Commit(pos, func(ok bool) {
		if !ok {
			s.snapFails.Add(1)
			return
		}
		job := func() { s.writeSnapshot(ledger, pos, mark) }
		if ledger == nil {
			job = func() { s.writeDelta(pos, mark) }
		}
		if s.opt.Inline {
			job()
			return
		}
		if !s.snapBusy.CompareAndSwap(false, true) {
			return
		}
		// closed and the Add must be decided under one lock: stop() only
		// waits for goroutines added before closed became visible.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			s.snapBusy.Store(false)
			return
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer s.snapBusy.Store(false)
			job()
		}()
	})
}

// Close flushes everything staged, fsyncs, and closes the files — the
// graceful shutdown. It reports the sticky I/O error, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.drain()
	s.flushMu.Lock()
	if s.seg != nil {
		if s.opt.Preallocate {
			// Hand back the unused reservation: a graceful shutdown leaves
			// the file ending exactly at its last record, so reopen sees
			// no phantom torn tail.
			if s.seg.Truncate(s.segBytes) == nil {
				s.seg.Sync()
			}
		}
		s.seg.Close()
		s.seg = nil
	}
	s.flushMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Crash simulates the process dying: staged-but-unflushed entries are
// dropped, every pending commit fails with ok=false, and the files are
// closed with no final fsync. What Open finds afterwards is exactly what
// earlier flushes made durable — the volatile tail is gone, as §2.2's
// fail-fast discipline demands.
func (s *Store) Crash() {
	s.mu.Lock()
	s.closed = true
	s.stage = s.stage.reset()
	dead := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	s.stop()
	s.flushMu.Lock()
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
	s.flushMu.Unlock()
	for _, w := range dead {
		w.fn(false)
	}
}

// stop halts the background goroutines and waits for them.
func (s *Store) stop() {
	s.stopOnce.Do(func() { close(s.quit) })
	if !s.opt.Inline {
		s.wg.Wait()
	}
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// flushLoop is the city bus: kicked, it waits out the adaptive hold (or
// departs early on a full backlog), flushes everything aboard with one
// fsync, fires the satisfied commit waiters, and compacts any segment
// the snapshot and ack watermarks have both passed.
func (s *Store) flushLoop() {
	defer s.wg.Done()
	var timer *time.Timer // the hold's, re-armed for each one
	for {
		select {
		case <-s.quit:
			return
		case <-s.kick:
		}
		// An early-departure token left by a burst that boarded while the
		// previous flush was already under way is spent: the drain loop
		// took those riders without a hold. Discard it before reading the
		// backlog — a bus that is full now zeroes the hold by itself, and
		// one that fills during the hold deposits a fresh token.
		select {
		case <-s.full:
		default:
		}
		if hold := s.adaptiveHold(); hold > 0 {
			if timer == nil {
				timer = time.NewTimer(hold)
			} else {
				timer.Reset(hold) // it fired or was stopped: nothing stale can arrive (go 1.23 timers)
			}
			select {
			case <-timer.C:
			case <-s.full:
				timer.Stop()
			case <-s.quit:
				timer.Stop()
				return
			}
		}
		s.drain()
		s.compact()
	}
}

// adaptiveHold maps the store's load onto the coalescing-hold curve:
// zero when nothing is staged (and in ModeEveryOp, which never waits for
// company), rising linearly to min(maxWait, fsync-cost EWMA) at
// kneeBytes — holding for about one fsync's cost doubles the batch a
// saturated flusher boards while bounding the added latency to what the
// disk was already charging — and zero again once 4× kneeBytes are
// staged: the bus is full. Load is max(staged backlog, EWMA of recent
// flush size): the flusher usually wakes on the FIRST rider of a burst,
// when the instantaneous backlog still looks shallow, so the
// recent-flush EWMA is what keeps the bus at the stop while the rest of
// a sustained stream boards. Until the first fsync lands there is no
// cost estimate and no hold.
func (s *Store) adaptiveHold() time.Duration {
	s.mu.Lock()
	backlog := len(s.stage.buf)
	s.mu.Unlock()
	if backlog == 0 || backlog >= 4*kneeBytes || s.opt.Mode == ModeEveryOp {
		return 0
	}
	ceil := time.Duration(s.ewmaFsync.Load())
	if ceil <= 0 {
		return 0
	}
	if ceil > maxWait {
		ceil = maxWait
	}
	load := int64(backlog)
	if recent := s.ewmaTook.Load(); recent > load {
		load = recent
	}
	if load >= kneeBytes {
		return ceil
	}
	return ceil * time.Duration(load) / kneeBytes
}

// drain flushes what is staged until nothing remains: one fsync for the
// lot in ModeAdaptive, one fsync per Stage call in ModeEveryOp. The
// satisfied waiters fire from a buffer the store keeps between drains;
// a drain nested inside one of those callbacks (an inline store's Commit)
// finds it taken and brings its own.
func (s *Store) drain() {
	limit := -1
	if s.opt.Mode == ModeEveryOp {
		limit = 1
	}
	s.mu.Lock()
	fire := s.fireBuf
	s.fireBuf = nil
	s.mu.Unlock()
	for more := true; more; {
		fire, more = s.flushOnce(limit, fire[:0])
		for i := range fire {
			fire[i].fn(fire[i].end >= 0)
		}
	}
	clear(fire) // drop the callbacks
	s.mu.Lock()
	s.fireBuf = fire[:0]
	s.mu.Unlock()
}

// flushOnce writes up to limit staged Stage calls (-1 for all), fsyncs,
// and appends to fire the commit waiters now satisfied — a negative end
// marking waiters being failed after an I/O error — plus whether staged
// records remain.
func (s *Store) flushOnce(limit int, fire []waiter) (_ []waiter, more bool) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	if s.failed != nil {
		fire = s.failAllLocked(fire)
		s.mu.Unlock()
		return fire, false
	}
	take, first := s.takeStagedLocked(limit), s.flushed // what is staged starts where the last flush ended
	if len(take.marks) == 0 {
		// Nothing staged; a waiter may still be satisfiable (its entries
		// rode an earlier flush) or doomed (staged entries were dropped
		// by Crash between its Stage and Commit).
		s.spare = take
		fire = s.takeWaitersLocked(fire)
		if s.closed {
			fire = s.failAllLocked(fire)
		}
		s.mu.Unlock()
		return fire, false
	}
	s.mu.Unlock()

	tookBytes := int64(len(take.buf))
	if old := s.ewmaTook.Load(); old == 0 {
		s.ewmaTook.Store(tookBytes)
	} else {
		s.ewmaTook.Store(old - old/8 + tookBytes/8)
	}

	start := time.Now()
	err := s.writeStaged(take, first)
	if err == nil {
		err = s.syncSeg()
	}
	if stall := int64(time.Since(start)); err == nil {
		for {
			cur := s.maxStall.Load()
			if stall <= cur || s.maxStall.CompareAndSwap(cur, stall) {
				break
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.spare = take.reset()
	if err != nil {
		s.failed = err
		return s.failAllLocked(fire), false
	}
	s.flushed = take.marks[len(take.marks)-1].end
	return s.takeWaitersLocked(fire), len(s.stage.marks) > 0
}

// takeStagedLocked hands the flusher the staged records of up to limit
// Stage calls (-1 for all) and leaves Stage the other side to fill. Taking
// everything is a swap. ModeEveryOp's call at a time is a copy out and a
// shift down — the 1984 baseline pays for not riding the bus. Caller
// holds mu and flushMu.
func (s *Store) takeStagedLocked(limit int) stageLog {
	take := s.spare
	s.spare = stageLog{}
	if limit < 0 || limit >= len(s.stage.marks) {
		take, s.stage = s.stage, take
		return take
	}
	l := &s.stage
	cut := l.marks[limit-1]
	take.buf = append(take.buf, l.buf[:cut.off]...)
	take.marks = append(take.marks, l.marks[:limit]...)
	l.buf = l.buf[:copy(l.buf, l.buf[cut.off:])]
	l.marks = l.marks[:copy(l.marks, l.marks[limit:])]
	for i := range l.marks {
		l.marks[i].off -= cut.off
	}
	return take
}

// failAllLocked moves every waiter to fire, marked failed, and drops
// whatever is staged: after a sticky error (or a crash) no flush will
// ever cover it. Caller holds mu.
func (s *Store) failAllLocked(fire []waiter) []waiter {
	for _, w := range s.waiters {
		fire = append(fire, waiter{end: -1, fn: w.fn})
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	s.stage = s.stage.reset()
	return fire
}

// takeWaitersLocked moves the waiters covered by the flushed watermark to
// fire. Caller holds mu.
func (s *Store) takeWaitersLocked(fire []waiter) []waiter {
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if w.end <= s.flushed {
			fire = append(fire, w)
		} else {
			kept = append(kept, w)
		}
	}
	clear(s.waiters[len(kept):]) // drop the fired callbacks
	s.waiters = kept
	return fire
}

// writeStaged appends the taken records to the active segment, rotating
// between Stage calls when the segment is over size. Everything bound for
// one segment goes out in one write, its CRCs filled in under that
// segment's seed just before. first is the position of l's first record.
// Caller holds flushMu.
func (s *Store) writeStaged(l stageLog, first int) error {
	if s.seg == nil {
		if err := s.openSegLocked(); err != nil {
			return err
		}
	}
	from, fromPos := 0, first // the run not yet written: l.buf[from:prev.off]
	prev := stageMark{end: first}
	writeRun := func() error {
		run := l.buf[from:prev.off]
		if len(run) == 0 {
			return nil // the segment was already over size when the flush began
		}
		for off := 0; off < len(run); {
			end := off + recHdrLen + int(binary.LittleEndian.Uint32(run[off:]))
			seal(run[off:end], s.segSeed)
			off = end
		}
		n, err := s.seg.Write(run)
		s.segBytes += int64(n)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.segs[len(s.segs)-1].count += prev.end - fromPos
		s.mu.Unlock()
		from, fromPos = prev.off, prev.end
		return nil
	}
	for _, m := range l.marks {
		if s.segBytes+int64(prev.off-from) >= int64(s.opt.SegmentBytes) {
			if err := writeRun(); err != nil {
				return err
			}
			if err := s.rotateLocked(); err != nil {
				return err
			}
		}
		prev = m
	}
	return writeRun()
}

// appendFrame frames one entry into buf as [length][CRC, left zero]
// [payload]: the payload is encoded directly after the reserved header,
// so a reused buffer makes staging allocation-free at steady state.
func appendFrame(buf []byte, e oplog.Entry) []byte {
	hdr := len(buf)
	buf = append(buf, zeroHdr[:]...)
	buf = oplog.AppendEntry(buf, e)
	binary.LittleEndian.PutUint32(buf[hdr:], uint32(len(buf)-hdr-recHdrLen))
	return buf
}

var zeroHdr [recHdrLen]byte

// seal fills in the CRC of the one frame rec holds, salted with a
// segment's seed — or 0 for a snapshot record (crc32.Update with seed 0
// equals plain crc32.Checksum).
func seal(rec []byte, seed uint32) {
	binary.LittleEndian.PutUint32(rec[4:], crc32.Update(seed, castagnoli, rec[recHdrLen:]))
}

// appendRecord appends one entry to buf as a finished snapshot record.
func appendRecord(buf []byte, e oplog.Entry) []byte {
	hdr := len(buf)
	buf = appendFrame(buf, e)
	seal(buf[hdr:], 0)
	return buf
}

func (s *Store) syncSeg() error {
	start := time.Now()
	if err := s.seg.Sync(); err != nil {
		return err
	}
	cost := time.Since(start)
	s.fsyncs.Add(1)
	s.fsyncHist.AddDur(cost)
	// EWMA (α = 1/8) of fsync cost: the adaptive hold's estimate of what
	// one more flush would charge, i.e. what coalescing is worth.
	old := s.ewmaFsync.Load()
	if old == 0 {
		s.ewmaFsync.Store(int64(cost))
	} else {
		s.ewmaFsync.Store(old - old/8 + int64(cost)/8)
	}
	return nil
}

// openSegLocked opens (or creates) the active segment for appending.
// Caller holds flushMu.
func (s *Store) openSegLocked() error {
	s.mu.Lock()
	if len(s.segs) == 0 {
		// The first record written lands at the flushed watermark — never
		// at end, which counts staged-but-unwritten entries too.
		s.segs = append(s.segs, segment{path: s.segPath(s.flushed), start: s.flushed})
	}
	active := s.segs[len(s.segs)-1]
	s.mu.Unlock()
	f, err := s.fs.OpenFile(active.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := info.Size()
	if size < int64(segHdrV2) || !magicAt(f, segMagicV2) {
		// Fresh segment (or a header torn by a crash at creation): start it
		// over. Otherwise a segment is being resumed, and replay — which
		// has already refused any QSEG1 file — trimmed it to its data.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		if err := writeSegHeader(f, active.start); err != nil {
			f.Close()
			return err
		}
		size = int64(segHdrV2)
		if err := s.syncDir(); err != nil {
			f.Close()
			return err
		}
	}
	if s.opt.Preallocate && size < int64(s.opt.SegmentBytes) {
		preallocate(f, int64(s.opt.SegmentBytes)) // best-effort
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	s.seg = f
	s.segBytes = size
	s.segSeed = seedFor(active.start)
	return nil
}

// magicAt reports whether f begins with magic.
func magicAt(f faultfs.File, magic string) bool {
	buf := make([]byte, len(magic))
	_, err := f.ReadAt(buf, 0)
	return err == nil && string(buf) == magic
}

// writeSegHeader stamps a v2 header — magic plus the segment's absolute
// start position, the CRC salt — at the front of f.
func writeSegHeader(f faultfs.File, start int) error {
	var hdr [segHdrV2]byte
	copy(hdr[:], segMagicV2)
	binary.LittleEndian.PutUint64(hdr[len(segMagicV2):], uint64(start))
	_, err := f.WriteAt(hdr[:], 0)
	return err
}

// rotateLocked seals the active segment and starts the next one at the
// current end of the flushed+pending stream. Sealed segments are trimmed
// to their data length (recovery demands every byte of a sealed segment
// verify; the reservation moves to the new segment), and the new segment
// comes from the free pool when recycling is on. Caller holds flushMu.
func (s *Store) rotateLocked() error {
	if err := s.syncSeg(); err != nil {
		return err
	}
	if s.opt.Preallocate {
		if err := s.seg.Truncate(s.segBytes); err != nil {
			return err
		}
		if err := s.seg.Sync(); err != nil {
			return err
		}
	}
	if err := s.seg.Close(); err != nil {
		return err
	}
	s.seg = nil
	s.mu.Lock()
	last := &s.segs[len(s.segs)-1]
	last.sealed = true
	next := last.start + last.count
	s.segs = append(s.segs, segment{path: s.segPath(next), start: next})
	s.mu.Unlock()
	return s.newSegLocked(s.segPath(next), next)
}

// newSegLocked opens the next active segment at path: reborn from the
// free pool when a retired file is waiting (its blocks already
// allocated; its old records invisible under the new CRC seed), freshly
// created and preallocated otherwise. Caller holds flushMu.
func (s *Store) newSegLocked(path string, start int) error {
	var free string
	s.mu.Lock()
	if n := len(s.freeSegs); n > 0 {
		free, s.freeSegs = s.freeSegs[n-1], s.freeSegs[:n-1]
	}
	s.mu.Unlock()
	var f faultfs.File
	if free != "" {
		if err := s.fs.Rename(free, path); err != nil {
			s.fs.Remove(free)
		} else if g, err := s.fs.OpenFile(path, os.O_RDWR, 0o644); err != nil {
			s.fs.Remove(path)
		} else {
			f = g
			s.recycled.Add(1)
		}
	}
	if f == nil {
		g, err := s.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		f = g
	}
	if err := writeSegHeader(f, start); err != nil {
		f.Close()
		return err
	}
	if s.opt.Preallocate {
		preallocate(f, int64(s.opt.SegmentBytes)) // best-effort
	}
	if err := s.syncDir(); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(int64(segHdrV2), io.SeekStart); err != nil {
		f.Close()
		return err
	}
	s.seg = f
	s.segBytes = int64(segHdrV2)
	s.segSeed = seedFor(start)
	return nil
}

func (s *Store) segPath(start int) string {
	return filepath.Join(s.dir, fmt.Sprintf("journal-%010d.seg", start))
}

func (s *Store) snapPath(pos int) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%010d.snap", pos))
}

func (s *Store) deltaPath(pos int) string {
	return filepath.Join(s.dir, fmt.Sprintf("delta-%010d.snap", pos))
}

// compact retires sealed journal segments every position of which is
// below both watermarks — durably covered by a FULL snapshot AND
// acknowledged by every gossip peer. Either alone is not enough:
// compacting on the snapshot only could strand a slow peer mid-catch-up
// after a crash, compacting on acks only could leave Open with a journal
// whose prefix is neither on disk nor reconstructible. The gate is the
// chain base, not the chain tip: if the newest delta tears, recovery
// falls back to a chain prefix, and the journal must still hold
// everything past it.
func (s *Store) compact() {
	s.mu.Lock()
	keep := s.ackPos
	if s.snapBase < keep {
		keep = s.snapBase
	}
	var doomed []string
	for len(s.segs) > 1 && s.segs[0].sealed && s.segs[0].start+s.segs[0].count <= keep {
		doomed = append(doomed, s.segs[0].path)
		s.segs = s.segs[1:]
	}
	s.mu.Unlock()
	for _, path := range doomed {
		s.retireSeg(path)
	}
	if len(doomed) > 0 {
		s.syncDir()
	}
}

// retireSeg disposes of a fully-compacted segment file: with recycling
// on it is renamed into the free pool for the next rotation to reuse,
// otherwise (or when the pool is full) deleted.
func (s *Store) retireSeg(path string) {
	if s.opt.Preallocate {
		s.mu.Lock()
		var free string
		if len(s.freeSegs) < maxFreeSegs {
			free = filepath.Join(s.dir, fmt.Sprintf("free-%010d.seg", s.freeSeq))
			s.freeSeq++
		}
		s.mu.Unlock()
		if free != "" && s.fs.Rename(path, free) == nil {
			s.mu.Lock()
			s.freeSegs = append(s.freeSegs, free)
			s.mu.Unlock()
			return
		}
	}
	s.fs.Remove(path)
}

// writeSnapshot does the actual temp-write + fsync + rename of a FULL
// snapshot, and on success resets the delta chain to root here.
func (s *Store) writeSnapshot(ledger []oplog.Entry, pos int, mark oplog.Watermark) {
	began := time.Now()
	s.mu.Lock()
	if s.closed || s.failed != nil || pos <= s.snapPos {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	// Size the buffer exactly (EntrySize per record plus framing) and
	// borrow it from the shared pool: snapshots of a steady-state ledger
	// are all about the same size, so successive writes reuse one array.
	size := 64
	for _, e := range ledger {
		size += recHdrLen + oplog.EntrySize(e)
	}
	scratch := oplog.GetBuf()
	defer oplog.PutBuf(scratch)
	if cap(*scratch) < size {
		*scratch = make([]byte, 0, size)
	}
	buf := *scratch
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(pos))
	buf = oplog.AppendWatermark(buf, mark)
	buf = binary.AppendUvarint(buf, uint64(len(ledger)))
	for _, e := range ledger {
		buf = appendRecord(buf, e)
	}
	buf = append(buf, snapFooter...)
	*scratch = buf[:0]

	final := s.snapPath(pos)
	tmp := final + ".tmp"
	if err := s.writeFileSync(tmp, buf); err != nil {
		s.fs.Remove(tmp)
		s.snapFails.Add(1)
		return
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.fs.Remove(tmp)
		s.snapFails.Add(1)
		return
	}
	s.syncDir()
	s.snapshots.Add(1)
	s.snapHist.AddDur(time.Since(began))

	s.mu.Lock()
	if pos > s.snapPos {
		s.snapPos = pos
	}
	if pos > s.snapBase {
		s.snapBase = pos
	}
	if s.opt.SnapshotChain > 1 {
		s.deltasSince = 0
		if s.deltaOver && s.end == pos {
			// The overflow's lost range is fully covered by this full cut:
			// the buffer can re-anchor here.
			s.deltaOver, s.deltaBuf, s.deltaOff, s.deltaBase = false, nil, nil, pos
		}
		if !s.deltaOver {
			s.dropDeltaPrefixLocked(pos)
		}
	}
	s.mu.Unlock()
	s.pruneSnapshots()
	s.compact()
}

// dropDeltaPrefixLocked discards buffered records a successful cut at
// pos now covers, closing the gap so the buffer's capacity is reused.
// Caller holds mu; the buffer must not be in overflow.
func (s *Store) dropDeltaPrefixLocked(pos int) {
	n := min(pos-s.deltaBase, len(s.deltaOff))
	if n <= 0 {
		return
	}
	cut := s.deltaEndLocked(n)
	s.deltaBuf = s.deltaBuf[:copy(s.deltaBuf, s.deltaBuf[cut:])]
	s.deltaOff = s.deltaOff[:copy(s.deltaOff, s.deltaOff[n:])]
	for i := range s.deltaOff {
		s.deltaOff[i] -= cut
	}
	s.deltaBase = pos
}

// deltaEndLocked reports where the first n buffered records end within
// deltaBuf. Caller holds mu.
func (s *Store) deltaEndLocked(n int) int {
	if n == len(s.deltaOff) {
		return len(s.deltaBuf)
	}
	return s.deltaOff[n]
}

// writeDelta persists an incremental snapshot cut: just the buffered
// records spanning [snapPos, pos), stamped with the parent position so
// recovery can fold the chain back to its full-snapshot root. The records
// were finished when they were staged, so the file is a header, one copy
// and a footer. The covered prefix leaves the buffer only on success — a
// skipped or failed cut keeps it, so the next cut covers a superset and
// no entry silently drops out of the chain.
func (s *Store) writeDelta(pos int, mark oplog.Watermark) {
	began := time.Now()
	scratch := oplog.GetBuf()
	defer oplog.PutBuf(scratch)
	s.mu.Lock()
	if s.closed || s.failed != nil || pos <= s.snapPos {
		s.mu.Unlock()
		return
	}
	parent := s.snapPos
	if s.deltaOver || s.deltaBase > parent || pos-s.deltaBase > len(s.deltaOff) ||
		(s.snapBase == 0 && s.snapPos == 0) {
		// The buffer cannot produce [parent, pos) — overflow, or there is
		// no full snapshot to chain from. Fail visibly; the owner's next
		// cut will be full.
		s.mu.Unlock()
		s.snapFails.Add(1)
		return
	}
	buf := *scratch
	buf = append(buf, deltaMagic...)
	buf = binary.AppendUvarint(buf, uint64(pos))
	buf = binary.AppendUvarint(buf, uint64(parent))
	buf = oplog.AppendWatermark(buf, mark)
	buf = binary.AppendUvarint(buf, uint64(pos-parent))
	// Copied under mu: Stage appends to, and a finished cut shifts, the
	// buffer this span lives in.
	buf = append(buf, s.deltaBuf[s.deltaEndLocked(parent-s.deltaBase):s.deltaEndLocked(pos-s.deltaBase)]...)
	s.mu.Unlock()
	buf = append(buf, snapFooter...)
	*scratch = buf[:0]

	final := s.deltaPath(pos)
	tmp := final + ".tmp"
	if err := s.writeFileSync(tmp, buf); err != nil {
		s.fs.Remove(tmp)
		s.snapFails.Add(1)
		return
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.fs.Remove(tmp)
		s.snapFails.Add(1)
		return
	}
	s.syncDir()
	s.snapshots.Add(1)
	s.deltaSnaps.Add(1)
	s.snapHist.AddDur(time.Since(began))

	s.mu.Lock()
	if pos > s.snapPos {
		s.snapPos = pos
		s.deltasSince++
		s.dropDeltaPrefixLocked(pos)
	}
	s.mu.Unlock()
	s.pruneSnapshots()
	s.compact()
}

func (s *Store) writeFileSync(path string, data []byte) error {
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pruneSnapshots deletes all but the newest KeepSnapshots FULL snapshot
// files, plus every delta positioned below the oldest retained full —
// those chain (directly or transitively) only to deleted roots. Deltas
// above it chain to a retained full and stay: they are the fallback
// prefixes recovery may need.
func (s *Store) pruneSnapshots() {
	fulls, err := s.fs.Glob(filepath.Join(s.dir, "snap-*.snap"))
	if err != nil || len(fulls) <= s.opt.KeepSnapshots {
		return
	}
	sort.Strings(fulls) // position-padded names sort oldest first
	cutoff, err := snapFilePos(fulls[len(fulls)-s.opt.KeepSnapshots])
	if err != nil {
		return
	}
	for _, path := range fulls[:len(fulls)-s.opt.KeepSnapshots] {
		s.fs.Remove(path)
	}
	deltas, _ := s.fs.Glob(filepath.Join(s.dir, "delta-*.snap"))
	for _, path := range deltas {
		if pos, err := snapFilePos(path); err == nil && pos < cutoff {
			s.fs.Remove(path)
		}
	}
}

// incarnate returns this Open's incarnation number, having durably
// recorded the next one: temp file, fsync, rename, directory fsync. An
// absent file reads 0 in a directory without data and 1 beside data.
func (s *Store) incarnate(hasData bool) (uint64, error) {
	path := filepath.Join(s.dir, incFile)
	var n uint64
	b, err := s.fs.ReadFile(path)
	switch {
	case err == nil:
		if len(b) != len(incMagic)+8+4 || string(b[:len(incMagic)]) != incMagic ||
			crc32.Checksum(b[:len(b)-4], castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
			return 0, fmt.Errorf("store: %s: %w", path, ErrBadIncarnation)
		}
		n = binary.LittleEndian.Uint64(b[len(incMagic):])
	case errors.Is(err, fs.ErrNotExist):
		if hasData {
			n = 1
		}
	default:
		return 0, err
	}
	next := binary.LittleEndian.AppendUint64([]byte(incMagic), n+1)
	next = binary.LittleEndian.AppendUint32(next, crc32.Checksum(next, castagnoli))
	tmp := path + ".tmp"
	if err := s.writeFileSync(tmp, next); err != nil {
		s.fs.Remove(tmp)
		return 0, fmt.Errorf("store: record incarnation: %w", err)
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		s.fs.Remove(tmp)
		return 0, fmt.Errorf("store: record incarnation: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return 0, fmt.Errorf("store: record incarnation: %w", err)
	}
	return n, nil
}

// snapFilePos extracts the position encoded in a snapshot or delta
// filename.
func snapFilePos(path string) (int, error) {
	name := strings.TrimSuffix(filepath.Base(path), ".snap")
	if i := strings.IndexByte(name, '-'); i >= 0 {
		name = name[i+1:]
	}
	return strconv.Atoi(name)
}

// syncDir fsyncs the store directory so renames and removals inside it
// are durable before we depend on them.
func (s *Store) syncDir() error {
	d, err := s.fs.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ---- Open-time replay ----------------------------------------------------

func (s *Store) replay() (Recovery, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return Recovery{}, err
	}
	var segPaths, snapPaths, deltaPaths []string
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An abandoned atomic write: never renamed, never valid.
			s.fs.Remove(filepath.Join(s.dir, name))
		case strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".seg"):
			segPaths = append(segPaths, name)
		case strings.HasPrefix(name, "free-") && strings.HasSuffix(name, ".seg"):
			// A pooled segment from the previous life: rejoin the pool, or
			// sweep it when recycling is off.
			path := filepath.Join(s.dir, name)
			if !s.opt.Preallocate {
				s.fs.Remove(path)
				break
			}
			s.freeSegs = append(s.freeSegs, path)
			if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "free-"), ".seg")); err == nil && n >= s.freeSeq {
				s.freeSeq = n + 1
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			snapPaths = append(snapPaths, name)
		case strings.HasPrefix(name, "delta-") && strings.HasSuffix(name, ".snap"):
			deltaPaths = append(deltaPaths, name)
		}
	}
	sort.Strings(segPaths)

	rec := Recovery{}
	s.resolveSnapChain(&rec, snapPaths, deltaPaths)

	for i, name := range segPaths {
		path := filepath.Join(s.dir, name)
		start, err := segStart(name)
		if err != nil {
			return Recovery{}, fmt.Errorf("store: bad segment name %q: %w", name, err)
		}
		if i == 0 {
			rec.Base = start
			rec.End = start
		} else if start != rec.End {
			return Recovery{}, fmt.Errorf("store: journal gap: segment %q starts at %d, want %d", name, start, rec.End)
		}
		final := i == len(segPaths)-1
		entries, torn, err := s.scanSegment(path, start, final)
		if err != nil {
			return Recovery{}, err
		}
		rec.TornBytes += torn
		rec.JournalEntries = append(rec.JournalEntries, entries...)
		rec.End += len(entries)
		s.segs = append(s.segs, segment{path: path, start: start, count: len(entries), sealed: !final})
	}
	if len(segPaths) == 0 {
		// Fresh directory, or every segment compacted away before a
		// crash: the journal resumes just past the snapshot.
		rec.Base = rec.SnapshotPos
		rec.End = rec.SnapshotPos
	}
	if rec.Base > rec.SnapshotPos && rec.Base > 0 {
		return Recovery{}, fmt.Errorf("store: positions [%d, %d) are on no snapshot and no retained segment", rec.SnapshotPos, rec.Base)
	}
	if rec.SnapshotPos > rec.End {
		// A snapshot claiming positions the journal never durably held:
		// WriteSnapshot gates on the covering flush precisely so this
		// state cannot arise, so finding it means the directory was
		// tampered with or mixes incarnations — resuming would assign
		// fresh entries to positions the snapshot already claims.
		return Recovery{}, fmt.Errorf("store: snapshot covers [0, %d) but the journal ends at %d", rec.SnapshotPos, rec.End)
	}
	return rec, nil
}

func segStart(name string) (int, error) {
	return strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".seg"))
}

// resolveSnapChain picks the snapshot state recovery starts from: the
// newest candidate (full or delta) whose every chain link down to a full
// snapshot verifies end to end. A torn or missing link disqualifies that
// candidate and the walk restarts from the next-newest — the fallback to
// a chain prefix (or an older chain). Compaction gates on the chain
// base, so the journal still retains every position past any prefix tip:
// the fallback is lossless, and the kill/recover differentials hold
// byte-identical across it. Chain entries land in rec.SnapshotEntries
// root-first; position ranges never overlap ([0,base) then each
// [parent,pos)), and the owner set-unions them anyway.
func (s *Store) resolveSnapChain(rec *Recovery, snapPaths, deltaPaths []string) {
	type snapFile struct {
		pos    int
		full   bool
		name   string
		loaded bool
		bad    bool
		ents   []oplog.Entry
		parent int
		mark   oplog.Watermark
	}
	var cands []*snapFile
	for _, name := range snapPaths {
		if pos, err := snapFilePos(name); err == nil {
			cands = append(cands, &snapFile{pos: pos, full: true, name: name})
		}
	}
	for _, name := range deltaPaths {
		if pos, err := snapFilePos(name); err == nil {
			cands = append(cands, &snapFile{pos: pos, name: name})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].pos != cands[j].pos {
			return cands[i].pos > cands[j].pos
		}
		return cands[i].full && !cands[j].full
	})
	load := func(c *snapFile) bool {
		if !c.loaded {
			c.loaded = true
			ents, pos, parent, mark, full, err := loadSnapshotFile(s.fs, filepath.Join(s.dir, c.name))
			if err != nil || pos != c.pos || full != c.full {
				c.bad = true
			} else {
				c.ents, c.parent, c.mark = ents, parent, mark
			}
		}
		return !c.bad
	}
	byPos := func(pos int) *snapFile {
		var best *snapFile
		for _, c := range cands {
			if c.pos == pos && !c.bad && (best == nil || c.full) {
				best = c
			}
		}
		return best
	}
	for _, tip := range cands {
		var chain []*snapFile
		ok := true
		for cur := tip; ; {
			if !load(cur) {
				ok = false
				break
			}
			chain = append(chain, cur)
			if cur.full {
				break
			}
			next := byPos(cur.parent)
			if next == nil || len(chain) > len(cands) {
				ok = false // missing link (or a parent cycle in a tampered dir)
				break
			}
			cur = next
		}
		if !ok {
			continue
		}
		for i := len(chain) - 1; i >= 0; i-- {
			rec.SnapshotEntries = append(rec.SnapshotEntries, chain[i].ents...)
		}
		rec.SnapshotPos = tip.pos
		rec.SnapshotMark = tip.mark
		rec.SnapshotBase = chain[len(chain)-1].pos
		rec.Deltas = len(chain) - 1
		return
	}
}

// scanSegment replays one segment file. In a sealed (non-final) segment
// every record must verify; in the final segment an invalid record is a
// torn tail — truncated away and durably forgotten — unless valid-looking
// bytes follow it, which no torn write produces: that is ErrCorrupt. The
// torn-tail rule also absorbs what preallocation and recycling leave
// past the real end of a crashed final segment: zero fill and old-life
// records alike fail their (new-seed) CRCs and truncate away.
func (s *Store) scanSegment(path string, start int, final bool) (ents []oplog.Entry, torn int64, err error) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	switch {
	case len(data) >= segHdrV2 && string(data[:len(segMagicV2)]) == segMagicV2:
	case len(data) >= len(segMagicV1) && string(data[:len(segMagicV1)]) == segMagicV1:
		// Not a torn header: falling through to the truncation below would
		// destroy a journal an older build acknowledged.
		return nil, 0, fmt.Errorf("store: %s: %w", filepath.Base(path), ErrLegacySegment)
	default:
		if final {
			// A crash before the header finished; openSegLocked rewrites it.
			return nil, int64(len(data)), s.truncateTo(path, 0)
		}
		return nil, 0, fmt.Errorf("store: %s: %w", filepath.Base(path), ErrCorrupt)
	}
	off, seed := segHdrV2, seedFor(start)
	for off < len(data) {
		rest := data[off:]
		ok, size, e := parseRecord(rest, seed)
		if !ok {
			if !final {
				return nil, 0, fmt.Errorf("store: %s: record at offset %d: %w", filepath.Base(path), off, ErrCorrupt)
			}
			if trailingRecords(rest, seed) {
				// The bytes beyond the bad record still parse as records:
				// a torn write cannot leave valid data after the tear, so
				// this is mid-journal damage, not a crash artifact.
				return nil, 0, fmt.Errorf("store: %s: record at offset %d: %w", filepath.Base(path), off, ErrCorrupt)
			}
			torn = int64(len(data) - off)
			return ents, torn, s.truncateTo(path, int64(off))
		}
		ents = append(ents, e)
		off += size
	}
	return ents, 0, nil
}

// parseRecord attempts one record at the front of b, reporting whether
// it verified under the segment's CRC seed, how many bytes it spanned,
// and the decoded entry.
func parseRecord(b []byte, seed uint32) (ok bool, size int, e oplog.Entry) {
	if len(b) < recHdrLen {
		return false, 0, oplog.Entry{}
	}
	n := int(binary.LittleEndian.Uint32(b))
	sum := binary.LittleEndian.Uint32(b[4:])
	if n <= 0 || n > maxRecord || recHdrLen+n > len(b) {
		return false, 0, oplog.Entry{}
	}
	payload := b[recHdrLen : recHdrLen+n]
	if crc32.Update(seed, castagnoli, payload) != sum {
		return false, recHdrLen + n, oplog.Entry{}
	}
	e, err := oplog.DecodeEntry(payload)
	if err != nil {
		return false, recHdrLen + n, oplog.Entry{}
	}
	return true, recHdrLen + n, e
}

// trailingRecords reports whether bytes beyond the (invalid) record at
// the front of b parse as at least one valid record — the signature of
// mid-journal corruption rather than a torn tail.
func trailingRecords(b []byte, seed uint32) bool {
	_, size, _ := parseRecord(b, seed)
	if size == 0 || size >= len(b) {
		return false
	}
	ok, _, _ := parseRecord(b[size:], seed)
	return ok
}

func (s *Store) truncateTo(path string, size int64) error {
	if err := s.fs.Truncate(path, size); err != nil {
		return err
	}
	f, err := s.fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// loadSnapshotFile parses one snapshot file — full or delta — end to
// end; any shortfall (magic, a record CRC, the footer) invalidates the
// whole file. Deltas carry one extra header field: the parent position
// their chain link hangs from.
func loadSnapshotFile(fsys faultfs.FS, path string) (ents []oplog.Entry, pos, parent int, mark oplog.Watermark, full bool, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, 0, oplog.Watermark{}, false, err
	}
	bad := func(what string) error { return fmt.Errorf("store: snapshot %s: bad %s", filepath.Base(path), what) }
	fail := func(what string) ([]oplog.Entry, int, int, oplog.Watermark, bool, error) {
		return nil, 0, 0, oplog.Watermark{}, false, bad(what)
	}
	var b []byte
	switch {
	case len(data) >= len(snapMagic) && string(data[:len(snapMagic)]) == snapMagic:
		full, b = true, data[len(snapMagic):]
	case len(data) >= len(deltaMagic) && string(data[:len(deltaMagic)]) == deltaMagic:
		b = data[len(deltaMagic):]
	default:
		return fail("magic")
	}
	upos, n := binary.Uvarint(b)
	if n <= 0 {
		return fail("position")
	}
	b = b[n:]
	if !full {
		uparent, n := binary.Uvarint(b)
		if n <= 0 || uparent > upos {
			return fail("parent")
		}
		parent = int(uparent)
		b = b[n:]
	}
	mark, b, err = oplog.DecodeWatermark(b)
	if err != nil {
		return fail("watermark")
	}
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return fail("count")
	}
	b = b[n:]
	ents = make([]oplog.Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		ok, size, e := parseRecord(b, 0)
		if !ok {
			return fail(fmt.Sprintf("record %d", i))
		}
		ents = append(ents, e)
		b = b[size:]
	}
	if string(b) != snapFooter {
		return fail("footer")
	}
	return ents, int(upos), parent, mark, full, nil
}
