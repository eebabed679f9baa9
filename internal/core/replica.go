package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/apology"
	"repro/internal/oplog"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/uniq"
)

// Wire messages. Senders are identified by the transport's from
// parameter, never duplicated in the payload.
type (
	pushReq struct {
		Entries []oplog.Entry
	}
	pushAck  struct{ OK bool }
	admitReq struct{ Op oplog.Entry }
	admitAck struct{ OK bool }
	applyReq struct{ Op oplog.Entry }
)

// Replica is one eventually consistent copy of the application. Its
// operation set survives crashes (the disk does); a crashed replica simply
// stops talking until revived.
//
// A replica's mutable state is guarded by a mutex so the same code runs
// on the single-threaded simulator and on the concurrent live transport.
// The lock is never held across a transport call — cross-replica calls
// therefore cannot deadlock, at the usual eventual-consistency price: an
// admission check is a guess against a snapshot, exactly as §5.1 demands.
type Replica[S any] struct {
	c      *Cluster[S]
	g      *shardGroup[S] // the shard this replica serves
	id     string
	node   Node
	gen    *uniq.Gen
	remote bool // hosted by another process (WithLocalReplicas): an addressing stub

	// gossipPeers is the fixed set of peers this replica ever pushes its
	// journal to: its ring successor and predecessor within the shard
	// group. It is the single source of truth for that relationship —
	// gossipRound pushes to exactly these peers, and journal truncation
	// waits for acknowledgements from exactly them; deriving either side
	// elsewhere would let the two drift and either lose entries a peer
	// still needs or leak the journal again.
	gossipPeers []*Replica[S]
	// syncPeers names every other replica of the shard group: the nodes a
	// coordinated submit asks to admit and then to apply. Membership is
	// fixed, so it is computed once, with gossipPeers.
	syncPeers []string

	mu      sync.Mutex
	ops     *oplog.Set
	journal oplog.Journal   // arrival order, for incremental gossip; prefix truncated once acked
	sentTo  map[string]int  // journal prefix (absolute position) each peer holds, acked or inferred
	pushing map[string]bool // peers with a push in flight, to keep rounds from resending the suffix
	lamport uint64          // highest Lamport timestamp seen
	// ackedTo is, per gossip peer, the journal prefix the peer holds by its
	// own durable pushAck — never, unlike sentTo, because it sent us those
	// entries itself: a sender may still lose them to a crash before its
	// fsync. Below ackedFloor, where the journal was seeded from disk, a
	// peer counts as holding everything. A durable replica pushes from
	// here (pushFromLocked), so what a peer sent it comes back once and
	// earns the durable ack; the store persists the minimum over peers
	// (Recovery.Acked), and a recovered replica re-pushes from there.
	ackedTo    map[string]int
	ackedFloor int

	// The durable tier (nil without WithDurability). Every absorbed entry
	// is staged to the store's disk journal under mu — in the same order
	// as the in-memory journal, so the two share absolute positions — and
	// the absorb is acknowledged only once the store group-commits it.
	store *store.Store

	// Degraded read-only mode: set when the store failed with a
	// recoverable disk error (ENOSPC, EIO — see recoverableDiskErr).
	// While degraded the replica keeps serving reads from the published
	// fold snapshot, declines every write with the retryable
	// ReasonDegraded, and pauses gossip in both directions — phantom
	// guesses its disk never accepted must not spread, and a push it
	// acknowledged would be lost on rejoin. Rejoin re-probes the store
	// and clears the flag. degradedErr (under mu) records the failure.
	degraded    atomic.Bool
	degradedErr error

	// The fold checkpoint: state is the fold of every entry at or before
	// stateMark (stateN of them); stateDirty records that entries beyond
	// the watermark are waiting to be folded in. snaps holds periodic
	// checkpoint snapshots (ascending mark) so a gossip merge that sorts
	// behind the watermark rewinds to a recent checkpoint instead of
	// genesis. See stateLocked and rewindLocked.
	state       S
	stateMark   oplog.Watermark
	stateN      int
	stateShared bool // a State() caller holds the accumulator; clone before folding in place
	stateDirty  bool
	snaps       []foldSnap[S]

	// The lock-free read path: pub holds the newest published fold
	// snapshot — an immutable {state, op count} pair stamped with the set
	// version it derives — and version counts set mutations (bumped under
	// mu, before any result of the mutation resolves). A reader whose
	// loaded publication matches the current version returns it without
	// ever touching mu; anything newer falls back to the locked fold,
	// which publishes. Publication is on demand: only that fallback (and
	// Kill) writes pub, so the writers never share the accumulator and a
	// clone is something a reader causes — the first State() after a
	// write pays the lock, the next write pays one clone, and a
	// write-only stream pays neither.
	pub     atomic.Pointer[foldPub[S]]
	version atomic.Uint64

	// The write path (ingest.go): submits enqueue into the ring and
	// whichever submitter holds drainMu drains it — one drainer at a
	// time, so concurrent enqueuers never interleave segments. drainMu
	// also guards the drain's two reused buffers: the batch popped off the
	// ring and the entries a segment accepted. segPool recycles the
	// objects that carry durable segments to their commit callback. Nil
	// ring on a remote stub.
	ingest    *ingestQueue
	drainMu   sync.Mutex
	drainBuf  []ingestItem
	acceptBuf []oplog.Entry
	segPool   sync.Pool // *ingestSeg[S]

	roundPool  sync.Pool // *syncRound[S]: coordinated submits in flight
	absorbPool sync.Pool // *absorbJob[S]: absorbs waiting for their commit

	Ledger apology.Ledger // this replica's memories, guesses, apologies
}

// foldPub is one published fold snapshot: the immutable state derived
// from all n entries of the set at the given version.
type foldPub[S any] struct {
	state   S
	n       int
	version uint64
}

// foldSnap is one periodic fold checkpoint: the (cloned) state derived
// from every entry at or before mark, n entries in total.
type foldSnap[S any] struct {
	state S
	mark  oplog.Watermark
	n     int
}

// incarnationBits is how many sequence numbers one life of a durable
// replica may mint: 2^40, before it would run into the next life's base.
const incarnationBits = 40

// maxFoldSnaps bounds the checkpoint ring per replica. Dropping the
// oldest snapshot only means a merge sorting *very* far into the past
// replays from genesis — the pre-checkpoint cost, paid only then.
const maxFoldSnaps = 8

func newReplica[S any](c *Cluster[S], g *shardGroup[S], id string) *Replica[S] {
	r := &Replica[S]{
		c:       c,
		g:       g,
		id:      id,
		gen:     uniq.NewGen(id),
		ops:     oplog.NewSet(),
		sentTo:  make(map[string]int),
		ackedTo: make(map[string]int),
		pushing: make(map[string]bool),
		state:   c.app.Init(),
		ingest:  &ingestQueue{},
	}
	if c.cfg.durableDir != "" {
		// Cold start: open (or create) the durable store and replay
		// whatever an earlier incarnation left behind. Failing to open the
		// durability the caller asked for must not silently degrade to
		// RAM-only.
		st, rec, err := store.Open(c.storeDir(id), c.storeOptions())
		if err != nil {
			panic(fmt.Sprintf("quicksand: WithDurability(%s): %v", c.cfg.durableDir, err))
		}
		r.seedFromDisk(st, rec)
		// A new process must not reissue an ID an earlier life minted —
		// not even one its disk lost: §5.8's round and gossip hand an op to
		// peers before the origin's fsync, and a peer holding the old op
		// would take the new one for its duplicate. Each Open of the
		// directory is a new incarnation, so each life counts from its own
		// base, 2^40 numbers apart; a fresh directory's is 0, minting the
		// IDs a volatile replica does. In-process Recover and Rejoin keep
		// the running counter, which is already past everything issued.
		r.gen = uniq.NewGenAfter(id, rec.Incarnation<<incarnationBits)
	}
	r.node = c.tr.Node(id, c.cfg.callTimeout)
	r.node.Handle("push", r.handlePush)
	r.node.Handle("admit", r.handleAdmit)
	r.node.Handle("apply", r.handleApply)
	return r
}

// newRemoteReplica builds the addressing stub for a replica hosted by
// another process (WithLocalReplicas): it occupies the replica's slot in
// the shard group — so ring neighbours, sync-coordination peer lists,
// and gossip targets are computed identically in every process — but it
// holds no state, opens no store, and registers no transport node.
// Everything that would touch its state is gated on the remote flag;
// messages addressed to it are the transport's to route.
func newRemoteReplica[S any](c *Cluster[S], g *shardGroup[S], id string) *Replica[S] {
	return &Replica[S]{
		c:      c,
		g:      g,
		id:     id,
		remote: true,
		gen:    uniq.NewGen(id),
		ops:    oplog.NewSet(),
		sentTo: make(map[string]int),
		node:   &remoteNode{tr: c.tr, id: id},
	}
}

// remoteNode stands in for a Node another process registered. Liveness
// is the transport's best knowledge of the peer (IsUp); everything else
// is a programming error — a remote stub never serves handlers and never
// originates calls from this process.
type remoteNode struct {
	tr Transport
	id string
}

func (n *remoteNode) ID() string    { return n.id }
func (n *remoteNode) Crashed() bool { return !n.tr.IsUp(n.id) }
func (n *remoteNode) Handle(method string, h Handler) {
	panic(fmt.Sprintf("quicksand: Handle(%q) on remote replica %s", method, n.id))
}
func (n *remoteNode) Call(to, method string, req any, done func(any, bool)) {
	panic(fmt.Sprintf("quicksand: Call from remote replica %s", n.id))
}
func (n *remoteNode) Broadcast(to []string, method string, req any, done func([]any, int)) {
	panic(fmt.Sprintf("quicksand: Broadcast from remote replica %s", n.id))
}

// notHosted is the decline for a submit routed at a replica another
// process hosts. The engine never proxies ingest across the transport —
// a client talks to the daemon that owns its target replica (the SDK's
// job) — so this is a routing error, reported as a decline.
func (r *Replica[S]) notHosted(op Op) Result {
	return Result{Op: op, Reason: "replica " + r.id + " is not hosted by this process"}
}

// seedFromDisk rebuilds the replica's in-memory world from a store
// recovery: operation set and Lamport clock from snapshot ∪ journal,
// gossip journal re-seeded with the suffix some peer may not have
// acknowledged (positions [Acked, End); peers that already hold some of
// it dedupe the re-push), fold checkpoint rebuilt lazily by the next
// State call. Runs before the replica is published (construction or
// under mu during Recover).
func (r *Replica[S]) seedFromDisk(st *store.Store, rec store.Recovery) {
	r.store = st
	r.ops.Grow(len(rec.SnapshotEntries) + len(rec.JournalEntries))
	acked := rec.Acked - rec.Base
	for _, e := range rec.SnapshotEntries {
		r.ops.Add(e)
	}
	for _, e := range rec.JournalEntries[:acked] {
		r.ops.Add(e)
	}
	// The journal keeps the set's copies of the suffix, read back from
	// AddAll a bounded chunk at a time: the recovery's strings would pin
	// whole segment files in memory. An entry an older build's snapshot
	// already held is not new to the set; the journal copies it.
	r.journal = oplog.JournalAt(rec.Acked)
	r.ackedFloor = rec.Acked
	for suffix := rec.JournalEntries[acked:]; len(suffix) > 0; {
		chunk := suffix[:min(len(suffix), ingestBatchCap)]
		suffix = suffix[len(chunk):]
		added := r.ops.AddAll(chunk)
		for _, e := range chunk {
			if len(added) > 0 && added[0].ID == e.ID {
				e, added = added[0], added[1:]
			} else {
				e = cloneEntry(e)
			}
			r.journal.Append(e)
		}
	}
	r.lamport = r.ops.MaxLam()
	r.stateDirty = r.ops.Len() > 0
	// Invalidate any published read snapshot from a previous incarnation;
	// the next State call refolds from the recovered set and republishes.
	r.version.Add(1)
}

// cloneEntry copies e's strings, so that keeping it keeps nothing else.
func cloneEntry(e oplog.Entry) oplog.Entry {
	e.ID = uniq.ID(strings.Clone(string(e.ID)))
	e.Kind, e.Key, e.Note = strings.Clone(e.Kind), strings.Clone(e.Key), strings.Clone(e.Note)
	return e
}

// ID returns the replica's name — its transport node id (r0, r1, ... on
// an unsharded cluster; s<shard>/r<i> on a sharded one).
func (r *Replica[S]) ID() string { return r.id }

// Shard reports which shard this replica serves.
func (r *Replica[S]) Shard() int { return r.g.idx }

// JournalRetained reports how many gossip-journal entries this replica
// still holds in memory. Once every gossip peer has acknowledged a
// prefix it is truncated, so on a healthy cluster this stays bounded by
// the entries absorbed since the last full gossip cycle rather than
// growing with the ledger.
func (r *Replica[S]) JournalRetained() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journal.Retained()
}

// JournalTruncated reports how many journal entries have been truncated
// away after acknowledgement by every gossip peer.
func (r *Replica[S]) JournalTruncated() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journal.Base()
}

// OpCount reports how many distinct operations this replica has seen.
// Like State, it serves from the published fold snapshot when that is
// current, without taking the replica lock.
func (r *Replica[S]) OpCount() int {
	if p := r.pub.Load(); p != nil && p.version == r.version.Load() {
		return p.n
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops.Len()
}

// Ops returns a copy of the replica's operation set.
func (r *Replica[S]) Ops() *oplog.Set {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops.Copy()
}

// sameOps reports whether both replicas hold identical operation sets,
// without copying either. Cluster.Converged always passes replica 0 as
// the receiver, so the two locks are taken in a globally consistent
// order and concurrent polls cannot deadlock.
func (r *Replica[S]) sameOps(o *Replica[S]) bool {
	if r == o {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	return r.ops.Equal(o.ops)
}

// State derives (and caches) the application state, advancing the fold
// checkpoint by folding only the entries beyond the watermark.
//
// The returned state is a stable snapshot — later operations never
// change it — but it is read-only: the engine folds forward from it, so
// mutating a reference-typed state through it corrupts every subsequent
// derivation.
//
// Reads are lock-free whenever the atomically published fold snapshot is
// current — every read after the first since the last write. That first
// one takes the lock, folds what the writers left pending, and publishes;
// every acknowledged write bumped the version before its result
// resolved, so it can never be served a publication that misses one.
// The price of a publication is paid by the next write, which clones the
// accumulator before folding into it (Metrics.FoldClones); see View for
// a read that never causes one.
func (r *Replica[S]) State() S {
	if p := r.pub.Load(); p != nil && p.version == r.version.Load() {
		return p.state
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stateLocked()
}

// View calls fn with the current state without ever handing it out: the
// published snapshot when it is current, otherwise the live accumulator
// under the replica lock — folded up to date, not marked shared, so the
// next write folds in place instead of cloning the world. The state is
// valid only for the duration of the call: fn must not retain or mutate
// it and must not call back into the replica (it may hold the lock).
// This is the read for "look at one key"; State is the read for "keep
// the whole thing".
func (r *Replica[S]) View(fn func(S)) {
	if p := r.pub.Load(); p != nil && p.version == r.version.Load() {
		fn(p.state)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.foldLocked()
	fn(r.state)
}

func (r *Replica[S]) stateLocked() S {
	r.foldLocked()
	r.publishLocked()
	return r.state
}

// admitLocked is the one admission check: fold whatever is pending into
// the accumulator and offer it, in place, to every rule's Admit. It
// reports the first rule that declines, as the Result.Reason naming it.
// Nothing is shared or published — the rules see the live accumulator for
// the duration of the call (the contract Rule documents). The caller
// holds r.mu.
func (r *Replica[S]) admitLocked(op oplog.Entry) (reason string, ok bool) {
	if !r.c.hasAdmit {
		// Deriving state is the expensive part of admission; rule-free
		// clusters skip it and ingest in O(1).
		return "", true
	}
	r.foldLocked()
	for i, rule := range r.c.rules {
		if rule.Admit != nil && !rule.Admit(r.state, op) {
			return r.c.declined[i], false
		}
	}
	return "", true
}

// publishLocked stores the current fold as the lock-free read snapshot.
// It must only run when the fold is current (not dirty); the published
// state is handed out by reference, so it is marked shared — the next
// in-place fold clones first, and the object behind the pointer is
// immutable forever after. Version is captured under mu, which is what
// lets readers validate a loaded publication with one atomic compare.
// Exactly two callers: stateLocked (a reader asked) and Kill.
func (r *Replica[S]) publishLocked() {
	if r.stateDirty {
		return
	}
	r.stateShared = true
	v := r.version.Load()
	if p := r.pub.Load(); p != nil && p.version == v {
		return
	}
	r.pub.Store(&foldPub[S]{state: r.state, n: r.ops.Len(), version: v})
}

// foldLocked brings the fold checkpoint up to date with the operation set.
func (r *Replica[S]) foldLocked() {
	if !r.stateDirty {
		return
	}
	r.stateDirty = false
	every, mark, folded := r.c.cfg.foldEvery, r.stateMark, r.stateN
	// The walk materializes each entry from the set in place, copying
	// nothing: mu guards the set for the whole fold. It is a plain index
	// loop, not a range over an iterator, so there is no loop-body closure
	// for escape analysis to move to the heap in some instantiation of
	// Replica — as it did for the daemon's, at a few allocations a fold.
	for i, n := r.ops.Start(mark), r.ops.Len(); i < n; i++ {
		e := r.ops.At(i)
		if r.stateShared {
			// A State() caller holds the accumulator; folding in place would
			// mutate their snapshot. Clone once per fold batch, not per State
			// call — and only here: a write nobody read between never clones.
			r.state = r.c.snapFn(r.state)
			r.stateShared = false
			r.g.M.FoldClones.Inc()
		}
		r.state = r.c.app.Step(r.state, e)
		r.stateN++
		mark = e.Mark()
		if r.stateN%every == 0 {
			r.checkpointLocked(mark)
		}
	}
	r.stateMark = mark
	r.g.M.FoldSteps.Addn(int64(r.stateN - folded))
}

// checkpointLocked stores a cloned snapshot of the fold at mark, keeping
// the ring bounded.
func (r *Replica[S]) checkpointLocked(mark oplog.Watermark) {
	r.snaps = append(r.snaps, foldSnap[S]{state: r.c.snapFn(r.state), mark: mark, n: r.stateN})
	if len(r.snaps) > maxFoldSnaps {
		copy(r.snaps, r.snaps[1:])
		r.snaps[maxFoldSnaps] = foldSnap[S]{}
		r.snaps = r.snaps[:maxFoldSnaps]
	}
	r.g.M.FoldCheckpoints.Inc()
}

// rewindLocked reacts to an entry that sorts at or behind the fold
// watermark (position m): every snapshot whose prefix would contain the
// newcomer is invalid, so drop those and restart the fold from the newest
// surviving checkpoint (or genesis). The next stateLocked call replays
// forward from there — bounded by the checkpoint cadence, not the ledger.
func (r *Replica[S]) rewindLocked(m oplog.Watermark) {
	for n := len(r.snaps); n > 0 && !r.snaps[n-1].mark.Less(m); n = len(r.snaps) {
		r.snaps[n-1] = foldSnap[S]{}
		r.snaps = r.snaps[:n-1]
	}
	if n := len(r.snaps); n > 0 {
		top := r.snaps[n-1]
		r.state = r.c.snapFn(top.state) // clone: the stored snapshot stays pristine
		r.stateMark = top.mark
		r.stateN = top.n
	} else {
		r.state = r.c.app.Init()
		r.stateMark = oplog.Watermark{}
		r.stateN = 0
	}
	r.stateShared = false
	r.g.M.FoldRewinds.Inc()
}

// addedLocked does the bookkeeping for one entry just added to the set —
// Lamport clock, rewind detection — without journaling or store staging;
// ingestSegment batches those through Journal.AppendAll and stageLocked.
// The caller holds r.mu.
func (r *Replica[S]) addedLocked(e oplog.Entry) {
	// Dirty immediately, not at staging time: an admission check later in
	// the same ingest batch must fold this entry in before it guesses.
	r.stateDirty = true
	if e.Lam > r.lamport {
		r.lamport = e.Lam
	}
	if !r.stateMark.Before(e) {
		// The newcomer sorts into the already-folded past: the
		// checkpoint no longer covers a prefix of the canonical
		// order. Ingress Lamport stamping makes this rare — only
		// gossip can deliver it.
		r.rewindLocked(e.Mark())
	}
}

// stageLocked records the side effects of newly added entries: the fold
// goes dirty, the set version advances (invalidating the published read
// snapshot until the next publication), and — on a durable replica — the
// whole slice is staged to the disk journal in one call. It returns the
// store position covering the entries (0 without a store). The caller
// holds r.mu and has already journaled the entries (or deliberately not,
// for a lone replica).
func (r *Replica[S]) stageLocked(added []oplog.Entry) (end int) {
	r.version.Add(1)
	if r.store != nil {
		// Stage to the disk journal in the same order, under the same
		// lock, as the in-memory journal: the two streams share
		// absolute positions, which is what lets the store persist peer
		// acknowledgements (in-memory positions) as its acked position.
		end = r.store.Stage(added)
		if len(r.gossipPeers) == 0 {
			// No peers will ever need a re-push: the ack watermark is
			// vacuously the journal tail.
			r.store.AckTo(end)
		}
	}
	return end
}

// absorbLocked unions entries into the set, returning the ones that
// were new plus the durable-store position covering them (0 when the
// replica has no store). from names the peer the entries arrived from
// ("" for local submits): when the new entries land contiguously at the
// journal tail, the sender's acknowledgement mark advances over them —
// it evidently holds them already, so pushing them back would only be
// deduplicated echo. The caller holds r.mu.
func (r *Replica[S]) absorbLocked(entries []oplog.Entry, from string) (added []oplog.Entry, end int) {
	contiguous := from != "" && r.sentTo[from] == r.journal.Len()
	added = r.ops.AddAll(entries)
	if len(added) == 0 {
		return nil, 0
	}
	r.stateDirty = true
	var behind oplog.Watermark
	rewind := false
	for _, e := range added {
		if e.Lam > r.lamport {
			r.lamport = e.Lam
		}
		if !r.stateMark.Before(e) {
			// The newcomer sorts into the already-folded past: the
			// checkpoint no longer covers a prefix of the canonical order.
			// One rewind to the earliest such position covers the whole
			// batch; doing it per entry would replay the checkpoint suffix
			// K times.
			if m := e.Mark(); !rewind || m.Less(behind) {
				behind, rewind = m, true
			}
		}
	}
	if rewind {
		r.rewindLocked(behind)
	}
	if len(r.gossipPeers) > 0 {
		// A lone replica never pushes, so journaling for it would only
		// accumulate memory.
		r.journal.AppendAll(added)
	}
	end = r.stageLocked(added)
	if contiguous {
		r.sentTo[from] = r.journal.Len()
		r.truncateJournalLocked()
	}
	return added, end
}

// absorb unions entries into the set and — once they are durable, on a
// replica that owns a store — tallies them in the ledger, sweeps for newly
// exposed rule violations, and replies pushAck{OK: ok}. A false OK means
// the entries never became durable (the replica crashed mid-write) and
// nothing was recorded: the sender must not count them as delivered. from
// names the sending peer ("" for local work). reply is a handler's own
// reply or a sync round's bound continuation, and the outcome rides a
// pooled absorbJob to the store's commit: an absorb brings no closure.
func (r *Replica[S]) absorb(entries []oplog.Entry, how, from string, reply func(any)) {
	r.mu.Lock()
	if r.node.Crashed() || r.degraded.Load() {
		// A dead process absorbs nothing. The transports already drop
		// deliveries to crashed nodes; this closes the in-process race
		// where Kill wipes state between a liveness check and the absorb.
		// A degraded replica must not admit entries its disk cannot back —
		// and must not acknowledge a gossip push it would lose on rejoin.
		// OK=false keeps the peer's journal in place, exactly like a crash.
		r.mu.Unlock()
		reply(pushAck{OK: false})
		return
	}
	job, _ := r.absorbPool.Get().(*absorbJob[S])
	if job == nil {
		job = &absorbJob[S]{r: r}
		job.commit = job.resolve
	}
	job.reply = reply
	added, end := r.absorbLocked(entries, from)
	job.n = len(added)
	if t := r.c.cfg.tracer; t != nil && how == "gossip" {
		// added is the set's scratch, valid only under mu: keep the IDs
		// the tracer samples.
		for i := range added {
			if t.Sampled(string(added[i].ID)) {
				job.traced = append(job.traced, added[i].ID)
			}
		}
	}
	st := r.store
	if st != nil && job.n == 0 {
		// Nothing new, but the OK still promises the pushed entries are
		// durable here: wait for everything staged so far, which holds
		// them. Usually it is on disk already and the callback runs now.
		end = st.End()
	}
	r.mu.Unlock()
	if st == nil {
		job.resolve(true)
		return
	}
	st.Commit(end, job.commit)
}

// absorbJob carries one absorb from the replica lock to its reply: how
// many entries were new, the sampled IDs a gossip trace reports once
// they are durable, and where the acknowledgement goes. Pooled per
// replica, with the func(bool) handed to Store.Commit bound once.
type absorbJob[S any] struct {
	r      *Replica[S]
	n      int
	traced []uniq.ID
	reply  func(any)
	commit func(ok bool) // job.resolve
}

func (job *absorbJob[S]) resolve(ok bool) {
	r := job.r
	if ok {
		if t := r.c.cfg.tracer; t != nil && len(job.traced) > 0 {
			now := int64(r.c.tr.Now())
			for _, id := range job.traced {
				t.Absorbed(string(id), r.id, now)
			}
		}
		if job.n > 0 {
			// The added entries are in the op set; the ledger counts them.
			r.Ledger.Tally(apology.Memory, job.n)
			r.sweepViolations()
		}
	} else {
		// The entries were admitted to RAM but will never be durable: a
		// replica that kept serving them as accepted would gossip guesses
		// its own disk cannot back. Crash (§2.2) or degrade — either way
		// gossip pauses and nothing is acknowledged.
		r.storeFailed()
	}
	reply := job.reply
	clear(job.traced)
	job.traced, job.reply = job.traced[:0], nil
	r.absorbPool.Put(job)
	reply(pushAck{OK: ok})
}

// storeFailed reacts to the store reporting a commit failure while the
// process is still alive — a sticky disk error, not an explicit Kill
// (Kill detaches the store first, making this a no-op). The §2.2
// discipline used to be unconditional: crash, wiping every in-memory
// entry no flush will ever cover. That is still the response to
// failures retrying cannot fix (corruption, unknown errors) — but a
// full or transiently failing disk heals when space frees or the
// device settles, and killing the replica turns an operational hiccup
// into an outage. Those failures enter degraded read-only mode instead;
// the return value reports which path was taken so callers can attach
// the retryable ReasonDegraded to their declines.
//
// On the live transport both paths hop to a fresh goroutine: the
// failure callback runs on the store's own flusher, which Crash would
// otherwise deadlock waiting for.
func (r *Replica[S]) storeFailed() (degraded bool) {
	r.mu.Lock()
	st := r.store
	r.mu.Unlock()
	if st == nil {
		// Already killed or already degraded; report which.
		return r.degraded.Load()
	}
	if !recoverableDiskErr(st.FailErr()) {
		if st.InlineMode() {
			r.Kill()
		} else {
			go r.Kill()
		}
		return false
	}
	if st.InlineMode() {
		r.degrade(st)
	} else {
		go r.degrade(st)
	}
	return true
}

// recoverableDiskErr classifies a store failure: true for conditions
// that heal on their own (a full disk drains, a flaky device settles),
// false for anything a reopen-and-retry cannot fix. Unknown errors stay
// fatal on purpose — the old unconditional fail-fast is the safe
// default for damage this code has never seen.
func recoverableDiskErr(err error) bool {
	if err == nil {
		return false
	}
	for _, errno := range []syscall.Errno{syscall.ENOSPC, syscall.EDQUOT, syscall.EIO, syscall.EAGAIN, syscall.EINTR} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// degrade moves the replica into degraded read-only mode: the failed
// store is detached and crashed (dropping its staged tail), the
// in-memory world keeps serving reads — including entries the disk
// never accepted, whose submitters were declined with a retryable
// reason — and every write path refuses with ReasonDegraded until
// Rejoin reopens the store. On the live transport a re-probe loop
// retries Rejoin with backoff, so a disk-full shard heals itself once
// space frees; the simulator rejoins explicitly to stay deterministic.
func (r *Replica[S]) degrade(st *store.Store) {
	err := st.FailErr()
	r.mu.Lock()
	if r.store != st {
		// Lost a race with Kill (or another failure path); whoever won
		// owns the store's shutdown.
		r.mu.Unlock()
		return
	}
	r.store = nil
	r.degradedErr = err
	// Counted before the flag is visible, and recorded before the store is
	// crashed: on the live path Crash waits out the flusher that is still
	// delivering the failed commits, so a scrape arriving behind one of
	// those declines must not find the shard degraded and the count at 0.
	r.g.M.Degraded.Inc()
	r.degraded.Store(true)
	live := !st.InlineMode()
	r.mu.Unlock()
	r.Ledger.Record(r.c.tr.Now(), apology.Memory, r.id,
		fmt.Sprintf("entered degraded read-only mode: %v", err), "")
	st.Crash()
	if live {
		go r.reprobeLoop()
	}
}

// reprobeLoop retries Rejoin with capped exponential backoff until the
// replica heals, is killed, or the cluster closes. Live transports
// only; the deterministic simulator rejoins explicitly.
func (r *Replica[S]) reprobeLoop() {
	backoff := 100 * time.Millisecond
	for r.degraded.Load() {
		select {
		case <-r.c.done:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
		if err := r.Rejoin(context.Background()); err == nil {
			return
		}
	}
}

// Degraded reports whether the replica is in degraded read-only mode:
// its disk stopped accepting writes, reads still serve the published
// fold snapshot, and writes decline with ReasonDegraded until Rejoin
// succeeds.
func (r *Replica[S]) Degraded() bool { return r.degraded.Load() }

// IngestBacklog reports how many submits are queued on the replica's
// ingest ring right now, against its fixed nominal capacity ((0, 0) for
// a remote replica). Depth is bounded by the operations of callers
// currently inside a submit call, so a depth near capacity means that
// many are parked behind the drain — the ingress-side load-shedding
// signal. The ring itself grows past the nominal figure rather than
// block; the denominator does not move.
func (r *Replica[S]) IngestBacklog() (depth, capacity int) {
	if r.remote {
		return 0, 0
	}
	return r.ingest.depth(), ingestNominalCap
}

// DegradedReason returns the store failure that degraded the replica,
// or "" when it is healthy.
func (r *Replica[S]) DegradedReason() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.degradedErr == nil {
		return ""
	}
	return r.degradedErr.Error()
}

// Rejoin re-probes a degraded replica's durable store and, when the
// disk has healed, rebuilds the in-memory world from it — discarding
// the phantom entries the degraded incarnation kept serving reads from
// (their submitters were declined; gossip re-fills anything peers hold)
// — then resumes writes and gossip. It fails, leaving the replica
// degraded, while the store still cannot be reopened.
func (r *Replica[S]) Rejoin(ctx context.Context) error {
	if r.remote {
		return fmt.Errorf("quicksand: replica %s is hosted by another process; rejoin it there", r.id)
	}
	if !r.degraded.Load() {
		return fmt.Errorf("quicksand: replica %s is not degraded", r.id)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st, rec, err := store.Open(r.c.storeDir(r.id), r.c.storeOptions())
	if err != nil {
		return fmt.Errorf("quicksand: rejoin %s: %w", r.id, err)
	}
	r.mu.Lock()
	if r.store != nil || !r.degraded.Load() {
		// Lost a race with a concurrent Rejoin or a Kill; this handle is
		// surplus and the winner's state must not be clobbered.
		r.mu.Unlock()
		st.Close()
		return fmt.Errorf("quicksand: replica %s already rejoined (or was killed)", r.id)
	}
	r.wipeLocked()
	r.seedFromDisk(st, rec)
	r.degradedErr = nil
	r.degraded.Store(false)
	n := r.ops.Len()
	r.mu.Unlock()
	r.Ledger.Record(r.c.tr.Now(), apology.Memory, r.id,
		fmt.Sprintf("rejoined after degraded mode with %d ops from disk", n), "")
	return nil
}

// sweepViolations evaluates every rule's Violated check against the
// current state; new violations become apologies. The queue dedupes by
// content, so the same overdraft found at three replicas is one apology.
// The rules read the state in place (View); apologies, ledger lines and
// trace events are issued only after the replica lock is released.
func (r *Replica[S]) sweepViolations() {
	if !r.c.hasViolate {
		return
	}
	type found struct {
		rule string
		v    Violation
	}
	var all []found
	r.View(func(state S) {
		for _, rule := range r.c.rules {
			if rule.Violated == nil {
				continue
			}
			for _, v := range rule.Violated(state) {
				all = append(all, found{rule.Name, v})
			}
		}
	})
	for _, f := range all {
		a := apology.NewApology(f.rule, f.v.Detail, f.v.Amount, r.id)
		a.Key = f.v.Key
		if r.c.Apologies.Submit(a) {
			now := r.c.tr.Now()
			r.Ledger.Record(now, apology.Regret, r.id, f.rule+": "+f.v.Detail, a.ID)
			if t := r.c.cfg.tracer; t != nil {
				t.Apologized(f.v.Key, string(a.ID), r.id, int64(now))
			}
		}
	}
}

// syncRound carries one policy-coordinated submit through §5.8's round —
// admit everywhere, absorb locally, apply everywhere — to its Result.
// Pooled per replica: each step's callback is bound once and one backs
// the local absorb, so a round allocates nothing beyond its two request
// messages.
type syncRound[S any] struct {
	r   *Replica[S]
	it  ingestItem     // the submit being coordinated
	one [1]oplog.Entry // the local absorb's batch

	admitted func(resps []any, oks int) // rd.onAdmit
	absorbed func(resp any)             // rd.onAbsorb
	applied  func(resps []any, oks int) // rd.onApply
}

// submitSync is the coordinated path of §5.8: ask every replica to admit
// the operation against its state, and only accept when all of them —
// reachable and willing — agree. Any silence or refusal declines the
// operation; being conservative is the point of paying for coordination.
func (r *Replica[S]) submitSync(it ingestItem) {
	rd, _ := r.roundPool.Get().(*syncRound[S])
	if rd == nil {
		rd = &syncRound[S]{r: r}
		rd.admitted, rd.absorbed, rd.applied = rd.onAdmit, rd.onAbsorb, rd.onApply
	}
	rd.it = it
	op := it.op
	if r.degraded.Load() {
		// The coordinator itself must durably apply the op after the
		// round; a degraded one cannot, so decline before paying for
		// the broadcast.
		rd.finish(Result{Op: op, Reason: ReasonDegraded, Retryable: true, Decision: policy.Sync})
		return
	}
	// Local admission first.
	r.mu.Lock()
	reason, ok := r.admitLocked(op)
	r.mu.Unlock()
	if !ok {
		rd.finish(Result{Op: op, Reason: reason, Decision: policy.Sync})
		return
	}
	r.node.Broadcast(r.syncPeers, "admit", admitReq{Op: op}, rd.admitted)
}

func (rd *syncRound[S]) onAdmit(resps []any, oks int) {
	r, op := rd.r, rd.it.op
	if oks != len(r.syncPeers) {
		rd.finish(Result{Op: op, Reason: "coordination failed: replica unreachable", Decision: policy.Sync})
		return
	}
	for _, resp := range resps {
		if !resp.(admitAck).OK {
			rd.finish(Result{Op: op, Reason: "declined by a remote replica", Decision: policy.Sync})
			return
		}
	}
	// All agreed: apply locally (durably, if a store is attached), then
	// everywhere else, then ack.
	rd.one[0] = op
	r.absorb(rd.one[:], "sync", "", rd.absorbed)
}

func (rd *syncRound[S]) onAbsorb(resp any) {
	r, op := rd.r, rd.it.op
	if !resp.(pushAck).OK {
		res := Result{Op: op, Reason: "replica crashed before the write was durable", Decision: policy.Sync}
		if r.degraded.Load() {
			res.Reason, res.Retryable = ReasonDegraded, true
		}
		rd.finish(res)
		return
	}
	r.node.Broadcast(r.syncPeers, "apply", applyReq{Op: op}, rd.applied)
}

func (rd *syncRound[S]) onApply([]any, int) {
	rd.finish(Result{Accepted: true, Op: rd.it.op, Decision: policy.Sync})
}

// finish counts and resolves the coordinated submit. The round is back in
// the pool before the result lands: resolving may wake a submitter that
// starts its next round at once.
func (rd *syncRound[S]) finish(res Result) {
	r, it := rd.r, rd.it
	g := r.g
	res.Latency = r.c.tr.Now() - it.start
	if res.Accepted {
		g.M.Accepted.Inc()
		g.M.SyncAccepted.Inc()
		g.M.SyncLat.AddDur(res.Latency)
	} else {
		g.M.SyncDeclined.Inc()
	}
	rd.it, rd.one[0] = ingestItem{}, oplog.Entry{}
	r.roundPool.Put(rd)
	it.finish(res)
}

// pushTo sends the journal suffix the peer has not acknowledged — one
// directed edge of an anti-entropy round. An acknowledgement may let the
// replica truncate the journal prefix that every gossip peer has now
// seen.
func (r *Replica[S]) pushTo(peer string) {
	r.mu.Lock()
	if r.pushing[peer] {
		// A push to this peer is still in flight. Sending again would
		// retransmit the same unacknowledged suffix — under ingest load
		// that compounds into a resend storm, each round re-shipping and
		// re-deduplicating an ever-growing window. The next round (or the
		// ack) picks up whatever is new.
		r.mu.Unlock()
		return
	}
	from := r.pushFromLocked(peer)
	if base := r.journal.Base(); from < base {
		// The peer's recorded acknowledgement predates this incarnation's
		// journal (a recovered replica re-seeds its journal at the disk
		// base and forgets per-peer acks). Re-pushing from the base is
		// safe: the peer dedupes what it already holds.
		from = base
	}
	entries := r.journal.Since(from)
	end := r.journal.Len()
	if len(entries) == 0 {
		// Nothing the peer hasn't acknowledged. Skipping the call costs
		// only reciprocation speed — the peer still pushes its own news
		// forward around the ring every round — and makes idle gossip
		// free, which matters when many shards each run their own rounds.
		r.mu.Unlock()
		return
	}
	r.pushing[peer] = true
	r.mu.Unlock()
	r.g.M.OpsTransferred.Addn(int64(len(entries)))
	r.node.Call(peer, "push", pushReq{Entries: entries}, func(resp any, ok bool) {
		acked := ok && resp.(pushAck).OK
		r.mu.Lock()
		delete(r.pushing, peer)
		if acked {
			if from <= r.ackedLocked(peer) {
				r.ackedTo[peer] = max(r.ackedTo[peer], end)
			}
			r.sentTo[peer] = max(r.sentTo[peer], end)
			r.truncateJournalLocked()
		}
		r.mu.Unlock()
		if acked {
			// A durable ack means the peer holds every pushed entry — the
			// cross-process observation that advances guess-to-truth even
			// when the peer's absorb happens in another daemon.
			if t := r.c.cfg.tracer; t != nil {
				now := int64(r.c.tr.Now())
				for i := range entries {
					t.GossipAcked(string(entries[i].ID), r.id, peer, now)
				}
			}
		}
	})
}

// truncateJournalLocked drops the journal prefix no gossip peer will be
// pushed again. Peers that have acked less (a crashed successor, a
// partitioned predecessor) hold the prefix in place, so anti-entropy
// never loses an entry a peer still needs — but once all acks cover it,
// a long-lived replica's journal no longer grows with total ops, only
// with the entries absorbed since the slowest peer's last ack. The store
// is handed the prefix every peer acknowledged durably (ackedTo).
func (r *Replica[S]) truncateJournalLocked() {
	keep, acked := r.journal.Len(), r.journal.Len()
	for _, p := range r.gossipPeers {
		keep = min(keep, r.pushFromLocked(p.id))
		acked = min(acked, r.ackedLocked(p.id))
	}
	r.journal.TruncateTo(keep)
	if r.store != nil {
		r.store.AckTo(acked)
	}
}

// pushFromLocked reports where the next push to peer starts. A volatile
// replica skips what the contiguity inference says the peer holds; a
// durable one starts at the peer's durable acknowledgement, because its
// store persists only that, and an inferred range that never came back
// would hold the acked position down for the rest of this life. The
// caller holds r.mu.
func (r *Replica[S]) pushFromLocked(peer string) int {
	if r.store == nil {
		return r.sentTo[peer]
	}
	return min(r.sentTo[peer], r.ackedLocked(peer))
}

// ackedLocked reports the journal prefix peer has durably acknowledged.
// The caller holds r.mu.
func (r *Replica[S]) ackedLocked(peer string) int {
	return max(r.ackedTo[peer], r.ackedFloor)
}

// The handlers hand reply straight on: absorb acknowledges with
// pushAck{OK: ok} once the entries are durable. Acknowledging entries
// that are not yet durable would let the peer truncate its journal while
// this replica could still lose them to a crash — the gap nobody could
// refill; OK=false keeps the peer's ack mark (and so its journal) where
// it is.
func (r *Replica[S]) handlePush(from string, req any, reply func(any)) {
	r.absorb(req.(pushReq).Entries, "gossip", from, reply)
}

func (r *Replica[S]) handleAdmit(from string, req any, reply func(any)) {
	a := req.(admitReq)
	r.mu.Lock()
	_, ok := r.admitLocked(a.Op)
	r.mu.Unlock()
	reply(admitAck{OK: ok})
}

func (r *Replica[S]) handleApply(from string, req any, reply func(any)) {
	one := [1]oplog.Entry{req.(applyReq).Op}
	r.absorb(one[:], "sync", from, reply)
}

// Kill hard-crashes the replica: the node goes silent on the transport
// and every bit of in-memory state — operation set, gossip journal,
// Lamport clock, fold checkpoints, ledger — is destroyed, along with
// any disk write that was not yet group-committed (in-flight submits
// resolve as declined). What survives is exactly the durable store's
// contents; a replica without one loses everything it uniquely held.
func (r *Replica[S]) Kill() {
	r.c.tr.SetUp(r.id, false)
	r.mu.Lock()
	st := r.store
	r.store = nil
	r.wipeLocked()
	// A killed replica is down, not degraded: Recover (not Rejoin) is
	// the way back, and the re-probe loop, if any, must stop.
	r.degradedErr = nil
	r.degraded.Store(false)
	// Lock-free readers must not keep serving the dead incarnation's
	// snapshot: bump the version and publish the wiped state.
	r.version.Add(1)
	r.publishLocked()
	r.mu.Unlock()
	r.Ledger.Reset()
	if st != nil {
		st.Crash()
	}
}

// wipeLocked destroys every bit of in-memory state, as a process death
// would — shared by Kill and by Rejoin (which discards the degraded
// incarnation's phantoms before reseeding from disk). The caller holds
// mu and owns store shutdown, publication, and ledger cleanup.
func (r *Replica[S]) wipeLocked() {
	r.ops = oplog.NewSet()
	r.journal = oplog.Journal{}
	r.sentTo = make(map[string]int)
	r.ackedTo = make(map[string]int)
	r.ackedFloor = 0
	r.pushing = make(map[string]bool)
	r.lamport = 0
	r.state = r.c.app.Init()
	r.stateMark = oplog.Watermark{}
	r.stateN = 0
	r.stateShared = false
	r.stateDirty = false
	r.snaps = nil
}

// Recover restarts a killed durable replica from disk alone: reopen the
// store (which truncates any torn journal tail), replay the journal,
// rebuild the operation set and Lamport clock, and rejoin the transport.
// Gossip then fills in everything admitted elsewhere while the replica
// was dead — peers held their journals for it (an unacknowledged prefix
// is never truncated), and it re-pushes its own unacknowledged suffix,
// which peers dedupe.
func (r *Replica[S]) Recover(ctx context.Context) error {
	if r.remote {
		return fmt.Errorf("quicksand: replica %s is hosted by another process; recover it there", r.id)
	}
	if r.c.cfg.durableDir == "" {
		return fmt.Errorf("quicksand: replica %s has no durable store to recover from (use WithDurability)", r.id)
	}
	if !r.node.Crashed() {
		return fmt.Errorf("quicksand: replica %s is alive; Recover follows Kill", r.id)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st, rec, err := store.Open(r.c.storeDir(r.id), r.c.storeOptions())
	if err != nil {
		return fmt.Errorf("quicksand: recover %s: %w", r.id, err)
	}
	r.mu.Lock()
	if r.store != nil {
		// The replica still holds a store: either a concurrent Recover won
		// the race, or the node was merely SetUp(false) — downed with its
		// RAM intact — rather than killed. Either way this handle is
		// surplus and the state must not be clobbered.
		r.mu.Unlock()
		st.Close()
		return fmt.Errorf("quicksand: replica %s still holds its state (already recovered, or downed without Kill)", r.id)
	}
	r.seedFromDisk(st, rec)
	n, snapN, journalN := r.ops.Len(), len(rec.SnapshotEntries), len(rec.JournalEntries)
	r.mu.Unlock()
	r.Ledger.Record(r.c.tr.Now(), apology.Memory, r.id,
		fmt.Sprintf("recovered %d ops from disk (snapshot %d + journal %d)", n, snapN, journalN), "")
	r.c.tr.SetUp(r.id, true)
	return nil
}

// closeStore gracefully flushes and closes the durable store, leaving
// the directory ready for a cold start. A non-nil error means the final
// flush (or the file close behind it) failed: the directory may be
// missing acknowledged entries, which the caller must surface rather
// than swallow.
func (r *Replica[S]) closeStore() error {
	r.mu.Lock()
	st := r.store
	r.store = nil
	r.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}

// StoreStats reports the replica's durable-store disk counters; ok is
// false when the replica has no live store (no WithDurability, or
// currently killed).
func (r *Replica[S]) StoreStats() (store.Stats, bool) {
	r.mu.Lock()
	st := r.store
	r.mu.Unlock()
	if st == nil {
		return store.Stats{}, false
	}
	return st.Stats(), true
}

// MergeFsyncHist merges the replica's log-bucketed fsync histogram into
// fsync; a no-op when the replica has no live store.
func (r *Replica[S]) MergeFsyncHist(fsync *stats.LatHist) {
	r.mu.Lock()
	st := r.store
	r.mu.Unlock()
	if st != nil {
		fsync.Merge(st.FsyncHist())
	}
}
