package core

// The write path. Every guess — single Submit, SubmitAsync, SubmitBatch —
// is stamped at ingress, enqueued on its replica's ring, and admitted by
// ingestSegment; there is no other way in. The submitting goroutine is
// also the drain: after enqueueing it takes drainMu if it can and
// processes everything queued, so a lone submitter is a batch of one
// under one replica-lock acquisition, and concurrent submitters coalesce
// behind whoever holds the drain — the §3.2 city bus applied to the lock
// and the fold, with no goroutine between a caller and its ack.
//
// A batch is processed in enqueue order, each operation admission-checked
// against the state including every earlier acceptance (the fold
// checkpoint advances inside the batch), all accepted entries appended to
// the in-memory journal and the durable store in one vectorized call,
// duplicates re-accepted only once the covering flush lands, declines
// resolved immediately, accepted results resolved only after durability.
// Outcomes must not depend on how submits happened to be batched; the
// batch-size-invariance differential pins that against a sequential
// oracle.

import (
	"sync"
	"sync/atomic"

	"repro/internal/apology"
	"repro/internal/oplog"
	"repro/internal/policy"
	"repro/internal/sim"
)

// ingestBatchCap is the most operations one drain pass absorbs under a
// single replica-lock acquisition, and the unacknowledged-suffix length
// at which ingest pushes gossip without waiting for the ticker.
// ingestNominalCap is the depth IngestBacklog reports as "full": the
// load-shedding denominator, not an allocation — the ring itself grows
// as needed.
const (
	ingestBatchCap   = 256
	ingestNominalCap = 4 * ingestBatchCap
)

// Outcome of one item within a segment.
const (
	outAccepted int8 = iota // entry absorbed; resolves with the batch commit
	outDup                  // idempotent re-accept; resolves with the batch commit
	outDeclined             // refused by a rule; resolves immediately
)

// ingestItem is one queued submit: the operation (ingress identity
// already assigned by dispatch) plus where its Result goes — SubmitAsync's
// callback, or a slot in the sink a blocking Submit or SubmitBatch waits
// on. An op whose ID the engine assigns carries its reserved sequence
// number in seq and an empty ID until ingestSegment mints it into the set
// (or withID renders it for an op that leaves before).
type ingestItem struct {
	op      oplog.Entry
	seq     uint64       // the replica generator's number for an engine-assigned ID
	emit    func(Result) // SubmitAsync's completion; nil when sink is set
	sink    *ingestSink
	idx     int32
	start   sim.Time
	sync    bool   // policy-coordinated: initiated in queue order, never batch-absorbed
	outcome int8   // set by ingestSegment
	reason  string // why, when outcome is outDeclined
}

// withID returns the item's op carrying its ID — rendered from the
// reserved sequence number when the set never minted it: the heap string
// a guess pays only when it leaves before admission.
func (r *Replica[S]) withID(it *ingestItem) oplog.Entry {
	op := it.op
	if op.ID == "" {
		op.ID = r.gen.ID(it.seq)
	}
	return op
}

// finish resolves the item with res, exactly once.
func (it *ingestItem) finish(res Result) {
	if it.sink != nil {
		it.sink.deliver(it.idx, res)
		return
	}
	it.emit(res)
}

// ingestQueue is a multi-producer FIFO ring drained by whichever
// submitter holds the replica's drainMu. It never blocks a producer: the
// enqueueing goroutine is itself the drainer, so blocking it for
// backpressure could only deadlock — in particular when a completion
// callback re-enters SubmitAsync while its own outer drain is already on
// the stack. The ring grows instead, and stays small because every
// caller that enqueues then drains or blocks for its result: depth is
// bounded by the operations of callers currently inside a submit call.
type ingestQueue struct {
	mu     sync.Mutex
	buf    []ingestItem
	head   int // next position to pop
	n      int // occupied slots
	closed bool
}

// growLocked widens the ring to hold at least need items, preserving
// order. Caller holds mu.
func (q *ingestQueue) growLocked(need int) {
	nb := make([]ingestItem, max(2*len(q.buf), need))
	first := min(q.n, len(q.buf)-q.head)
	copy(nb, q.buf[q.head:q.head+first])
	copy(nb[first:], q.buf[:q.n-first])
	q.buf = nb
	q.head = 0
}

// putAll enqueues the items in order — all of them, contiguously, which
// is what preserves per-key submission order through the ring — and
// reports false, taking none, once the queue is closed.
func (q *ingestQueue) putAll(items []ingestItem) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if len(items) == 0 {
		return true
	}
	if q.n+len(items) > len(q.buf) {
		q.growLocked(q.n + len(items))
	}
	// The free span runs from the tail to the end of the ring and, past
	// the wrap, on from its start: two copies, no per-item modulo.
	first := copy(q.buf[(q.head+q.n)%len(q.buf):], items)
	copy(q.buf, items[first:])
	q.n += len(items)
	return true
}

// popAll moves up to max queued items into dst and returns it,
// immediately — an empty queue yields dst unchanged.
func (q *ingestQueue) popAll(dst []ingestItem, max int) []ingestItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	take := min(q.n, max)
	if take == 0 {
		return dst
	}
	head := q.buf[q.head:min(q.head+take, len(q.buf))]
	wrap := q.buf[:take-len(head)]
	dst = append(append(dst, head...), wrap...)
	clear(head) // release references
	clear(wrap)
	q.head = (q.head + take) % len(q.buf)
	q.n -= take
	return dst
}

// depth reports how many items are queued right now.
func (q *ingestQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// close refuses every later put; what is already queued stays for the
// drain.
func (q *ingestQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// ingestSink is where a blocking submit waits: results land in slots of
// a shared slice and the last one to land sends ready its one value — no
// per-operation closure, no per-call channel. Items for different shard
// groups may share one sink; their idx ranges are disjoint. Sinks are
// pooled: takeSink readies one, release returns it once every result has
// landed and been read. A sink whose waiter gave up first (its context
// ended) is never released — the late completion has to land somewhere
// nobody else is waiting — and is left to the collector.
type ingestSink struct {
	results []Result
	pending atomic.Int64
	ready   chan struct{} // 1-buffered: one send per use, never blocking
	one     [1]Result     // Submit's slot, so a lone submit brings no slice
}

var sinkPool = sync.Pool{New: func() any { return &ingestSink{ready: make(chan struct{}, 1)} }}

// takeSink readies a pooled sink for len(results) outcomes; nil results
// selects the sink's own single slot.
func takeSink(results []Result) *ingestSink {
	s := sinkPool.Get().(*ingestSink)
	if results == nil {
		results = s.one[:]
	}
	s.results = results
	s.pending.Store(int64(len(results)))
	return s
}

func (s *ingestSink) release() {
	s.one[0] = Result{}
	s.results = nil
	sinkPool.Put(s)
}

// deliver lands one result in slot i and signals ready when it is the
// last one outstanding.
func (s *ingestSink) deliver(i int32, res Result) {
	s.results[i] = res
	switch n := s.pending.Add(-1); {
	case n == 0:
		s.ready <- struct{}{}
	case n < 0:
		panic("quicksand: a submit was resolved twice")
	}
}

// ingestSeg carries one durable segment from ingestSegment to the store's
// commit callback: its own copy of the items — the drain reuses its batch
// buffer long before the flush lands — and the func(bool) handed to
// Store.Commit, bound once when the object is made. Pooled per replica:
// resolve returns it after the last item is finished.
type ingestSeg[S any] struct {
	r         *Replica[S]
	items     []ingestItem
	nAccepted int
	commit    func(ok bool) // seg.resolve
}

func (r *Replica[S]) takeSeg(items []ingestItem, nAccepted int) *ingestSeg[S] {
	seg, _ := r.segPool.Get().(*ingestSeg[S])
	if seg == nil {
		seg = &ingestSeg[S]{r: r}
		seg.commit = seg.resolve
	}
	seg.items = append(seg.items[:0], items...)
	seg.nAccepted = nAccepted
	return seg
}

func (seg *ingestSeg[S]) resolve(ok bool) {
	seg.r.resolveSegment(seg.items, seg.nAccepted, ok)
	clear(seg.items) // drop the callers' callbacks and sinks
	seg.r.segPool.Put(seg)
}

// enqueueIngest hands stamped operations to the replica's ring, in
// order, and then drains it on the calling goroutine — so on the
// simulator the submit's effects (and, with an inline store, its
// completion) happen before enqueueIngest returns, keeping runs
// deterministic. It reports false, having taken nothing, when the ring
// has been closed (the cluster shut down).
func (r *Replica[S]) enqueueIngest(items ...ingestItem) bool {
	if !r.ingest.putAll(items) {
		return false
	}
	r.drainIngest()
	return true
}

// drainIngest processes everything queued, in batches, before returning.
// At most one drainer is ever active per replica (drainMu), so concurrent
// submitters cannot interleave segments and invert queue order; a
// goroutine that loses the TryLock race — or that re-enters from a
// completion callback while its own outer drain holds the lock — simply
// leaves its items to the active drainer, which re-checks the ring after
// releasing so nothing is ever stranded.
func (r *Replica[S]) drainIngest() {
	for {
		if !r.drainMu.TryLock() {
			return // the active drainer's post-release re-check covers us
		}
		r.drainLocked()
		r.drainMu.Unlock()
		if r.ingest.depth() == 0 {
			return
		}
	}
}

// drainLocked empties the ring batch by batch. The caller holds drainMu,
// which also guards the batch buffer it reuses across drains.
func (r *Replica[S]) drainLocked() {
	for {
		r.drainBuf = r.ingest.popAll(r.drainBuf[:0], r.c.cfg.ingestCap)
		if len(r.drainBuf) == 0 {
			return
		}
		r.ingestBatch(r.drainBuf)
		clear(r.drainBuf) // drop the callers' callbacks and sinks
	}
}

// closeIngest shuts the ring and drains what was enqueued before the
// close, so Close never closes a store under a submit that was already
// admitted to the queue; later submits decline.
func (r *Replica[S]) closeIngest() {
	r.drainMu.Lock()
	r.ingest.close()
	r.drainLocked()
	r.drainMu.Unlock()
}

// ingestBatch processes one drained batch in strict queue order,
// splitting it at policy-coordinated items: runs of async submits are
// absorbed as vectorized segments, and each sync item is initiated (its
// local admission taken, its coordination round fired) exactly where it
// sat between them — so a coordinated op observes every earlier
// acceptance and never overtakes a queued guess on the same key.
// Coordination itself is asynchronous; the drain never blocks on its
// round trips.
func (r *Replica[S]) ingestBatch(items []ingestItem) {
	for len(items) > 0 {
		k := 0
		for k < len(items) && !items[k].sync {
			k++
		}
		if k > 0 {
			r.ingestSegment(items[:k])
		}
		if k < len(items) {
			r.coordinate(items[k : k+1])
			k++
		}
		items = items[k:]
	}
}

// coordinate initiates the policy-coordinated submit one[0] — a one-item
// window of the drained batch — where it sat in the queue: Lamport stamp
// and idempotency check under the replica lock, then §5.8's coordination
// round. A retry of work this replica already holds needs no round; it
// is re-accepted in place like any duplicate guess, by ingestSegment,
// once the original's record is durable.
func (r *Replica[S]) coordinate(one []ingestItem) {
	r.mu.Lock()
	if one[0].op.Lam == 0 {
		// Lamport ingress stamp: the new op sorts after everything this
		// replica has seen, so causes fold before their effects.
		one[0].op.Lam = r.lamport + 1
	}
	seen := r.ops.Contains(one[0].op.ID)
	r.mu.Unlock()
	if seen {
		r.ingestSegment(one)
		return
	}
	r.submitSync(one[0]) // the round keeps its own copy: it outlives the drain's batch buffer
}

// ingestSegment absorbs one run of asynchronous submits under a single
// replica-lock acquisition: Lamport stamping, duplicate detection,
// admission against the advancing fold, set/journal/store appends — the
// store staged once for the whole segment — then one snapshot decision,
// one in-place fold of the batch, and one commit fan-out resolving every
// result. The caller holds drainMu.
func (r *Replica[S]) ingestSegment(items []ingestItem) {
	c, g := r.c, r.g
	r.mu.Lock()
	if r.node.Crashed() {
		// A dead process absorbs nothing, and counts nothing.
		r.mu.Unlock()
		for i := range items {
			items[i].finish(Result{Op: r.withID(&items[i]), Reason: "replica down"})
		}
		return
	}
	if r.degraded.Load() {
		// Read-only: decline the whole segment with the typed retryable
		// reason. Reads keep serving; nothing is admitted, staged, or
		// gossiped until Rejoin heals the disk.
		r.mu.Unlock()
		for i := range items {
			g.M.Declined.Inc()
			items[i].finish(Result{Op: r.withID(&items[i]), Reason: ReasonDegraded, Retryable: true})
		}
		return
	}
	// accepted collects the entries this segment adds, for the journal and
	// the store, in a scratch slice drainMu guards: both copy out of it
	// (the store encodes on Stage) before this call returns.
	accepted := r.acceptBuf[:0]
	st := r.store
	dups, declined := false, false
	for i := range items {
		it := &items[i]
		if it.op.Lam == 0 {
			// Lamport ingress stamp: the new op sorts after everything this
			// replica has seen — including the entries accepted earlier in
			// this same batch — and the Result carries it.
			it.op.Lam = r.lamport + 1
		}
		if it.op.ID != "" && r.ops.Contains(it.op.ID) {
			it.outcome, dups = outDup, true
			continue
		}
		// The guess: admission folds earlier batch acceptances in first.
		if reason, ok := r.admitLocked(it.op); !ok {
			it.outcome, it.reason = outDeclined, reason
			declined = true
			continue
		}
		if it.op.ID == "" {
			// Mint the ID where it will live: rendered and checked on the
			// stack, written once into the set's arena. From here on the op
			// carries the set's copy — to the journal, the store, the tracer
			// and the Result. No life of this replica reuses a number (see
			// newReplica); if one ever did, the set would call it the
			// duplicate it is.
			var fresh bool
			if it.op, fresh = r.ops.Mint(it.op, r.gen.Node(), it.seq); !fresh {
				it.outcome, dups = outDup, true
				continue
			}
		} else {
			r.ops.Add(it.op)
		}
		r.addedLocked(it.op)
		accepted = append(accepted, it.op)
	}
	nAccepted := len(accepted)
	if len(r.gossipPeers) > 0 {
		// One vectorized append covers the whole batch; positions stay in
		// lockstep with the store staging below.
		r.journal.AppendAll(accepted)
	}
	var end int
	if nAccepted > 0 {
		end = r.stageLocked(accepted)
	} else if st != nil {
		// Only duplicates (if any): their originals may still be aboard an
		// unlanded flush, so re-accept no earlier than the current tail.
		end = st.End()
	}
	var snap func()
	var due [2]string
	nDue := 0
	if nAccepted > 0 {
		snap = r.maybeSnapshotLocked()
		// Fold the batch in, in place, while the lock is already held — but
		// publish nothing: stageLocked bumped the version, which sends the
		// first reader after this ack to the locked fallback, and only a
		// reader taking the state makes the next fold clone.
		r.foldLocked()
		if c.cfg.gossipEvery > 0 {
			due, nDue = r.gossipDueLocked()
		}
	}
	r.acceptBuf = accepted[:0] // keep the capacity the appends grew
	r.mu.Unlock()
	if snap != nil {
		snap()
	}
	if t := c.cfg.tracer; t != nil && nAccepted > 0 {
		// The batch was admitted and folded above in one critical
		// section; both stages share its exit timestamp.
		now := int64(c.tr.Now())
		for i := range accepted {
			t.Admitted(string(accepted[i].ID), accepted[i].Key, r.id, now)
			t.Folded(string(accepted[i].ID), r.id, now)
		}
	}
	if declined {
		// Declines carry no recorded work: resolve them immediately.
		now := c.tr.Now()
		for i := range items {
			it := &items[i]
			if it.outcome != outDeclined {
				continue
			}
			g.M.Declined.Inc()
			op := r.withID(it)
			if t := c.cfg.tracer; t != nil {
				t.Declined(string(op.ID), op.Key, r.id, it.reason, int64(now))
			}
			it.finish(Result{Op: op, Reason: it.reason, Latency: now.Sub(it.start)})
		}
	}
	if nAccepted == 0 && !dups {
		return // every item was declined; nothing awaits durability
	}
	if st == nil {
		r.resolveSegment(items, nAccepted, true)
	} else {
		// The commit fan-out runs on the store's flusher after this call
		// returns, while the drain reuses items for its next batch.
		st.Commit(end, r.takeSeg(items, nAccepted).commit)
	}
	// Coalesced gossip wake: at most one nudge per batch, and only toward
	// peers whose unacknowledged suffix has grown to a full batch — the
	// nudge is a backlog limiter, not a latency path. Light load leaves
	// gossip entirely to the ticker; heavy ingest ships a batch-sized
	// suffix as soon as one exists.
	for _, id := range due[:nDue] {
		if c.tr.Reachable(r.id, id) {
			r.pushTo(id)
		}
	}
}

// resolveSegment is the commit fan-out of one segment: once its accepted
// entries are durable (ok; immediately on a volatile replica) it tallies
// them in the ledger, sweeps for violations, and resolves every accepted
// and duplicate item. ok=false means the batch never became durable —
// the replica crashed, or its disk broke the durability contract, first:
// nothing was recorded and nothing may be acknowledged.
func (r *Replica[S]) resolveSegment(items []ingestItem, nAccepted int, ok bool) {
	c, g := r.c, r.g
	if !ok {
		reason, retry := "replica crashed before the write was durable", false
		if r.storeFailed() {
			reason, retry = ReasonDegraded, true
		}
		for i := range items {
			if items[i].outcome == outDeclined {
				continue
			}
			g.M.Declined.Inc()
			items[i].finish(Result{Op: items[i].op, Reason: reason, Retryable: retry})
		}
		return
	}
	now := c.tr.Now()
	if t := c.cfg.tracer; t != nil {
		for i := range items {
			if items[i].outcome == outAccepted {
				t.Durable(string(items[i].op.ID), r.id, int64(now))
			}
		}
	}
	if nAccepted > 0 {
		// The accepted entries are in the op set; the ledger counts them.
		r.Ledger.Tally(apology.Memory, nAccepted)
		r.Ledger.Tally(apology.Guess, nAccepted)
		r.sweepViolations()
	}
	for i := range items {
		it := &items[i]
		if it.outcome == outDeclined {
			continue
		}
		res := Result{Accepted: true, Op: it.op, Decision: policy.Async}
		g.M.Accepted.Inc()
		if it.outcome == outAccepted {
			// Duplicates carry no latency and are not sampled.
			res.Latency = now.Sub(it.start)
			g.M.AsyncLat.AddDur(res.Latency)
		}
		it.finish(res)
	}
}

// gossipDueLocked lists the ring peers whose unacknowledged journal
// suffix has reached a full ingest batch and that have no push in flight
// — the ones ingest pushes to without waiting for the next scheduled
// round. Everyone else is left to the ticker. A ring replica has at most
// two gossip peers. The caller holds r.mu.
func (r *Replica[S]) gossipDueLocked() (due [2]string, n int) {
	jlen := r.journal.Len()
	base := r.journal.Base()
	for _, peer := range r.gossipPeers {
		from := r.sentTo[peer.id]
		if from < base {
			from = base
		}
		if jlen-from >= r.c.cfg.ingestCap && !r.pushing[peer.id] {
			due[n] = peer.id
			n++
		}
	}
	return due, n
}
