package tandem

import (
	"time"

	"repro/internal/rpc"
	"repro/internal/uniq"
	"repro/internal/wal"
)

// Wire messages between TMF, disk processes, and the ADP.
type (
	writeReq struct {
		Txn   uint64
		ReqID uniq.ID
		Key   string
		Value string
	}
	writeAck struct {
		OK         bool
		NotPrimary bool
	}
	readReq  struct{ Key string }
	readResp struct {
		Value string
		OK    bool
	}
	flushReq struct{ Txn uint64 }
	flushAck struct{ OK bool }
	applyReq struct{ Txn uint64 }
	abortReq struct{ Txn uint64 }

	ckptWrite struct {
		Txn   uint64
		ReqID uniq.ID
		Key   string
		Value string
	}
	ckptBatch  struct{ Records []wal.Record }
	ckptCommit struct{ Txn uint64 }
	ckptAbort  struct{ Txn uint64 }

	adpAppend  struct{ Records []wal.Record }
	adpCommit  struct{ Txn uint64 }
	adpRedoReq struct{ DP int }
	redoTxn    struct {
		Txn     uint64
		Records []wal.Record
	}
	adpRedoResp struct{ Txns []redoTxn }
	genericAck  struct{ OK bool }
)

// dpPair is one process pair: two dpNodes, one primary at a time.
type dpPair struct {
	sys     *System
	idx     int
	a, b    *dpNode
	primary *dpNode
}

func newDPPair(sys *System, idx int) *dpPair {
	p := &dpPair{sys: sys, idx: idx}
	p.a = newDPNode(sys, p, "a")
	p.b = newDPNode(sys, p, "b")
	p.primary = p.a
	p.a.role = rolePrimary
	return p
}

// takeover promotes the surviving node after crashed fail-fasted.
func (p *dpPair) takeover(crashed *dpNode) {
	if p.primary != crashed {
		return // already handled
	}
	survivor := p.a
	if survivor == crashed {
		survivor = p.b
	}
	p.primary = survivor
	survivor.promote()
	p.sys.onFailover(p.idx)
}

type role int

const (
	roleBackup role = iota
	rolePrimary
)

// dpNode is one half of a disk-process pair.
type dpNode struct {
	sys  *System
	pair *dpPair
	side string
	ep   *rpc.Endpoint
	role role

	state      map[string]string       // committed data
	pending    map[uint64][]wal.Record // per-txn staged writes
	seenReq    map[uniq.ID]bool        // write idempotence, checkpointed under DP1
	applied    map[uint64]bool         // committed txns already applied
	buf        []wal.Record            // DP2 primary: log records not yet flushed
	flushed    int                     // prefix of buf already pushed out
	timerArmed bool                    // DP2: background flush departure pending
}

func newDPNode(sys *System, pair *dpPair, side string) *dpNode {
	n := &dpNode{sys: sys, pair: pair, side: side}
	n.ep = rpc.NewEndpoint(sys.net, dpNodeID(pair.idx, side), sys.cfg.CallTimeout)
	n.reset()
	n.ep.Handle("write", n.handleWrite)
	n.ep.Handle("read", n.handleRead)
	n.ep.Handle("flush", n.handleFlush)
	n.ep.Handle("apply", n.handleApply)
	n.ep.Handle("abort", n.handleAbort)
	n.ep.Handle("ckpt-write", n.handleCkptWrite)
	n.ep.Handle("ckpt-batch", n.handleCkptBatch)
	n.ep.Handle("ckpt-commit", n.handleCkptCommit)
	n.ep.Handle("ckpt-abort", n.handleCkptAbort)
	return n
}

// reset clears volatile state, as a restart does.
func (n *dpNode) reset() {
	n.role = roleBackup
	n.state = make(map[string]string)
	n.pending = make(map[uint64][]wal.Record)
	n.seenReq = make(map[uniq.ID]bool)
	n.applied = make(map[uint64]bool)
	n.buf = nil
	n.flushed = 0
}

func (n *dpNode) peer() *dpNode {
	if n.pair.a == n {
		return n.pair.b
	}
	return n.pair.a
}

// armGroupFlush schedules the DP2 background log push — the bus departs
// one interval after the first passenger boards, not on an idle ticker.
func (n *dpNode) armGroupFlush() {
	if n.sys.cfg.Mode != DP2 || n.timerArmed {
		return
	}
	n.timerArmed = true
	n.sys.s.After(n.sys.cfg.GroupFlushInterval, func() {
		n.timerArmed = false
		if n.role == rolePrimary && !n.ep.Crashed() {
			n.flushLog(nil)
		}
	})
}

// promote turns a backup into the primary after takeover.
func (n *dpNode) promote() {
	n.role = rolePrimary
	if n.sys.cfg.Mode == DP2 {
		// Staged writes of in-flight transactions die with the
		// takeover: the TMF aborts those transactions (§3.2). Staged
		// writes of *committed* transactions are recovered from the
		// audit trail below.
		n.pending = make(map[uint64][]wal.Record)
	}
	// Redo: pull committed work for this partition from the ADP and
	// apply anything this node never saw.
	n.sys.M.Redos.Inc()
	n.ep.Call(n.sys.adp.ep.ID(), "redo", adpRedoReq{DP: n.pair.idx}, func(resp any, ok bool) {
		if !ok {
			return
		}
		for _, rt := range resp.(adpRedoResp).Txns {
			if n.applied[rt.Txn] {
				continue
			}
			for _, rec := range rt.Records {
				n.state[rec.Key] = rec.Value
			}
			n.applied[rt.Txn] = true
			delete(n.pending, rt.Txn)
		}
	})
}

func (n *dpNode) handleWrite(from string, req any, reply func(any)) {
	r := req.(writeReq)
	if n.role != rolePrimary {
		reply(writeAck{NotPrimary: true})
		return
	}
	if n.seenReq[r.ReqID] {
		reply(writeAck{OK: true}) // idempotent retry, §2.4
		return
	}
	n.seenReq[r.ReqID] = true
	rec := wal.Record{Txn: r.Txn, Kind: wal.KindWrite, Key: r.Key, Value: r.Value}
	n.pending[r.Txn] = append(n.pending[r.Txn], rec)

	switch n.sys.cfg.Mode {
	case DP1:
		// 1984: the WRITE is not acked until the backup has the
		// checkpoint — state crosses the failure boundary per WRITE.
		// With the peer declared down by the OS, the primary carries
		// on solo, as the real pair did.
		if n.ep.Crashed() || n.peerDown() {
			reply(writeAck{OK: true})
			return
		}
		n.sys.M.CheckpointMsgs.Inc()
		n.sys.M.WriteCkptMsgs.Inc()
		n.ep.Call(n.peer().ep.ID(), "ckpt-write",
			ckptWrite{Txn: r.Txn, ReqID: r.ReqID, Key: r.Key, Value: r.Value},
			func(resp any, ok bool) {
				reply(writeAck{OK: true})
			})
	case DP2:
		// 1986: buffer the log record and ack immediately.
		n.buf = append(n.buf, rec)
		n.armGroupFlush()
		reply(writeAck{OK: true})
	}
}

// peerDown reports whether this node's pair partner is crashed.
func (n *dpNode) peerDown() bool { return n.peer().ep.Crashed() }

func (n *dpNode) handleRead(from string, req any, reply func(any)) {
	r := req.(readReq)
	if n.role != rolePrimary {
		reply(readResp{})
		return
	}
	v, ok := n.state[r.Key]
	reply(readResp{Value: v, OK: ok})
}

// handleFlush makes the transaction's log durable; the commit point
// cannot pass until every dirtied DP acks its flush.
func (n *dpNode) handleFlush(from string, req any, reply func(any)) {
	r := req.(flushReq)
	if n.role != rolePrimary {
		reply(flushAck{})
		return
	}
	switch n.sys.cfg.Mode {
	case DP1:
		// Writes are already at the backup; only the audit trail
		// remains.
		recs := append([]wal.Record(nil), n.pending[r.Txn]...)
		n.sys.adp.append(n, recs, func(ok bool) { reply(flushAck{OK: ok}) })
	case DP2:
		// Push the whole buffered log — everyone on the bus rides
		// along (group commit).
		n.flushLog(func(ok bool) { reply(flushAck{OK: ok}) })
	default:
		reply(flushAck{})
	}
}

// flushLog pushes buf[flushed:] to the backup (checkpoint) and the ADP
// (durability). done, if non-nil, fires when the ADP append is stable.
func (n *dpNode) flushLog(done func(ok bool)) {
	recs := append([]wal.Record(nil), n.buf[n.flushed:]...)
	n.flushed = len(n.buf)
	if len(recs) == 0 {
		if done != nil {
			done(true)
		}
		return
	}
	if !n.peerDown() {
		n.sys.M.CheckpointMsgs.Inc()
		n.ep.Call(n.peer().ep.ID(), "ckpt-batch", ckptBatch{Records: recs}, nil)
	}
	n.sys.adp.append(n, recs, func(ok bool) {
		if done != nil {
			done(ok)
		}
	})
}

// handleApply applies a committed transaction's staged writes to the
// primary's state and tells the backup to do the same.
func (n *dpNode) handleApply(from string, req any, reply func(any)) {
	r := req.(applyReq)
	if n.role != rolePrimary {
		reply(genericAck{})
		return
	}
	n.applyTxn(r.Txn)
	if !n.peerDown() {
		n.sys.M.CheckpointMsgs.Inc()
		n.ep.Call(n.peer().ep.ID(), "ckpt-commit", ckptCommit{Txn: r.Txn}, nil)
	}
	reply(genericAck{OK: true})
}

func (n *dpNode) applyTxn(txn uint64) {
	if n.applied[txn] {
		return
	}
	for _, rec := range n.pending[txn] {
		n.state[rec.Key] = rec.Value
	}
	n.applied[txn] = true
	delete(n.pending, txn)
}

func (n *dpNode) handleAbort(from string, req any, reply func(any)) {
	r := req.(abortReq)
	delete(n.pending, r.Txn)
	if n.role == rolePrimary {
		n.ep.Call(n.peer().ep.ID(), "ckpt-abort", ckptAbort{Txn: r.Txn}, nil)
	}
	reply(genericAck{OK: true})
}

func (n *dpNode) handleCkptWrite(from string, req any, reply func(any)) {
	r := req.(ckptWrite)
	if !n.seenReq[r.ReqID] {
		n.seenReq[r.ReqID] = true
		n.pending[r.Txn] = append(n.pending[r.Txn],
			wal.Record{Txn: r.Txn, Kind: wal.KindWrite, Key: r.Key, Value: r.Value})
	}
	reply(genericAck{OK: true})
}

func (n *dpNode) handleCkptBatch(from string, req any, reply func(any)) {
	r := req.(ckptBatch)
	for _, rec := range r.Records {
		n.pending[rec.Txn] = append(n.pending[rec.Txn], rec)
	}
	reply(genericAck{OK: true})
}

func (n *dpNode) handleCkptCommit(from string, req any, reply func(any)) {
	r := req.(ckptCommit)
	// Apply only if this node actually holds the transaction's staged
	// writes. A backup that was down when the write checkpoints flowed
	// must NOT mark the transaction applied on an empty set — that would
	// poison the takeover redo, which skips applied transactions. Left
	// unapplied, the audit-trail redo recovers it.
	if _, ok := n.pending[r.Txn]; ok {
		n.applyTxn(r.Txn)
	}
	reply(genericAck{OK: true})
}

func (n *dpNode) handleCkptAbort(from string, req any, reply func(any)) {
	r := req.(ckptAbort)
	delete(n.pending, r.Txn)
	reply(genericAck{OK: true})
}

// adpNode is the audit disk process: the durable, serialized audit trail.
type adpNode struct {
	sys *System
	ep  *rpc.Endpoint

	byTxn       map[uint64][]wal.Record
	committed   map[uint64]bool
	commitOrder []uint64
	busyUntil   time.Duration
}

func newADP(sys *System) *adpNode {
	a := &adpNode{sys: sys, byTxn: make(map[uint64][]wal.Record), committed: make(map[uint64]bool)}
	a.ep = rpc.NewEndpoint(sys.net, "adp", sys.cfg.CallTimeout)
	a.ep.Handle("append", a.handleAppend)
	a.ep.Handle("commitrec", a.handleCommit)
	a.ep.Handle("redo", a.handleRedo)
	return a
}

// diskDelay serializes work behind the single audit disk and returns the
// completion time for one more flush.
func (a *adpNode) diskDelay() time.Duration {
	now := a.sys.s.Now()
	start := a.busyUntil
	if start < now {
		start = now
	}
	a.busyUntil = start + a.sys.cfg.AdpFlushCost
	return a.busyUntil - now
}

func (a *adpNode) handleAppend(from string, req any, reply func(any)) {
	r := req.(adpAppend)
	a.sys.M.AdpAppends.Inc()
	for _, rec := range r.Records {
		a.byTxn[rec.Txn] = append(a.byTxn[rec.Txn], rec)
	}
	a.sys.s.After(a.diskDelay(), func() { reply(genericAck{OK: true}) })
}

func (a *adpNode) handleCommit(from string, req any, reply func(any)) {
	r := req.(adpCommit)
	a.sys.s.After(a.diskDelay(), func() {
		if !a.committed[r.Txn] {
			a.committed[r.Txn] = true
			a.commitOrder = append(a.commitOrder, r.Txn)
		}
		reply(genericAck{OK: true})
	})
}

func (a *adpNode) handleRedo(from string, req any, reply func(any)) {
	r := req.(adpRedoReq)
	var out []redoTxn
	for _, txn := range a.commitOrder {
		var recs []wal.Record
		for _, rec := range a.byTxn[txn] {
			if a.sys.dpIndex(rec.Key) == r.DP {
				recs = append(recs, rec)
			}
		}
		if len(recs) > 0 {
			out = append(out, redoTxn{Txn: txn, Records: recs})
		}
	}
	reply(adpRedoResp{Txns: out})
}

// append is the helper DPs use to push records into the audit trail.
func (a *adpNode) append(from *dpNode, recs []wal.Record, done func(ok bool)) {
	from.ep.Call(a.ep.ID(), "append", adpAppend{Records: recs}, func(resp any, ok bool) {
		done(ok && resp.(genericAck).OK)
	})
}

// commit is the TMF-side helper that writes the commit record — the
// commit point of the transaction.
func (a *adpNode) commit(txn uint64, done func(ok bool)) {
	a.sys.tmf.Call(a.ep.ID(), "commitrec", adpCommit{Txn: txn}, func(resp any, ok bool) {
		done(ok && resp.(genericAck).OK)
	})
}
