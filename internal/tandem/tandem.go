// Package tandem simulates the Tandem NonStop systems of §3 of the paper:
// shared-nothing processors, process-pair disk processes (DPs), a
// transaction monitor (TMF), and an audit disk process (ADP).
//
// Two checkpointing strategies are implemented, selected by Mode:
//
//   - DP1 (circa 1984): every WRITE is synchronously checkpointed to the
//     backup disk process before the application sees the ack. Failures of
//     a primary DP are transparent — in-flight transactions continue on
//     the backup, which has seen every write.
//
//   - DP2 (circa 1986): the transaction log doubles as the checkpoint
//     stream. WRITEs are acked as soon as the primary buffers the log
//     record ("lollygag within the transactional log in memory"), and the
//     buffer is pushed to the backup and the ADP in shared, group-commit
//     flushes. Transaction commit forces the flush. A primary DP failure
//     aborts the in-flight transactions that touched it — the "acceptable
//     erosion of behavior" of §3.3 — but committed work is never lost,
//     because commit does not succeed until the log is durable at the ADP.
//
// Faithfulness notes: the real DP2 sent the log to the backup which
// forwarded it to the ADP; we send to both in parallel, which preserves
// the critical-path properties (commit waits for durability, WRITE waits
// for nothing). The real ADP is itself a process pair on mirrored disks;
// ours is a single reliable node, standing in for that already-redundant
// audit trail. Takeover recovery replays committed work from the ADP
// (redo), exactly the audit-trail role the real system's log served.
package tandem

import (
	"fmt"
	"hash/fnv"
	"maps"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/uniq"
	"repro/internal/wal"
)

// Mode selects the checkpointing strategy.
type Mode int

// The two generations of disk process.
const (
	DP1 Mode = iota // circa 1984: checkpoint every WRITE, synchronously
	DP2             // circa 1986: log-based checkpoints, group commit
)

// String names the mode.
func (m Mode) String() string {
	if m == DP1 {
		return "DP1-1984"
	}
	return "DP2-1986"
}

// Config tunes a simulated Tandem system. Zero fields take defaults.
type Config struct {
	Mode  Mode
	NumDP int // number of disk-process pairs (default 2)

	// MsgLatency is the one-hop latency of the interprocessor bus
	// (default 100µs).
	MsgLatency time.Duration
	// AdpFlushCost is the audit-disk write time per append; appends
	// queue behind each other at the single audit disk (default 500µs).
	AdpFlushCost time.Duration
	// GroupFlushInterval is DP2's background log push period
	// (default 5ms).
	GroupFlushInterval time.Duration
	// CallTimeout bounds every RPC (default 25ms).
	CallTimeout time.Duration
	// DetectDelay is the time from a primary crash to its backup taking
	// over (default 2ms).
	DetectDelay time.Duration
	// WriteRetries is how many times the TMF re-drives a failed WRITE
	// before giving up on the transaction (default 3).
	WriteRetries int
}

func (c Config) withDefaults() Config {
	if c.NumDP == 0 {
		c.NumDP = 2
	}
	if c.MsgLatency == 0 {
		c.MsgLatency = 100 * time.Microsecond
	}
	if c.AdpFlushCost == 0 {
		c.AdpFlushCost = 500 * time.Microsecond
	}
	if c.GroupFlushInterval == 0 {
		c.GroupFlushInterval = 5 * time.Millisecond
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 25 * time.Millisecond
	}
	if c.DetectDelay == 0 {
		c.DetectDelay = 2 * time.Millisecond
	}
	if c.WriteRetries == 0 {
		c.WriteRetries = 3
	}
	return c
}

// Metrics aggregates what the experiments measure.
type Metrics struct {
	WriteLat  stats.Histogram // WRITE submit → ack
	CommitLat stats.Histogram // commit submit → committed
	TxnLat    stats.Histogram // begin → committed

	Commits        stats.Counter
	Aborts         stats.Counter // all aborts
	FailoverAborts stats.Counter // aborts caused by a primary DP failure
	CheckpointMsgs stats.Counter // ckpt-write/ckpt-batch/ckpt-commit sends
	WriteCkptMsgs  stats.Counter // per-WRITE synchronous checkpoints (DP1 only)
	AdpAppends     stats.Counter // audit-disk append batches
	Redos          stats.Counter // takeover redo rounds
}

// System is one simulated Tandem machine. Construct with New; drive
// transactions with Begin/Write/Commit; inject faults with CrashPrimary
// and RestartBackup; then inspect Metrics.
type System struct {
	s   *sim.Sim
	net *simnet.Network
	cfg Config

	pairs []*dpPair
	adp   *adpNode
	tmf   *rpc.Endpoint

	txnSeq   uint64
	inflight map[uint64]*Txn
	reqGen   *uniq.Gen

	M Metrics
}

// New builds a system on s with its own private network.
func New(s *sim.Sim, cfg Config) *System {
	cfg = cfg.withDefaults()
	net := simnet.New(s, simnet.WithLatency(simnet.Fixed(cfg.MsgLatency)))
	sys := &System{
		s: s, net: net, cfg: cfg,
		inflight: make(map[uint64]*Txn),
		reqGen:   uniq.NewGen("tmf"),
	}
	sys.adp = newADP(sys)
	for i := 0; i < cfg.NumDP; i++ {
		sys.pairs = append(sys.pairs, newDPPair(sys, i))
	}
	sys.tmf = rpc.NewEndpoint(net, "tmf", cfg.CallTimeout)
	return sys
}

// Net exposes the system's network, mainly for message accounting.
func (sys *System) Net() *simnet.Network { return sys.net }

// Config returns the effective (defaulted) configuration.
func (sys *System) Config() Config { return sys.cfg }

// dpIndex maps a key to its disk-process pair: the paper's §2.3
// partitioning discipline, "each chunk has a unique key".
func (sys *System) dpIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()) % sys.cfg.NumDP
}

// Txn is a client-side transaction handle.
type Txn struct {
	sys      *System
	id       uint64
	dirty    map[int]bool
	doomed   bool // a DP2 primary carrying our writes failed
	finished bool
	begun    time.Duration
}

// Begin starts a transaction.
func (sys *System) Begin() *Txn {
	sys.txnSeq++
	t := &Txn{sys: sys, id: sys.txnSeq, dirty: make(map[int]bool), begun: sys.s.Now()}
	sys.inflight[t.id] = t
	return t
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Write stages key=val in the transaction. done fires with ok=false if the
// write could not be driven to a primary DP (after retries) or the
// transaction is doomed; the caller should then Abort.
func (t *Txn) Write(key, val string, done func(ok bool)) {
	if t.finished || t.doomed {
		done(false)
		return
	}
	pair := t.sys.dpIndex(key)
	t.dirty[pair] = true
	req := writeReq{Txn: t.id, ReqID: t.sys.reqGen.Next(), Key: key, Value: val}
	start := t.sys.s.Now()
	t.tryWrite(pair, req, t.sys.cfg.WriteRetries, func(ok bool) {
		if ok {
			t.sys.M.WriteLat.AddDur(t.sys.s.Now() - start)
		}
		done(ok)
	})
}

func (t *Txn) tryWrite(pair int, req writeReq, retries int, done func(bool)) {
	if t.finished || t.doomed {
		done(false)
		return
	}
	primary := t.sys.pairs[pair].primary.ep.ID()
	t.sys.tmf.Call(primary, "write", req, func(resp any, ok bool) {
		if ok {
			if ack := resp.(writeAck); ack.OK {
				done(true)
				return
			}
		}
		// Timeout or stale routing: the uniquifier makes the retry
		// idempotent (§2.4), so re-drive against the current primary.
		if retries > 0 {
			t.sys.s.After(t.sys.cfg.MsgLatency, func() {
				t.tryWrite(pair, req, retries-1, done)
			})
			return
		}
		done(false)
	})
}

// Read returns the committed value of key via the responsible primary DP.
func (sys *System) Read(key string, done func(val string, ok bool)) {
	primary := sys.pairs[sys.dpIndex(key)].primary.ep.ID()
	sys.tmf.Call(primary, "read", readReq{Key: key}, func(resp any, ok bool) {
		if !ok {
			done("", false)
			return
		}
		r := resp.(readResp)
		done(r.Value, r.OK)
	})
}

// Commit drives the commit protocol: flush every dirtied DP's log to
// durability, write the commit record at the ADP (the commit point), then
// asynchronously apply. done reports whether the transaction committed.
func (t *Txn) Commit(done func(committed bool)) {
	if t.finished {
		done(false)
		return
	}
	if t.doomed {
		t.Abort()
		done(false)
		return
	}
	start := t.sys.s.Now()
	dirty := t.dirtyPairs()
	primaries := make([]string, len(dirty))
	for i, p := range dirty {
		primaries[i] = t.sys.pairs[p].primary.ep.ID()
	}
	t.sys.tmf.Broadcast(primaries, "flush", flushReq{Txn: t.id}, func(resps []any, oks int) {
		if t.finished {
			done(false)
			return
		}
		allOK := oks == len(primaries)
		for _, r := range resps {
			if !r.(flushAck).OK {
				allOK = false
			}
		}
		if !allOK || t.doomed {
			t.Abort()
			done(false)
			return
		}
		t.sys.adp.commit(t.id, func(ok bool) {
			// Once the commit record is durable at the ADP the
			// transaction IS committed — a takeover racing this
			// point cannot un-commit it; redo replays it from the
			// audit trail.
			if !ok || t.finished {
				t.Abort()
				done(false)
				return
			}
			t.finished = true
			delete(t.sys.inflight, t.id)
			t.sys.M.Commits.Inc()
			t.sys.M.CommitLat.AddDur(t.sys.s.Now() - start)
			t.sys.M.TxnLat.AddDur(t.sys.s.Now() - t.begun)
			for _, p := range dirty {
				t.sys.tmf.Call(t.sys.pairs[p].primary.ep.ID(), "apply", applyReq{Txn: t.id}, nil)
			}
			done(true)
		})
	})
}

// Abort discards the transaction at every dirtied DP.
func (t *Txn) Abort() {
	if t.finished {
		return
	}
	t.finished = true
	delete(t.sys.inflight, t.id)
	t.sys.M.Aborts.Inc()
	for _, p := range t.dirtyPairs() {
		t.sys.tmf.Call(t.sys.pairs[p].primary.ep.ID(), "abort", abortReq{Txn: t.id}, nil)
	}
}

func (t *Txn) dirtyPairs() []int {
	out := make([]int, 0, len(t.dirty))
	for i := 0; i < t.sys.cfg.NumDP; i++ {
		if t.dirty[i] {
			out = append(out, i)
		}
	}
	return out
}

// CrashPrimary fail-fasts the primary of disk pair i. The backup takes
// over after the configured detection delay. Under DP2, in-flight
// transactions that dirtied the pair are aborted, per §3.2: "the system
// automatically aborts any relevant in-flight transactions when the
// primary DP fails."
func (sys *System) CrashPrimary(i int) {
	pair := sys.pairs[i]
	crashed := pair.primary
	sys.net.SetUp(crashed.ep.ID(), false)
	sys.s.After(sys.cfg.DetectDelay, func() { pair.takeover(crashed) })
}

// RestartBackup revives the crashed node of pair i as the new backup,
// seeding it with a state snapshot from the current primary (the
// "revive" a real process pair performs).
func (sys *System) RestartBackup(i int) {
	pair := sys.pairs[i]
	var down *dpNode
	if pair.primary == pair.a {
		down = pair.b
	} else {
		down = pair.a
	}
	sys.net.SetUp(down.ep.ID(), true)
	down.reset()
	down.state = maps.Clone(pair.primary.state)
	for id := range pair.primary.applied {
		down.applied[id] = true
	}
	for id := range pair.primary.seenReq {
		down.seenReq[id] = true
	}
	// In-flight transactions staged at the primary ride along too; their
	// per-write checkpoints flowed while this node was down.
	for txn, recs := range pair.primary.pending {
		down.pending[txn] = append([]wal.Record(nil), recs...)
	}
}

// PrimaryOf reports which node currently leads pair i ("a" or "b").
func (sys *System) PrimaryOf(i int) string {
	if sys.pairs[i].primary == sys.pairs[i].a {
		return "a"
	}
	return "b"
}

// onFailover dooms in-flight DP2 transactions touching the failed pair.
func (sys *System) onFailover(pairIdx int) {
	if sys.cfg.Mode != DP2 {
		return
	}
	for _, t := range sys.inflight {
		if t.dirty[pairIdx] && !t.doomed {
			t.doomed = true
			sys.M.FailoverAborts.Inc()
		}
	}
}

func dpNodeID(pair int, side string) string {
	return fmt.Sprintf("dp%d%s", pair, side)
}
