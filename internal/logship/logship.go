// Package logship simulates classic cross-datacenter log shipping, the
// paper's Example 3 (§4.1–4.2).
//
// A primary database commits transactions locally (group commit to its own
// log) and acknowledges the client; a shipper process asynchronously sends
// the durable log to a backup datacenter, which replays it, "constantly
// playing catch-up." A primary failure locks the unshipped tail inside the
// dead datacenter: the backup takes over without that work. "This is our
// first example where giving a little bit in consistency yields a lot of
// resilience and scale" — and the loss window it opens is exactly what E3
// and E4 measure.
//
// Synchronous mode (Config.Sync) stalls the commit acknowledgement until
// the backup confirms receipt — the alternative §4.1 calls unacceptable in
// most installations — so the latency cost of transparency can be measured
// directly against the asynchronous default.
//
// When the failed primary returns, RestartPrimary reconciles the orphaned
// tail (§5.1: "examine the work in the tail of the log and determine what
// the heck to do"), under one of three strategies: discard the work, queue
// it for a human, or replay it when no conflicting write has happened
// since takeover.
package logship

import (
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/wal"
)

// Config tunes the simulated deployment. Zero fields take defaults.
type Config struct {
	// Sync makes commit wait for the backup's acknowledgement
	// (transparent fault tolerance at WAN latency cost).
	Sync bool
	// WANLatency is the one-way datacenter-to-datacenter latency
	// (default 20ms).
	WANLatency time.Duration
	// ShipInterval is how often the shipper sends new log to the backup
	// (default 50ms).
	ShipInterval time.Duration
	// GroupInterval is the local group-commit timer (default 1ms).
	GroupInterval time.Duration
	// LocalFlushCost is the local log-disk write time (default 500µs).
	LocalFlushCost time.Duration
	// DetectDelay is crash detection before takeover (default 50ms).
	DetectDelay time.Duration
	// CallTimeout bounds RPCs (default 10× WANLatency).
	CallTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.WANLatency == 0 {
		c.WANLatency = 20 * time.Millisecond
	}
	if c.ShipInterval == 0 {
		c.ShipInterval = 50 * time.Millisecond
	}
	if c.GroupInterval == 0 {
		c.GroupInterval = time.Millisecond
	}
	if c.LocalFlushCost == 0 {
		c.LocalFlushCost = 500 * time.Microsecond
	}
	if c.DetectDelay == 0 {
		c.DetectDelay = 50 * time.Millisecond
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 10 * c.WANLatency
	}
	return c
}

// RecoveryStrategy says what to do with the orphaned log tail when the
// failed primary returns.
type RecoveryStrategy int

// The three §5.1 options.
const (
	// Discard drops the orphans: "the pending work is simply discarded
	// due to lack of designed mechanisms to reclaim it."
	Discard RecoveryStrategy = iota
	// Queue sends every orphan to a human (§5.6's first coping model).
	Queue
	// Replay re-applies orphans whose keys nobody has touched since
	// takeover, queueing only conflicting ones.
	Replay
)

// String names the strategy.
func (r RecoveryStrategy) String() string {
	switch r {
	case Discard:
		return "discard"
	case Queue:
		return "queue"
	default:
		return "replay"
	}
}

// RecoveryReport summarizes a RestartPrimary reconciliation.
type RecoveryReport struct {
	Orphans   int // committed-but-unshipped transactions found in the tail
	Replayed  int // re-applied cleanly
	Conflicts int // key overwritten since takeover; sent to a human
	Queued    int // sent to a human by policy
	Discarded int // dropped
}

// Metrics aggregates what E3/E4 measure.
type Metrics struct {
	CommitLat stats.Histogram // client-observed commit latency

	Commits        stats.Counter // commits acked to clients
	ShippedTxns    stats.Counter // transactions replayed at the backup
	LostAtTakeover stats.Counter // acked commits missing from the backup at takeover
	Takeovers      stats.Counter
}

// committedTxn remembers an acked commit for the takeover audit. dc
// disambiguates the LSN space: after takeover the backup issues its own
// LSNs.
type committedTxn struct {
	dc       string
	lsn      wal.LSN
	key, val string
}

// dbNode is one datacenter: a log, a group committer, and a replayed state.
type dbNode struct {
	ep      *rpc.Endpoint
	log     *wal.Log
	gc      *wal.GroupCommitter
	state   map[string]string
	applied wal.LSN // highest remote LSN replayed (backup role)
	touched map[string]bool
	pending map[uint64][]wal.Record
}

// System is one primary/backup log-shipping deployment.
type System struct {
	s   *sim.Sim
	net *simnet.Network
	cfg Config

	primary *dbNode
	backup  *dbNode
	active  *dbNode // who serves traffic now

	txnSeq    uint64
	shipped   wal.LSN // highest LSN acked by the backup
	shipArmed bool
	committed []committedTxn // acked commits, in order, for the audit
	orphans   []committedTxn // computed at takeover, pending recovery
	lostWork  []committedTxn // orphans permanently lost (discarded/queued/conflicted)

	M Metrics
}

type (
	replicateReq struct{ Records []wal.Record }
	replicateAck struct{ LSN wal.LSN }
)

// New builds the two-datacenter system on s.
func New(s *sim.Sim, cfg Config) *System {
	cfg = cfg.withDefaults()
	net := simnet.New(s, simnet.WithLatency(simnet.Fixed(cfg.WANLatency)))
	sys := &System{s: s, net: net, cfg: cfg}
	sys.primary = sys.newNode("dc1")
	sys.backup = sys.newNode("dc2")
	sys.active = sys.primary
	sys.backup.ep.Handle("replicate", sys.handleReplicate)
	return sys
}

func (sys *System) newNode(id string) *dbNode {
	n := &dbNode{
		state:   make(map[string]string),
		touched: make(map[string]bool),
		pending: make(map[uint64][]wal.Record),
	}
	n.ep = rpc.NewEndpoint(sys.net, id, sys.cfg.CallTimeout)
	n.log = wal.New(nil)
	n.gc = wal.NewGroupCommitter(sys.s, n.log, wal.Config{
		Interval:  sys.cfg.GroupInterval,
		FlushCost: sys.cfg.LocalFlushCost,
	})
	return n
}

// Active reports which datacenter serves traffic ("dc1" or "dc2").
func (sys *System) Active() string { return sys.active.ep.ID() }

// Commit runs a one-write transaction key=val at the active datacenter.
// done reports whether the client saw a commit acknowledgement.
func (sys *System) Commit(key, val string, done func(ok bool)) {
	node := sys.active
	if node.ep.Crashed() {
		done(false)
		return
	}
	sys.txnSeq++
	txn := sys.txnSeq
	start := sys.s.Now()
	node.log.Append(wal.Record{Txn: txn, Kind: wal.KindWrite, Key: key, Value: val})
	lsn := node.log.Append(wal.Record{Txn: txn, Kind: wal.KindCommit})
	node.gc.Commit(func() {
		if node.ep.Crashed() {
			// Locally durable, never acked: client will retry
			// elsewhere; not counted as committed.
			done(false)
			return
		}
		node.state[key] = val
		node.touched[key] = true
		ack := func() {
			sys.M.Commits.Inc()
			sys.M.CommitLat.AddDur(sys.s.Now() - start)
			sys.committed = append(sys.committed,
				committedTxn{dc: node.ep.ID(), lsn: lsn, key: key, val: val})
			done(true)
		}
		if node != sys.primary || sys.backup.ep.Crashed() {
			// After takeover there is no backup to ship to.
			ack()
			return
		}
		if sys.cfg.Sync {
			// Transparent mode: the user waits for the WAN round trip.
			recs := node.log.Since(sys.shipped)
			node.ep.Call(sys.backup.ep.ID(), "replicate", replicateReq{Records: recs}, func(resp any, ok bool) {
				if !ok {
					done(false)
					return
				}
				sys.noteShipped(resp.(replicateAck).LSN)
				ack()
			})
			return
		}
		ack()
		sys.armShip()
	})
}

// Read returns the value of key at the active datacenter.
func (sys *System) Read(key string, done func(val string, ok bool)) {
	v, ok := sys.active.state[key]
	done(v, ok)
}

// armShip schedules the next asynchronous shipment if none is pending.
func (sys *System) armShip() {
	if sys.shipArmed || sys.cfg.Sync {
		return
	}
	sys.shipArmed = true
	sys.s.After(sys.cfg.ShipInterval, func() {
		sys.shipArmed = false
		sys.shipNow()
	})
}

func (sys *System) shipNow() {
	if sys.active != sys.primary || sys.primary.ep.Crashed() || sys.backup.ep.Crashed() {
		return
	}
	recs := sys.primary.log.Since(sys.shipped)
	if len(recs) == 0 {
		return
	}
	sys.primary.ep.Call(sys.backup.ep.ID(), "replicate", replicateReq{Records: recs}, func(resp any, ok bool) {
		if ok {
			sys.noteShipped(resp.(replicateAck).LSN)
		}
		// More log may have accumulated while this batch was in flight.
		if sys.primary.log.FlushedLSN() > sys.shipped {
			sys.armShip()
		}
	})
}

func (sys *System) noteShipped(lsn wal.LSN) {
	if lsn > sys.shipped {
		sys.shipped = lsn
	}
}

// handleReplicate replays a log batch at the backup.
func (sys *System) handleReplicate(from string, req any, reply func(any)) {
	r := req.(replicateReq)
	b := sys.backup
	for _, rec := range r.Records {
		if rec.LSN <= b.applied {
			continue // duplicate shipment
		}
		switch rec.Kind {
		case wal.KindWrite:
			b.pending[rec.Txn] = append(b.pending[rec.Txn], rec)
		case wal.KindCommit:
			for _, w := range b.pending[rec.Txn] {
				b.state[w.Key] = w.Value
			}
			delete(b.pending, rec.Txn)
			sys.M.ShippedTxns.Inc()
		}
		b.applied = rec.LSN
		b.log.Append(rec)
	}
	b.log.Flush()
	reply(replicateAck{LSN: b.applied})
}

// CrashPrimary fail-fasts the primary datacenter. After the detection
// delay the backup takes over, and every acked commit the backup never
// received is counted lost — the paper's §4.2 window made visible.
func (sys *System) CrashPrimary() {
	if sys.active != sys.primary {
		return
	}
	sys.net.SetUp(sys.primary.ep.ID(), false)
	sys.s.After(sys.cfg.DetectDelay, func() {
		sys.M.Takeovers.Inc()
		sys.active = sys.backup
		sys.backup.touched = make(map[string]bool) // track post-takeover writes
		for _, c := range sys.committed {
			if c.dc == "dc1" && c.lsn > sys.backup.applied {
				sys.orphans = append(sys.orphans, c)
				sys.M.LostAtTakeover.Inc()
			}
		}
	})
}

// Orphans reports how many acked commits are currently locked inside the
// dead primary.
func (sys *System) Orphans() int { return len(sys.orphans) }

// RestartPrimary brings the failed datacenter back and reconciles its
// orphaned tail against the new active state using the given strategy.
func (sys *System) RestartPrimary(strategy RecoveryStrategy) RecoveryReport {
	sys.net.SetUp(sys.primary.ep.ID(), true)
	rep := RecoveryReport{Orphans: len(sys.orphans)}
	for _, o := range sys.orphans {
		switch strategy {
		case Discard:
			rep.Discarded++
			sys.lostWork = append(sys.lostWork, o)
		case Queue:
			rep.Queued++
			sys.lostWork = append(sys.lostWork, o)
		case Replay:
			if sys.active.touched[o.key] {
				// Someone wrote this key since takeover; blind
				// replay would clobber newer work. A human sorts
				// it out.
				rep.Conflicts++
				sys.lostWork = append(sys.lostWork, o)
			} else {
				sys.active.state[o.key] = o.val
				sys.active.touched[o.key] = true
				rep.Replayed++
			}
		}
	}
	sys.orphans = nil
	return rep
}

// BackupLagTxns reports how many primary-acked commits the backup has not
// yet replayed — the instantaneous size of the loss window.
func (sys *System) BackupLagTxns() int {
	lag := 0
	for _, c := range sys.committed {
		if c.dc == "dc1" && c.lsn > sys.backup.applied {
			lag++
		}
	}
	return lag
}

// Audit verifies that every acked commit is visible at the active
// datacenter, except the ones accounted for as orphans. It returns the
// number of unaccounted-for missing commits (0 means the loss accounting
// is exact).
func (sys *System) Audit() int {
	lost := make(map[committedTxn]bool, len(sys.orphans)+len(sys.lostWork))
	for _, o := range sys.orphans {
		lost[o] = true
	}
	for _, o := range sys.lostWork {
		lost[o] = true
	}
	latest := make(map[string]committedTxn)
	for _, c := range sys.committed {
		if !lost[c] {
			latest[c.key] = c
		}
	}
	missing := 0
	for key, c := range latest {
		if v, ok := sys.active.state[key]; !ok || v != c.val {
			missing++
		}
	}
	return missing
}
