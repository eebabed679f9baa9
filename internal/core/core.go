// Package core implements the paper's primary contribution as a reusable
// library: operation-centric, eventually consistent replication in the
// ACID 2.0 style of §8 — Associative, Commutative, Idempotent,
// Distributed.
//
// Applications model their business as uniquified operations (§6.5's
// "operation-centric pattern"). A Cluster of Replicas accepts operations
// on local knowledge (guesses), spreads them by anti-entropy gossip
// (memories flowing together, §7.6), and derives state by folding the
// operation set in a canonical order — so "replicas that have seen the
// same work see the same result, independent of the order in which the
// work arrived."
//
// State derivation is checkpointed and incremental: each replica caches
// the fold of its set up to a canonical-order watermark and advances it
// by folding only the entries beyond the watermark (oplog.Set's Start
// and At). Ingress stamps every new operation with Lamport
// max(seen)+1, so local submits and in-order gossip are pure appends and
// admission costs O(new entries), not O(ledger) — the DP2 move from
// per-WRITE checkpoints to log-anchored ones (§3.3), applied to state
// derivation. Only a gossip merge that sorts behind the watermark forces
// a replay, and periodic fold snapshots bound how far back it reaches.
// See App and Snapshotter for the state-cloning contract this rests on.
//
// Scale-out follows §6's consequence of per-entity consistency: a
// Cluster is a set of shards, each an independent replica group with its
// own operation sets, fold checkpoints, journals, gossip schedule, and
// metrics. Submits are routed by a consistent hash of Op.Key
// (internal/shard), so operations on different shards share no lock and
// no gossip payload — on the live transport they proceed in true
// parallel. WithShards sets the shard count (default 1, which preserves
// the unsharded behaviour exactly); because applications must already
// tolerate any canonical fold order, a sharded run derives per-key
// states identical to an unsharded run of the same operations.
//
// Business rules are enforced probabilistically (§5.2): a Rule's Admit
// check runs against the local guess at submit time, and its Violated
// check runs after merges, when the truth has caught up; discovered
// violations become apologies (§5.7) routed through an apology.Queue.
// A policy.Policy picks, per operation, between the asynchronous guess
// path and §5.8's alternative — synchronous coordination with every
// replica — implementing the "$10,000 check" rule.
//
// The package is re-exported by the module root as the public `quicksand`
// API. Clusters are built with New plus functional options (WithReplicas,
// WithTransport, ...), operations are submitted synchronously
// with Submit/SubmitBatch — context-aware calls that resolve to a typed
// Result — or asynchronously with SubmitAsync for callers that live
// inside a simulated event loop. The Transport seam lets the same cluster
// run on the deterministic simulator or on real goroutines.
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/apology"
	"repro/internal/faultfs"
	"repro/internal/oplog"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/uniq"
)

// Op is one typed business operation offered to a cluster. The zero Op is
// not submittable — at minimum Kind should be set; an Op with an empty ID
// receives an ingress uniquifier at submit time, while a caller-assigned
// ID (a check number, a content hash) makes retries idempotent: an op
// whose ID was already seen at a replica is accepted without re-recording.
type Op = oplog.Entry

// NewOp builds an operation with the fields every application uses: the
// business operation name, the object it targets, and its numeric
// argument. The ingress replica assigns the uniquifier and timestamps.
func NewOp(kind, key string, arg int64) Op {
	return Op{Kind: kind, Key: key, Arg: arg}
}

// App folds operations into application state. Step must be insensitive
// to the canonical fold order produced by oplog.Set — in ACID 2.0 terms,
// the operations must commute (or the App must make them commute, e.g. by
// last-ingress-wins tie-breaks, which canonical order makes deterministic).
//
// Step may mutate and return the accumulator in place; states returned
// by Replica.State remain valid snapshots regardless, forever. The
// engine guarantees this by cloning the accumulator before folding new
// entries into a state a State caller took — via the App's Snapshot
// method when it implements Snapshotter, or by plain assignment when S is
// a pure value type (no pointers, maps, slices, channels, funcs, or
// interfaces reachable). There is no third way: New panics on an App
// whose state holds reference types and that has no Snapshot, because
// the one fold engine cannot checkpoint what it cannot clone. A clone is
// something only a reader causes: the
// write path — admission, the fold, the violation sweep — works on the
// accumulator in place and never hands it out, so a stream of writes
// nobody reads between pays no Snapshot beyond fold checkpoints and
// rewinds (Metrics.FoldClones counts the rest).
//
// The guarantee is one-directional: callers must treat states returned
// by Replica.State as read-only. The engine folds forward from the
// accumulator it handed out, so a caller mutation through a
// reference-typed state would be folded into every subsequent derivation
// instead of being healed by the next replay. Rule callbacks and
// Replica.View get less than a snapshot — see Rule.
type App[S any] interface {
	// Init returns the empty state.
	Init() S
	// Step applies one operation.
	Step(state S, op Op) S
}

// Snapshotter is the App extension every reference-typed state needs
// (value-typed states are cloned by assignment and need none). Snapshot
// must return a deep copy: folding further operations into the original
// must never be observable through the copy, and vice versa — an App
// whose Step never mutates its argument may return the state itself. The
// engine calls it for fold checkpoints, for rewinds, and once per write
// that follows a Replica.State read — never for a write nobody read
// before.
type Snapshotter[S any] interface {
	Snapshot(state S) S
}

// Violation is one discovered breach of a business rule.
type Violation struct {
	Detail string // stable description; identical violations dedupe
	Key    string // object concerned (account, SKU, ...) for compensation code
	Amount int64  // money at stake, in cents (0 if not monetary)
}

// Rule is a probabilistically enforced business rule (§5.2).
//
// Both callbacks are handed the replica's live fold accumulator, in
// place, usually under the replica lock — not a snapshot. The state is
// valid only for the duration of the call: a callback must not retain it
// (or anything reachable from it) past its return, must not mutate it,
// and must not call back into the replica or cluster (State, Submit, ...
// would deadlock on the lock it is running under). Copy out what the
// verdict needs — a Violation carries values, not references. A state
// to keep is what Replica.State is for.
type Rule[S any] struct {
	Name string
	// Admit, if non-nil, gates an operation against the replica's local
	// (guessed) state. Returning false declines the business. A guess
	// whose uniquifier the engine assigns reaches Admit before its ID is
	// minted — op.ID is empty there — because the ID is written straight
	// into the op set once the op is admitted (Result.Op carries it).
	Admit func(state S, op Op) bool
	// Violated, if non-nil, inspects a (possibly newly merged) state and
	// reports standing violations — the "Oh, crap!" moments of §5.7.
	Violated func(state S) []Violation
}

// config collects everything the functional options tune.
type config struct {
	replicas    int
	shards      int
	callTimeout time.Duration
	gossipEvery time.Duration
	defPolicy   policy.Policy
	transport   Transport
	foldEvery   int           // folded entries between periodic fold checkpoints (foldCheckpointEvery; tests lower it)
	durableDir  string        // root of per-replica durable stores ("" = in-memory only)
	segBytes    int           // durable journal segment size (0 = the store's default; tests lower it)
	ingestCap   int           // max ops per ingest drain pass (ingestBatchCap; tests lower and raise it)
	local       map[int]bool  // replica indices hosted by this process (nil = all)
	tracer      *trace.Tracer // sampled op-lifecycle tracing (nil = off, zero-cost)
	storeFS     faultfs.FS    // durable-store filesystem seam (nil = the real disk)
}

// A cadence the engine fixes rather than exposes: a fold checkpoint is
// cloned every foldCheckpointEvery folded entries; the ring of them bounds
// the replay a gossip merge sorting behind the watermark forces.
const foldCheckpointEvery = 1024

// Option configures a Cluster at construction.
type Option func(*config)

// WithReplicas sets the replica count per shard (default 3; values below
// 1 fall back to the default, matching the old zero-value Config
// semantics).
func WithReplicas(n int) Option { return func(c *config) { c.replicas = n } }

// WithShards partitions the key space across n independent replica
// groups (default 1; values below 1 fall back to 1). Each shard owns a
// consistent-hash slice of the keys and runs its own operation sets,
// fold checkpoints, journals, and gossip schedule — operations on
// different shards share no lock, so on the live transport they proceed
// in parallel. Submits are routed by Op.Key; the replica index names a
// position within the routed shard's group. A cluster of n shards and m
// replicas registers n×m transport nodes.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithCallTimeout bounds every replica-to-replica call (default 100ms;
// values of 0 or less fall back to the default, since a call that expires
// at once would decline every coordinated submit).
func WithCallTimeout(d time.Duration) Option { return func(c *config) { c.callTimeout = d } }

// WithGossipEvery starts background anti-entropy gossip at the given
// interval as soon as the cluster is built, and lets a replica under
// heavy ingest push a full batch of unacknowledged entries without
// waiting for the next tick; Close stops it. Without this option, gossip
// runs only when the caller invokes GossipRound or StartGossip.
func WithGossipEvery(d time.Duration) Option { return func(c *config) { c.gossipEvery = d } }

// WithDefaultPolicy sets the risk policy used by submits that do not
// carry a WithPolicy option (default policy.AlwaysAsync — guess on
// everything).
func WithDefaultPolicy(p policy.Policy) Option { return func(c *config) { c.defPolicy = p } }

// WithTransport runs the cluster on the given transport: an
// rpc.SimTransport for the deterministic simulator (one per cluster, so
// several clusters can share one simulation without node-name
// collisions), or a netx.Transport across processes. Without it, the
// cluster runs on a fresh LiveTransport (real goroutines, wall-clock
// time).
func WithTransport(t Transport) Option { return func(c *config) { c.transport = t } }

// WithDurability gives every replica a disk-backed store rooted under
// dir: an append-only CRC-checked journal of its operations
// (internal/store), which is the whole ledger — nothing is ever
// rewritten or retired. Each replica owns dir/<node-id>; a submit or
// gossip push is acknowledged only after its entries are fsynced
// (group-committed), so anything a caller or a peer saw accepted
// survives a hard crash. With durability on, Kill/Recover model real
// process death: Kill drops all of a replica's RAM, Recover replays the
// journal from disk and rejoins gossip to catch up — and New itself
// cold-starts from whatever an earlier incarnation left in dir. New
// panics if the stores cannot be opened (a configuration error should
// be loud).
func WithDurability(dir string) Option { return func(c *config) { c.durableDir = dir } }

// WithLocalReplicas declares that this process hosts only the given
// replica indices (of every shard); the rest of the cluster lives in
// other processes, reached through a transport that routes across
// machine boundaries (netx.Transport). Remote replicas exist as
// addressing stubs: they hold no state, open no store, and register no
// handlers — gossip pushes to them travel the transport, and their
// liveness is whatever Transport.IsUp reports. Submits must target a
// local index; a submit routed at a remote replica declines. Without
// this option every replica is local, which is the in-process behaviour
// all previous tests pin.
func WithLocalReplicas(idxs ...int) Option {
	return func(c *config) {
		c.local = make(map[int]bool, len(idxs))
		for _, i := range idxs {
			c.local[i] = true
		}
	}
}

// WithStoreFS routes every replica's durable-store file I/O through
// fsys — the syscall-level fault-injection seam (internal/faultfs)
// chaos scenarios and tests use to simulate full, flaky, or lying
// disks. The default nil uses the real filesystem. No effect without
// WithDurability.
func WithStoreFS(fsys faultfs.FS) Option { return func(c *config) { c.storeFS = fsys } }

// WithTracer attaches a sampled op-lifecycle tracer (internal/trace):
// every engine stage — submit, admission, journal-fsync cover, gossip
// ack, absorb, fold, apology — reports sampled ops into t's bounded
// event ring, from which t derives the guess-to-durable, guess-to-truth,
// and guess-to-apology lag histograms. Without this option every hook
// is a single nil check: no sampling hash, no allocation, no lock.
func WithTracer(t *trace.Tracer) Option { return func(c *config) { c.tracer = t } }

// ReasonDegraded is the Reason a degraded read-only shard attaches to
// every declined write: the replica's disk stopped accepting writes
// (full, or transiently failing), reads keep serving the published
// fold snapshot, and the shard rejoins once the disk heals. A decline
// carrying it has Retryable set — back off and resubmit rather than
// treating the operation as refused.
const ReasonDegraded = "shard degraded: store unwritable, read-only until the disk heals"

// Result reports the outcome of one submit.
type Result struct {
	Accepted bool
	Decision policy.Decision
	Latency  time.Duration
	Op       Op
	Reason   string // why a submit was declined
	// Retryable marks a transient decline — the shard is degraded
	// read-only (ReasonDegraded) and expected to heal — as opposed to a
	// business refusal or a crash, which retrying cannot help.
	Retryable bool
}

// Metrics is one shard's engine observations — the only place the
// engine increments — and, summed over shards by Cluster.Metrics, the
// cluster-wide view.
type Metrics struct {
	AsyncLat stats.LatHist // latency of async (guess) submits
	SyncLat  stats.LatHist // latency of coordinated submits

	Accepted       stats.Counter
	Declined       stats.Counter // rejected by a local Admit guess
	SyncAccepted   stats.Counter
	SyncDeclined   stats.Counter // coordination failed or a replica refused
	GossipRounds   stats.Counter
	OpsTransferred stats.Counter // entries moved by gossip

	// Fold-engine observability: FoldSteps counts App.Step invocations
	// across all replicas — the true cost of state derivation, O(new
	// entries) per submit plus what rewinds replay. FoldRewinds counts
	// checkpoint rewinds forced by gossip merges sorting behind a watermark,
	// FoldCheckpoints the periodic snapshots taken, and FoldClones the
	// whole-state clones a write paid because a reader had taken the
	// accumulator through State() since the previous write — zero on a
	// write-only stream; about one per write means something polls
	// State() between every two writes.
	FoldSteps       stats.Counter
	FoldRewinds     stats.Counter
	FoldCheckpoints stats.Counter
	FoldClones      stats.Counter

	// Degraded counts replicas entering degraded read-only mode — a
	// recoverable disk failure (ENOSPC, EIO) that paused writes without
	// killing the replica. Rejoins do not decrement it; it is a
	// how-often-has-this-happened counter, not a gauge (the live gauge
	// is ShardDegraded).
	Degraded stats.Counter
}

// merge adds o's counters and histograms into m.
func (m *Metrics) merge(o *Metrics) {
	m.AsyncLat.Merge(&o.AsyncLat)
	m.SyncLat.Merge(&o.SyncLat)
	m.Accepted.Addn(o.Accepted.Value())
	m.Declined.Addn(o.Declined.Value())
	m.SyncAccepted.Addn(o.SyncAccepted.Value())
	m.SyncDeclined.Addn(o.SyncDeclined.Value())
	m.GossipRounds.Addn(o.GossipRounds.Value())
	m.OpsTransferred.Addn(o.OpsTransferred.Value())
	m.FoldSteps.Addn(o.FoldSteps.Value())
	m.FoldRewinds.Addn(o.FoldRewinds.Value())
	m.FoldCheckpoints.Addn(o.FoldCheckpoints.Value())
	m.FoldClones.Addn(o.FoldClones.Value())
	m.Degraded.Addn(o.Degraded.Value())
}

// Cluster is a set of shards — independent replica groups partitioning
// the key space — plus the shared apology queue. With the default single
// shard it behaves exactly like the pre-shard engine: one replica group
// holding every key.
type Cluster[S any] struct {
	tr         Transport
	cfg        config
	app        App[S]
	rules      []Rule[S]
	declined   []string  // declined[i] is the Result.Reason when rules[i] refuses, built once
	hasAdmit   bool      // any rule has an Admit check
	hasViolate bool      // any rule has a Violated sweep
	snapFn     func(S) S // state clone for fold checkpoints, rewinds and read-then-write
	smap       *shard.Map
	groups     []*shardGroup[S]
	stopGossip []func()
	done       chan struct{} // closed by Close; stops degraded re-probe loops
	closeOnce  sync.Once

	Apologies *apology.Queue
}

// shardGroup is one shard: an independent replica group owning a
// consistent-hash slice of the key space, with its own operation sets,
// fold checkpoints, journals, gossip ring, and metrics. Groups share
// nothing but the transport and the apology queue.
type shardGroup[S any] struct {
	c    *Cluster[S]
	idx  int
	reps []*Replica[S]
	M    Metrics // every engine counter is incremented here and nowhere else
}

// gossipRound makes every live replica of this shard push its unacked
// journal suffix to both ring neighbours. Pushing both directions keeps
// the acknowledgement flow symmetric — every replica hears back from
// exactly the peers its journal truncation waits on — and an idle
// replica sends nothing at all (see pushTo). Gossip payloads are
// shard-local by construction: a group's journals only ever hold entries
// for its own keys.
func (g *shardGroup[S]) gossipRound() {
	g.M.GossipRounds.Inc()
	for _, rep := range g.reps {
		if rep.remote || rep.node.Crashed() || rep.degraded.Load() {
			// Remote replicas push from their own process; this one only
			// pushes *to* them (below, as somebody's ring neighbour).
			// Degraded replicas hold phantom entries their disk never
			// accepted — pushing those would spread guesses nobody can back.
			continue
		}
		for _, peer := range rep.gossipPeers {
			if peer.node.Crashed() || peer.degraded.Load() {
				// A degraded peer declines every push anyway (it would lose
				// the entries on rejoin); skipping saves the wasted round.
				continue
			}
			if g.c.tr.Reachable(rep.id, peer.id) {
				rep.pushTo(peer.id)
			}
		}
	}
}

// converged reports whether every locally hosted replica of this shard
// holds the same operation set. Remote replicas' sets live in another
// process and cannot be compared by reference; cross-process convergence
// is observed through the daemon API (op counts and derived state),
// never through this in-memory check.
func (g *shardGroup[S]) converged() bool {
	var first *Replica[S]
	for _, r := range g.reps {
		if r.remote {
			continue
		}
		if first == nil {
			first = r
			continue
		}
		if !first.sameOps(r) {
			return false
		}
	}
	return true
}

// nodeID names the transport node for replica rep of shard s. The
// single-shard cluster keeps the historical r0, r1, ... names so
// existing tests, partitions, and fault injection address nodes
// unchanged; sharded clusters qualify them as s<shard>/r<rep>.
func nodeID(shards, s, rep int) string {
	if shards == 1 {
		return fmt.Sprintf("r%d", rep)
	}
	return fmt.Sprintf("s%d/r%d", s, rep)
}

// NodeID names the transport node for replica rep of shard s in a
// cluster of the given shard count — the naming scheme New uses, made
// public so an out-of-process transport can be configured with the same
// addresses the cluster will dial (netx peers, daemon configs).
func NodeID(shards, s, rep int) string { return nodeID(shards, s, rep) }

// snapshotFn resolves how the engine clones a state: the App's own
// Snapshot method, or plain assignment when S is a pure value type. An
// App offering neither is a programming error, reported at construction.
func snapshotFn[S any](app App[S]) func(S) S {
	if sn, ok := app.(Snapshotter[S]); ok {
		return sn.Snapshot
	}
	t := reflect.TypeFor[S]()
	if plainCopyable(t) {
		return func(s S) S { return s }
	}
	panic(fmt.Sprintf("quicksand: %T folds into reference-typed state %v but has no Snapshot method: "+
		"implement Snapshotter (an App whose Step never mutates its argument may return the state itself)", app, t))
}

// plainCopyable reports whether assignment of a value of type t yields a
// fully independent copy: no pointers, maps, slices, channels, funcs, or
// interfaces are reachable from it (strings are immutable, so they
// qualify).
func plainCopyable(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	case reflect.Array:
		return plainCopyable(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !plainCopyable(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// New builds a cluster of replicas named r0, r1, ... sharing one apology
// queue. rules may be nil. By default the cluster runs three replicas on
// a fresh live (goroutine) transport with the AlwaysAsync risk policy;
// options select the transport, tune timeouts, and start background
// gossip. New panics on a configuration that cannot work: a durable
// directory that cannot be opened, or an App whose state the engine
// cannot clone (see Snapshotter).
func New[S any](app App[S], rules []Rule[S], opts ...Option) *Cluster[S] {
	cfg := config{
		replicas:    3,
		callTimeout: 100 * time.Millisecond,
		defPolicy:   policy.AlwaysAsync(),
		foldEvery:   foldCheckpointEvery,
		ingestCap:   ingestBatchCap,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.replicas < 1 {
		cfg.replicas = 3
	}
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	if cfg.callTimeout <= 0 {
		cfg.callTimeout = 100 * time.Millisecond
	}
	tr := cfg.transport
	if tr == nil {
		tr = NewLiveTransport()
	}
	if cfg.tracer != nil {
		// Trace events and annotations share the transport's time axis.
		cfg.tracer.SetClock(func() int64 { return int64(tr.Now()) })
	}
	c := &Cluster[S]{
		tr:        tr,
		cfg:       cfg,
		app:       app,
		rules:     rules,
		snapFn:    snapshotFn(app),
		Apologies: apology.NewQueue(),
		done:      make(chan struct{}),
	}
	for _, rule := range rules {
		c.declined = append(c.declined, "declined by rule "+rule.Name)
		c.hasAdmit = c.hasAdmit || rule.Admit != nil
		c.hasViolate = c.hasViolate || rule.Violated != nil
	}
	c.smap = shard.NewMap(cfg.shards)
	for s := 0; s < cfg.shards; s++ {
		g := &shardGroup[S]{c: c, idx: s}
		for i := 0; i < cfg.replicas; i++ {
			id := nodeID(cfg.shards, s, i)
			if cfg.local == nil || cfg.local[i] {
				g.reps = append(g.reps, newReplica(c, g, id))
			} else {
				g.reps = append(g.reps, newRemoteReplica(c, g, id))
			}
		}
		// The gossip peer set of a ring replica: its successor and
		// predecessor, the only nodes ever sent this replica's journal.
		// gossipRound pushes to this set and journal truncation waits for
		// its acknowledgements (see Replica.gossipPeers). A coordinated
		// submit asks every other replica (Replica.syncPeers).
		n := len(g.reps)
		for i, r := range g.reps {
			for _, other := range g.reps {
				if other != r {
					r.syncPeers = append(r.syncPeers, other.id)
				}
			}
			if n > 1 {
				succ := g.reps[(i+1)%n]
				pred := g.reps[(i-1+n)%n]
				r.gossipPeers = append(r.gossipPeers, succ)
				if pred != succ {
					r.gossipPeers = append(r.gossipPeers, pred)
				}
			}
		}
		c.groups = append(c.groups, g)
	}
	if cfg.gossipEvery > 0 {
		// One anti-entropy schedule per shard: on the live transport each
		// shard gossips on its own goroutine, so a slow shard never stalls
		// the others' convergence.
		for _, g := range c.groups {
			c.stopGossip = append(c.stopGossip, tr.Every(cfg.gossipEvery, g.gossipRound))
		}
	}
	return c
}

// storeOptions maps the cluster configuration onto internal/store
// knobs. On a transport that cannot scatter — the deterministic
// simulator, one event loop — every disk operation runs inline on the
// calling goroutine: group-commit economics are a wall-clock phenomenon
// the sim cannot observe, and background flusher goroutines would break
// bit-for-bit reproducibility.
func (c *Cluster[S]) storeOptions() store.Options {
	opt := store.Options{SegmentBytes: c.cfg.segBytes}
	_, scatters := c.tr.(Scatterer)
	opt.Inline = !scatters
	// Preallocated segments trade exact file sizes for flush latency; the
	// simulator keeps exact sizes — its tests poke at them, and inline
	// runs are not latency-sensitive anyway.
	opt.Preallocate = !opt.Inline
	opt.FS = c.cfg.storeFS
	return opt
}

// storeDir names the durable directory of the replica with the given
// node id (shard-qualified ids flatten their path separator).
func (c *Cluster[S]) storeDir(id string) string {
	return filepath.Join(c.cfg.durableDir, strings.ReplaceAll(id, "/", "_"))
}

// Kill hard-crashes replica i of shard 0 (the whole cluster when
// unsharded): the process dies, taking every bit of in-memory state —
// operation set, fold checkpoints, Lamport clock, gossip journal,
// ledger — and any disk write that was not yet group-committed. This is
// a stronger failure than Transport.SetUp(id, false), which merely
// silences a node while its RAM survives. A killed durable replica
// comes back with Recover; a killed non-durable replica is gone for
// good (its unique entries survive only if gossip already spread them).
func (c *Cluster[S]) Kill(i int) { c.groups[0].reps[i].Kill() }

// ShardKill hard-crashes replica i of the given shard. Shards share no
// state, so a kill touches one group only.
func (c *Cluster[S]) ShardKill(shard, i int) { c.groups[shard].reps[i].Kill() }

// Recover restarts killed replica i of shard 0 from its durable store:
// journal replay, torn-tail truncation, then the node rejoins gossip to
// catch up on what it missed while dead. See Replica.Recover.
func (c *Cluster[S]) Recover(ctx context.Context, i int) error {
	return c.groups[0].reps[i].Recover(ctx)
}

// ShardRecover restarts killed replica i of the given shard from disk,
// without touching any other shard's group.
func (c *Cluster[S]) ShardRecover(ctx context.Context, shard, i int) error {
	return c.groups[shard].reps[i].Recover(ctx)
}

// Rejoin re-probes the degraded replica i of shard 0 and, when its disk
// has healed, reseeds it from the store and resumes writes. See
// Replica.Rejoin.
func (c *Cluster[S]) Rejoin(ctx context.Context, i int) error {
	return c.groups[0].reps[i].Rejoin(ctx)
}

// ShardDegraded reports whether any locally hosted replica of the given
// shard is in degraded read-only mode, with per-replica detail
// ("id: reason", "; "-joined) for health endpoints. A degraded shard
// still serves reads from its published fold snapshots; writes decline
// with the retryable ReasonDegraded until the disk heals.
func (c *Cluster[S]) ShardDegraded(shard int) (detail string, degraded bool) {
	var b strings.Builder
	for _, r := range c.groups[shard].reps {
		if r.remote || !r.Degraded() {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		b.WriteString(r.id)
		b.WriteString(": ")
		b.WriteString(r.DegradedReason())
		degraded = true
	}
	return b.String(), degraded
}

// IngestBacklog sums the ingest-ring depth and nominal capacity of
// replica i across every shard. The ratio is the cluster slice's
// saturation: near 1.0, far more callers are parked behind the drain than
// it absorbs per pass, and an ingress should shed load instead of queueing
// them invisibly. (0, 0) when replica i is hosted by another process.
func (c *Cluster[S]) IngestBacklog(i int) (depth, capacity int) {
	for _, g := range c.groups {
		d, cp := g.reps[i].IngestBacklog()
		depth += d
		capacity += cp
	}
	return depth, capacity
}

// DegradedShards lists the shards with at least one locally hosted
// replica in degraded read-only mode (empty on a healthy cluster).
func (c *Cluster[S]) DegradedShards() []int {
	var out []int
	for s := range c.groups {
		if _, deg := c.ShardDegraded(s); deg {
			out = append(out, s)
		}
	}
	return out
}

// DurabilityStats sums the disk-work counters of every replica's live
// store: fsyncs completed, entries journaled, torn bytes truncated at
// recovery (Snapshots, SnapshotFailures and Recycled stay 0).
// MaxStallNs is the max, not the sum — the worst single writer stall
// anywhere in the cluster. All zeros without WithDurability.
func (c *Cluster[S]) DurabilityStats() store.Stats {
	var out store.Stats
	for _, g := range c.groups {
		for _, r := range g.reps {
			if st, ok := r.StoreStats(); ok {
				out.Fsyncs += st.Fsyncs
				out.Appended += st.Appended
				out.TornBytes += st.TornBytes
				if st.MaxStallNs > out.MaxStallNs {
					out.MaxStallNs = st.MaxStallNs
				}
			}
		}
	}
	return out
}

// ShardDurabilityHists merges the log-bucketed fsync latency histograms
// of one shard's locally hosted replicas — the per-shard durability
// series behind /metrics; empty without WithDurability. snapCut is
// always empty: the store cuts no snapshots. It stays so that callers
// reading it still build.
func (c *Cluster[S]) ShardDurabilityHists(shard int) (fsync, snapCut *stats.LatHist) {
	fsync, snapCut = &stats.LatHist{}, &stats.LatHist{}
	for _, r := range c.groups[shard].reps {
		r.MergeFsyncHist(fsync)
	}
	return fsync, snapCut
}

// Tracer returns the op-lifecycle tracer attached with WithTracer, or
// nil when tracing is off.
func (c *Cluster[S]) Tracer() *trace.Tracer { return c.cfg.tracer }

// Transport returns the transport the cluster runs on.
func (c *Cluster[S]) Transport() Transport { return c.tr }

// Now returns the transport's current time.
func (c *Cluster[S]) Now() time.Duration { return c.tr.Now() }

// Replicas reports the replica count per shard.
func (c *Cluster[S]) Replicas() int { return c.cfg.replicas }

// Shards reports the shard count (1 for an unsharded cluster).
func (c *Cluster[S]) Shards() int { return c.cfg.shards }

// ShardOf reports which shard owns key — a pure function of the shard
// count and the key, identical across clusters and across runs.
func (c *Cluster[S]) ShardOf(key string) int { return c.smap.Of(key) }

// Replica returns replica i of shard 0 — the whole cluster when
// unsharded. Sharded callers address a specific group with ShardReplica.
func (c *Cluster[S]) Replica(i int) *Replica[S] { return c.groups[0].reps[i] }

// ShardReplica returns replica i of the given shard.
func (c *Cluster[S]) ShardReplica(shard, i int) *Replica[S] { return c.groups[shard].reps[i] }

// ShardMetrics returns the given shard's live engine metrics. Per-shard
// fold and gossip figures expose load imbalance that the cluster-wide
// sum hides.
func (c *Cluster[S]) ShardMetrics(shard int) *Metrics { return &c.groups[shard].M }

// Metrics returns the cluster-wide engine metrics: every shard's
// counters and histograms summed as of the call. The result is a fresh
// value that later operations do not move; call again for a newer sum.
func (c *Cluster[S]) Metrics() *Metrics {
	m := &Metrics{}
	for _, g := range c.groups {
		m.merge(&g.M)
	}
	return m
}

// CallTimeout reports the configured replica-to-replica call timeout.
func (c *Cluster[S]) CallTimeout() time.Duration { return c.cfg.callTimeout }

// submitConfig collects per-submit options.
type submitConfig struct {
	pol policy.Policy
}

// SubmitOption configures one Submit, SubmitBatch, or SubmitAsync call.
type SubmitOption func(*submitConfig)

// WithPolicy routes this submit with p instead of the cluster's default
// risk policy — the per-operation "stomach for risk" dial of §5.5. A
// policy decides before an engine-assigned uniquifier exists: it sees
// such an op with an empty ID.
func WithPolicy(p policy.Policy) SubmitOption { return func(sc *submitConfig) { sc.pol = p } }

func (c *Cluster[S]) submitConfig(opts []SubmitOption) submitConfig {
	if len(opts) == 0 {
		// The common call carries no options; applying them takes sc's
		// address, which would move it to the heap on every submit.
		return submitConfig{pol: c.cfg.defPolicy}
	}
	sc := submitConfig{pol: c.cfg.defPolicy}
	for _, o := range opts {
		o(&sc)
	}
	return sc
}

// Submit offers one operation at the given replica and blocks until the
// outcome is known, driving the transport as needed. Business declines
// (a rule refused, coordination failed, the replica is down) come back as
// a Result with Accepted=false and a Reason; the error reports
// infrastructure failures only — context cancellation or a stalled
// transport.
//
// On an rpc.SimTransport, Submit steps the event loop until the result
// resolves; it must not be called from inside a simulator callback (use
// SubmitAsync there).
func (c *Cluster[S]) Submit(ctx context.Context, replica int, op Op, opts ...SubmitOption) (Result, error) {
	if replica < 0 || replica >= c.cfg.replicas {
		return Result{Op: op}, fmt.Errorf("quicksand: no replica %d in a cluster of %d", replica, c.cfg.replicas)
	}
	if err := ctx.Err(); err != nil {
		return Result{Op: op}, err
	}
	sink := takeSink(nil)
	c.dispatch(c.route(replica, op), op, c.submitConfig(opts), nil, sink)
	if err := c.tr.Await(ctx, sink.ready); err != nil {
		return Result{Op: op}, err // the sink is abandoned, never recycled
	}
	res := sink.one[0]
	sink.release()
	return res, nil
}

// route resolves the replica a submit lands on: replica index i within
// the group of the shard that owns op's key.
func (c *Cluster[S]) route(i int, op Op) *Replica[S] {
	return c.groups[c.smap.Of(op.Key)].reps[i]
}

// SubmitBatch offers a batch of operations at the given replica and
// blocks until every outcome is known. Results align with ops by index.
// Batching amortizes the transport-driving cost of Submit across many
// operations — the throughput path for bulk ingest.
//
// On a sharded cluster the batch is scattered: ops are grouped by the
// shard that owns their key and each group is dispatched as one unit —
// in parallel on transports that support it (the live transport runs one
// goroutine per shard). Ops that share a key share a shard and keep
// their submission order within its group, so per-key ordering survives
// the fan-out.
func (c *Cluster[S]) SubmitBatch(ctx context.Context, replica int, ops []Op, opts ...SubmitOption) ([]Result, error) {
	if replica < 0 || replica >= c.cfg.replicas {
		return nil, fmt.Errorf("quicksand: no replica %d in a cluster of %d", replica, c.cfg.replicas)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, nil
	}
	sc := c.submitConfig(opts)
	results := make([]Result, len(ops))
	sink := takeSink(results)
	if c.cfg.shards == 1 {
		c.dispatchBatch(c.groups[0].reps[replica], ops, nil, sc, sink)
	} else {
		byShard := make([][]int, c.cfg.shards)
		for i, op := range ops {
			s := c.smap.Of(op.Key)
			byShard[s] = append(byShard[s], i)
		}
		var thunks []func()
		for s, idxs := range byShard {
			if len(idxs) == 0 {
				continue
			}
			rep := c.groups[s].reps[replica]
			idxs := idxs
			thunks = append(thunks, func() { c.dispatchBatch(rep, ops, idxs, sc, sink) })
		}
		c.scatter(thunks)
	}
	if err := c.tr.Await(ctx, sink.ready); err != nil {
		return nil, err // the sink is abandoned, never recycled
	}
	sink.release()
	return results, nil
}

// dispatchBatch routes the ops selected by idxs (nil = all of them, in
// order) at rep, delivering every Result into the sink: each op is
// stamped with its ingress identity here and the lot is enqueued as one
// contiguous run — no per-operation closure, no per-operation lock.
func (c *Cluster[S]) dispatchBatch(rep *Replica[S], ops []Op, idxs []int, sc submitConfig, sink *ingestSink) {
	nth := func(k int) int { return k }
	n := len(ops)
	if idxs != nil {
		nth = func(k int) int { return idxs[k] }
		n = len(idxs)
	}
	if rep.remote {
		for k := 0; k < n; k++ {
			i := nth(k)
			sink.deliver(int32(i), rep.notHosted(ops[i]))
		}
		return
	}
	items := make([]ingestItem, 0, n)
	now := c.tr.Now()
	for k := 0; k < n; k++ {
		i := nth(k)
		it := c.ingress(rep, ops[i], sc, now)
		it.sink, it.idx = sink, int32(i)
		if rep.node.Crashed() {
			it.finish(Result{Op: rep.withID(&it), Reason: "replica down"})
			continue
		}
		items = append(items, it)
	}
	if len(items) > 0 && !rep.enqueueIngest(items...) {
		for j := range items {
			items[j].finish(Result{Op: rep.withID(&items[j]), Reason: "replica shut down"})
		}
	}
}

// scatter runs the per-shard dispatch thunks — in parallel when the
// transport supports Scatterer (real goroutines), sequentially otherwise
// (the deterministic simulator).
func (c *Cluster[S]) scatter(thunks []func()) {
	if len(thunks) > 1 {
		if sc, ok := c.tr.(Scatterer); ok {
			sc.Scatter(thunks)
			return
		}
	}
	for _, fn := range thunks {
		fn()
	}
}

// SubmitAsync offers one operation without blocking; done (which may be
// nil) fires exactly once when the outcome is known. This is the dispatch
// path for callers that live inside a simulated event loop — experiments
// and workload generators — where the blocking Submit would re-enter the
// scheduler.
func (c *Cluster[S]) SubmitAsync(replica int, op Op, done func(Result), opts ...SubmitOption) {
	if done == nil {
		done = func(Result) {}
	}
	if replica < 0 || replica >= c.cfg.replicas {
		done(Result{Op: op, Reason: fmt.Sprintf("no replica %d in a cluster of %d", replica, c.cfg.replicas)})
		return
	}
	c.dispatch(c.route(replica, op), op, c.submitConfig(opts), done, nil)
}

// dispatch routes one operation at rep: fill in ingress identity, then
// enqueue it for the drain, which processes in strict arrival order —
// guesses absorbed in batches, coordinated ops initiated exactly where
// they sat in the queue. The outcome goes to emit or to slot 0 of sink,
// whichever is set, exactly once — on a durable replica, only after the
// operation's journal record is fsynced (an accepted result is a durable
// result). Metrics and latency are accounted downstream.
func (c *Cluster[S]) dispatch(rep *Replica[S], op Op, sc submitConfig, emit func(Result), sink *ingestSink) {
	if rep.remote {
		it := ingestItem{emit: emit, sink: sink}
		it.finish(rep.notHosted(op))
		return
	}
	it := c.ingress(rep, op, sc, c.tr.Now())
	it.emit, it.sink = emit, sink
	if rep.node.Crashed() {
		it.finish(Result{Op: rep.withID(&it), Reason: "replica down"})
		return
	}
	if !rep.enqueueIngest(it) {
		it.finish(Result{Op: rep.withID(&it), Reason: "replica shut down"})
	}
}

// ingress stamps op with its ingress identity at rep and returns it as a
// queue item started at now — the one place both submit entry points
// (dispatch and dispatchBatch) assign uniquifiers and timestamps, so the
// two can never drift. An op without an ID takes the next sequence number
// of rep's generator, but its ID string is built here only when something
// needs it before the op set holds it: a coordinated submit ships the op
// in its §5.8 round, and a traced one is reported to the tracer now (the
// 1-in-N sample is decided on bytes rendered on the stack). Every other
// guess has its ID minted straight into the set by ingestSegment, or
// rendered by withID if it leaves before that. The risk policy therefore
// sees such an op without its ID, as the caller offered it.
func (c *Cluster[S]) ingress(rep *Replica[S], op Op, sc submitConfig, now time.Duration) ingestItem {
	it := ingestItem{start: now}
	if op.ID == "" {
		it.seq = rep.gen.Take()
	}
	if op.At == 0 {
		op.At = c.tr.Now()
	}
	it.sync = sc.pol.Decide(op) == policy.Sync
	if t := c.cfg.tracer; t != nil {
		if op.ID == "" {
			var buf [32]byte
			if id := uniq.AppendID(buf[:0], rep.gen.Node(), it.seq); t.SampledID(id) {
				op.ID = uniq.ID(id)
			}
		}
		if op.ID != "" {
			t.Submitted(string(op.ID), op.Key, rep.id, int64(op.At))
		}
	}
	if it.sync && op.ID == "" {
		op.ID = rep.gen.ID(it.seq)
	}
	it.op = op
	return it
}

// GossipRound runs one anti-entropy round on every shard: each live
// replica push-pulls with its ring neighbour within its own group.
// Repeated rounds converge the cluster; Converged reports when.
// Metrics.GossipRounds counts per-shard rounds.
func (c *Cluster[S]) GossipRound() {
	for _, g := range c.groups {
		g.gossipRound()
	}
}

// StartGossip starts a per-shard anti-entropy schedule at the given
// interval; the returned stop function cancels every shard's schedule.
// It schedules rounds and nothing else: the ingest-side nudge that ships
// a full batch of unacknowledged entries between ticks belongs to
// WithGossipEvery. StartGossip is the simulator's manual scheduler —
// experiments E6 and E12 and quicksand-sim start and stop gossip around
// their measured phases — and whether the nudge firing there would move
// their tables is unverified, which is why the two are not one.
func (c *Cluster[S]) StartGossip(interval time.Duration) (stop func()) {
	stops := make([]func(), len(c.groups))
	for i, g := range c.groups {
		stops[i] = c.tr.Every(interval, g.gossipRound)
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// Close releases the cluster's background resources: gossip started by
// WithGossipEvery, every replica's ingest ring — what is already queued
// is drained and resolved, later submits decline — and every replica's
// durable store — flushed, fsynced, and closed gracefully, so a later
// New with the same WithDurability directory cold-starts from exactly
// this state. Replicas and their in-memory state remain readable.
//
// The returned error joins every replica's store-close failure: a final
// flush that could not land means the directory does NOT hold everything
// that was acknowledged, and a graceful shutdown (the daemon's drain
// path) must be able to report that instead of silently losing it.
func (c *Cluster[S]) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	for _, stop := range c.stopGossip {
		stop()
	}
	c.stopGossip = nil
	for _, g := range c.groups {
		for _, r := range g.reps {
			if !r.remote {
				r.closeIngest()
			}
		}
	}
	var errs []error
	for _, g := range c.groups {
		for _, r := range g.reps {
			if err := r.closeStore(); err != nil {
				errs = append(errs, fmt.Errorf("replica %s: %w", r.id, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Converged reports whether every shard has converged: within each
// group, every replica holds the same operation set. It compares sets in
// place (no copies), so polling it in a convergence loop stays cheap
// even with large ledgers.
func (c *Cluster[S]) Converged() bool {
	for _, g := range c.groups {
		if !g.converged() {
			return false
		}
	}
	return true
}

// ShardConverged reports whether one shard's replica group has
// converged, independently of the others.
func (c *Cluster[S]) ShardConverged(shard int) bool { return c.groups[shard].converged() }

// States returns every replica's current derived state, shard-major:
// shard 0's replicas first, then shard 1's, and so on — len is
// Shards()×Replicas(). On the default single shard this is exactly the
// historical one-state-per-replica slice. A sharded state covers only
// the keys its shard owns; merging the per-shard states key-by-key
// reconstructs what an unsharded run would hold (the differential tests
// prove this equivalence).
// Remote replicas (WithLocalReplicas) are skipped — their states live in
// another process — so a partial host's slice covers only what it holds.
func (c *Cluster[S]) States() []S {
	out := make([]S, 0, len(c.groups)*c.cfg.replicas)
	for _, g := range c.groups {
		for _, r := range g.reps {
			if !r.remote {
				out = append(out, r.State())
			}
		}
	}
	return out
}

// ShardStates returns the derived state of each replica in one shard's
// group.
func (c *Cluster[S]) ShardStates(shard int) []S {
	g := c.groups[shard]
	out := make([]S, 0, len(g.reps))
	for _, r := range g.reps {
		if !r.remote {
			out = append(out, r.State())
		}
	}
	return out
}
