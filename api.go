package quicksand

// This file is the public face of the ACID 2.0 replication engine: every
// type an application needs is re-exported here (as Go 1.24 generic type
// aliases, so values flow freely between the root package and internal
// packages), and every constructor and functional option is wrapped with
// its contract restated. External callers never import internal/.

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/uniq"
	"time"
)

// Engine types, re-exported from the core engine.
type (
	// Cluster is a set of eventually consistent replicas plus the shared
	// apology queue. Build one with New.
	Cluster[S any] = core.Cluster[S]
	// App folds operations into application state; Step must tolerate any
	// canonical fold order (the operations must commute).
	App[S any] = core.App[S]
	// Snapshotter is the App extension every reference-typed state needs:
	// Snapshot must return a deep copy. Value-typed states (no pointers,
	// maps, slices, channels, funcs, or interfaces reachable) are cloned
	// by assignment and need none; New panics on an App with a
	// reference-typed state and no Snapshot. Writes fold in place: the
	// engine takes a Snapshot for checkpoints, rewinds, and the first
	// write after a Replica.State read — not per write.
	Snapshotter[S any] = core.Snapshotter[S]
	// Rule is a probabilistically enforced business rule: Admit gates
	// submits against the local guess, Violated sweeps merged state.
	// Both see the live fold in place under the replica lock: valid only
	// for the duration of the call — do not retain it, mutate it, or call
	// back into the replica.
	Rule[S any] = core.Rule[S]
	// Replica is one eventually consistent copy of the application.
	// State returns a stable snapshot, forever; View lends the current
	// state to a callback without taking one.
	Replica[S any] = core.Replica[S]
)

type (
	// Op is one typed business operation. Leave ID empty for an ingress
	// uniquifier, or assign one (a check number, a content hash) to make
	// retries idempotent.
	Op = core.Op
	// OpID is an operation uniquifier.
	OpID = uniq.ID
	// Result reports the outcome of one submit.
	Result = core.Result
	// Violation is one discovered breach of a business rule.
	Violation = core.Violation
	// Metrics aggregates cluster-wide observations.
	Metrics = core.Metrics
	// Option configures a Cluster at construction.
	Option = core.Option
	// SubmitOption configures one submit call.
	SubmitOption = core.SubmitOption
	// StoreStats counts a durable cluster's disk work: fsyncs completed,
	// entries journaled, snapshots (full and delta) written, segments
	// recycled, torn bytes truncated at recovery, and the worst single
	// writer stall. Cluster.DurabilityStats aggregates it across replicas.
	StoreStats = store.Stats
)

// The transport seam: the same cluster code runs on the deterministic
// simulator or on real goroutines.
type (
	// Transport carries the cluster's messages and clock.
	Transport = core.Transport
	// Node is one addressable participant on a Transport.
	Node = core.Node
	// Handler serves one RPC method on a Node.
	Handler = core.Handler
	// SimTransport runs replicas on the deterministic discrete-event
	// simulator; fixed seeds reproduce runs bit-for-bit.
	SimTransport = core.SimTransport
	// LiveTransport runs replicas on real goroutines and wall-clock time.
	LiveTransport = core.LiveTransport
)

// Simulation types, for configuring transports.
type (
	// Sim is the deterministic discrete-event simulator.
	Sim = sim.Sim
	// Time is a transport timestamp: virtual on the simulator, elapsed
	// wall clock on the live transport.
	Time = sim.Time
)

// ErrStalled reports that a blocking Submit can never resolve because the
// transport ran out of work to do.
var ErrStalled = core.ErrStalled

// New builds a cluster of replicas named r0, r1, ... running app under
// rules (which may be nil). By default the cluster runs three replicas on
// a fresh live (goroutine) transport with the AlwaysAsync risk policy;
// options select the simulator, tune timeouts, start background gossip,
// and shard the key space across independent replica groups (WithShards).
func New[S any](app App[S], rules []Rule[S], opts ...Option) *Cluster[S] {
	return core.New[S](app, rules, opts...)
}

// NewOp builds an operation from the fields every application uses: the
// business operation name, the object it targets, and its numeric
// argument.
func NewOp(kind, key string, arg int64) Op { return core.NewOp(kind, key, arg) }

// NewSim returns a deterministic discrete-event simulator seeded with
// seed: two simulators with the same seed and schedule produce identical
// histories.
func NewSim(seed int64) *Sim { return sim.New(seed) }

// NewSimTransport binds a transport to simulator s with its own private
// network.
func NewSimTransport(s *Sim) *SimTransport { return core.NewSimTransport(s) }

// NewLiveTransport returns a transport backed by real goroutines and
// wall-clock timers.
func NewLiveTransport() *LiveTransport { return core.NewLiveTransport() }

// WithReplicas sets the replica count per shard (default 3; values below
// 1 fall back to the default).
func WithReplicas(n int) Option { return core.WithReplicas(n) }

// WithShards partitions the key space across n independent replica
// groups by consistent hash of Op.Key (default 1 — unsharded). Each
// shard runs its own operation sets, fold checkpoints, journals, and
// gossip schedule, so operations on different shards share no lock and
// proceed in parallel on the live transport. Cluster.ShardOf reports the
// routing; ShardStates, ShardConverged, ShardReplica, and ShardMetrics
// observe one group. Per-key semantics are unchanged: a sharded run
// derives states that, merged per key, match the unsharded run of the
// same operations.
func WithShards(n int) Option { return core.WithShards(n) }

// WithCallTimeout bounds every replica-to-replica call (default 100ms).
func WithCallTimeout(d time.Duration) Option { return core.WithCallTimeout(d) }

// WithGossipEvery starts background anti-entropy gossip at the given
// interval as soon as the cluster is built; Cluster.Close stops it.
func WithGossipEvery(d time.Duration) Option { return core.WithGossipEvery(d) }

// WithDefaultPolicy sets the risk policy used by submits that carry no
// WithPolicy option (default AlwaysAsync — guess on everything).
func WithDefaultPolicy(p Policy) Option { return core.WithDefaultPolicy(p) }

// WithTransport runs the cluster on the given transport (mutually
// exclusive with WithSim).
func WithTransport(t Transport) Option { return core.WithTransport(t) }

// WithSim runs the cluster on a fresh deterministic SimTransport bound to
// simulator s.
func WithSim(s *Sim) Option { return core.WithSim(s) }

// WithLocalReplicas marks the given replica indices as the ones this
// process hosts — the multi-process deployment mode, where each process
// runs one replica of every shard and a networked transport (one
// implementing the Transport seam over real connections, such as the
// daemon's TCP transport) carries gossip to the others. Remote replica
// indices become lightweight stubs: gossip targets them through the
// transport, States and Converged report only local knowledge, and
// Close touches only local stores.
func WithLocalReplicas(idxs ...int) Option { return core.WithLocalReplicas(idxs...) }

// NodeID names shard s's replica rep on a transport, matching the
// cluster's own naming: "r1" when shards is 1, "s2/r1" otherwise.
// Networked transports use it to map peer processes to node names.
func NodeID(shards, s, rep int) string { return core.NodeID(shards, s, rep) }

// WithDurability gives every replica a disk-backed store under dir: an
// append-only CRC-checked journal of its operations plus periodic
// atomic snapshot files. Submits and gossip pushes are acknowledged
// only once group-committed to disk, so everything accepted survives a
// hard crash: Cluster.Kill drops a replica's entire RAM,
// Cluster.Recover reloads it from disk and rejoins gossip, and New
// itself cold-starts from whatever an earlier incarnation left in dir.
func WithDurability(dir string) Option { return core.WithDurability(dir) }

// WithSnapshotEvery sets how many journaled operations separate durable
// snapshots (default 4096) — the ledger prefix serialized at a
// fold-checkpoint boundary, which bounds recovery replay and lets
// journal segments below both the snapshot and every gossip peer's
// acknowledgement be deleted. 0 disables snapshots.
func WithSnapshotEvery(n int) Option { return core.WithSnapshotEvery(n) }

// WithPolicy routes one submit with p instead of the cluster's default
// risk policy — the per-operation "stomach for risk" dial of §5.5.
func WithPolicy(p Policy) SubmitOption { return core.WithPolicy(p) }

// ContentID derives an operation ID from the request body itself — the
// MD5 trick of §2.1: retries of a byte-identical request map to the same
// ID with no client cooperation needed.
func ContentID(request []byte) OpID { return uniq.ContentID(request) }

// CheckNumber builds the banking uniquifier of §6.2: bank-id +
// account-number + check-number identify a check uniquely.
func CheckNumber(bank, account string, number int) OpID {
	return uniq.CheckNumber(bank, account, number)
}
