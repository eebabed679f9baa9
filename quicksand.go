// Package quicksand is a from-scratch Go reproduction of Pat Helland and
// Dave Campbell's "Building on Quicksand" (CIDR 2009).
//
// The paper is a vision piece: it argues that as the unit of failure grows
// from a mirrored disk to a datacenter, synchronous checkpointing becomes
// unaffordable, applications must accept asynchronous state capture, and
// correctness must move up from READ/WRITE storage semantics to
// commutative, associative, idempotent business operations — ACID 2.0 —
// with probabilistic business rules and apologies for the cases where
// guesses go wrong.
//
// This module builds every system the paper describes and measures every
// claim it makes:
//
//   - internal/sim, simnet, failure: a deterministic discrete-event world
//     with fail-fast nodes, latency, partitions, and fault injection.
//   - internal/tandem: the Tandem NonStop of 1984 (per-WRITE synchronous
//     checkpoints) and 1986 (log-based checkpoints, group commit), §3.
//   - internal/logship: asynchronous cross-datacenter log shipping with
//     takeover loss windows and orphan recovery, §4–5.
//   - internal/dynamo + internal/cart: a sloppy-quorum replicated blob
//     store with vector-clock siblings, and the operation-centric shopping
//     cart reconciled over it, §6.1.
//   - internal/core + internal/bank + internal/policy + internal/apology:
//     the paper's main contribution as a library — ACID 2.0 replication
//     with probabilistic rules, risk policies, and the memories/guesses/
//     apologies ledger, §5–6, §8.
//   - internal/escrow, resource, seats, twopc: escrow locking, the
//     over-provision/over-book spectrum, the seat-reservation pattern, and
//     the fragile 2PC baseline, §5.3, §7, §2.3.
//
// The paper's main contribution — the ACID 2.0 replication engine — is
// exported directly from this package: build a Cluster with New and
// functional options (WithReplicas, WithShards, WithTransport,
// WithGossipEvery, ...), submit typed Ops synchronously with
// Submit(ctx, ...) or in bulk with SubmitBatch, and pick risk per
// operation with WithPolicy. WithShards partitions the key space across
// independent replica groups — §6's scale-out move — and
// WithDurability puts a disk under every replica (internal/store: a
// CRC-checked segmented journal, group-commit fsyncs per §3.2's
// city-bus economics), enabling the hard-crash lifecycle: Kill drops a
// replica's RAM, Recover rebuilds it (or a degraded one) from disk and
// rejoins gossip, and New cold-starts from an earlier
// incarnation's directory. The Transport seam (internal/transport)
// runs the same cluster code on the deterministic simulator
// (WithTransport(NewSimTransport(s))) for experiments or on real
// goroutines (LiveTransport, the default) for wall-clock benchmarks;
// the engine itself links no simulator. See examples/quickstart and
// examples/banking for end-to-end use.
//
// The derived evaluation lives in internal/experiment (19 experiments,
// each pinned to a quoted claim); run it with cmd/quicksand-bench or
// `go test -bench=.` at the module root. See DESIGN.md for the system
// inventory and README.md for the public API tour.
package quicksand

// Version identifies this reproduction. 2.x is the public API: typed
// ops, context-aware submits, functional options, pluggable transports;
// 2.1 adds the durable storage engine (WithDurability, Kill/Recover)
// and removes the deprecated SubmitOp shim. 2.2 gives every transport
// one way in: WithSim(s) becomes WithTransport(NewSimTransport(s)),
// quicksand.Time becomes time.Duration, and Cluster.Net() becomes the
// SimTransport's Net().
const Version = "2.2.0"
