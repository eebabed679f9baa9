package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/loadgen"
	"repro/internal/netx"
	"repro/internal/workload"
)

// FlashSale: a hot-key spike mid-run. Background traffic funds a
// uniform key space; for the middle third of the window every worker
// pivots to withdrawing against one seeded SKU. The paper's §5 story in
// miniature: replicas guess against stale balances, the merge discovers
// the oversell, and the system's whole obligation is one bounded,
// attributed apology — never lost work.
var FlashSale = register(&Scenario{
	Name:  "flash-sale",
	Desc:  "hot-key withdrawal spike against seeded stock mid-run",
	Stack: StackLive,
	Keys:  256,
	run: func(ctx context.Context, cfg Config, tgt loadgen.ChaosTarget) (*loadgen.Report, []Check, error) {
		spec := baseSpec(cfg)
		hot := spec.HotKeyName()
		seeded, err := seedDeposit(ctx, tgt, hot, 10_000)
		if err != nil {
			return nil, nil, err
		}
		spikeFrom, spikeTo := cfg.Duration/3, 2*cfg.Duration/3
		spec.Gen = func(w int, r *rand.Rand) loadgen.OpGen {
			uniform := workload.UniformKeys(r, spec.KeyPrefix, cfg.Keys)
			return func(r *rand.Rand, elapsed time.Duration) loadgen.Op {
				if elapsed >= spikeFrom && elapsed < spikeTo {
					return loadgen.Op{Kind: "withdraw", Key: hot, Arg: 1 + r.Int63n(120)}
				}
				return loadgen.Op{Kind: "deposit", Key: uniform(), Arg: 1 + r.Int63n(100)}
			}
		}
		// Mark the spike window on the trace stream as it happens, from a
		// timer rather than the (concurrent, per-worker) generator.
		spikeCtx, stopSpikeMarks := context.WithCancel(ctx)
		go func() {
			if !sleepCtx(spikeCtx, spikeFrom) {
				return
			}
			tgt.Annotate(fmt.Sprintf("flash-sale: spike start on %s", hot))
			if !sleepCtx(spikeCtx, spikeTo-spikeFrom) {
				return
			}
			tgt.Annotate("flash-sale: spike over")
		}()
		rep, err := loadgen.Run(ctx, tgt, spec)
		stopSpikeMarks()
		if err != nil {
			return nil, nil, err
		}
		checks := []Check{
			converge(ctx, tgt, cfg.Duration),
			checkNoLostOps(rep, tgt, seeded, 0),
			// The spike must exhaust the stock: a flash sale where nothing
			// sells out measured nothing.
			{Name: "stock-exhausted", OK: rep.Declined > 0,
				Detail: fmt.Sprintf("%d declines", rep.Declined)},
			// Content-derived apology IDs collapse the oversell to at most
			// one apology, and only the hot SKU can be oversold here.
			checkApologiesBounded(tgt, 1),
			checkHotKeyOnly(tgt, hot),
		}
		return rep, checks, nil
	},
})

// checkHotKeyOnly asserts every apology concerns the flash-sale SKU.
func checkHotKeyOnly(tgt loadgen.Target, hot string) Check {
	for _, a := range tgt.ApologyList() {
		if a.Key != hot {
			return Check{Name: "apologies-hot-key-only",
				Detail: fmt.Sprintf("apology for %q, expected only %q", a.Key, hot)}
		}
	}
	return Check{Name: "apologies-hot-key-only", OK: true}
}

// ZipfMillions: a large, heavily skewed key space — the
// millions-of-users shape. 80/20 deposit/withdraw under Zipf(1.1), so
// the head keys churn constantly while the long tail trickles.
var ZipfMillions = register(&Scenario{
	Name:  "zipf-millions",
	Desc:  "large Zipf-skewed key space, 80/20 deposit/withdraw mix",
	Stack: StackLive,
	Keys:  1_000_000,
	run: func(ctx context.Context, cfg Config, tgt loadgen.ChaosTarget) (*loadgen.Report, []Check, error) {
		spec := baseSpec(cfg)
		spec.Dist = loadgen.Zipf
		spec.ZipfSkew = 1.1
		rep, err := loadgen.Run(ctx, tgt, spec)
		if err != nil {
			return nil, nil, err
		}
		checks := []Check{
			converge(ctx, tgt, cfg.Duration),
			checkNoLostOps(rep, tgt, 0, 0),
			checkApologiesAttributed(tgt),
			// One apology per overdrawn key at most (content-ID dedupe);
			// the key space itself is the only upper bound worth asserting.
			checkApologiesBounded(tgt, cfg.Keys),
		}
		return rep, checks, nil
	},
})

// PartitionStorm: replicas drop out of gossip and return, one after
// another, while ingest continues on whoever is reachable. Traffic is
// async-only, so the accounting invariant is strict: once the storm
// passes and anti-entropy heals, every accepted op is at every replica.
var PartitionStorm = register(&Scenario{
	Name:  "partition-storm",
	Desc:  "rotating replica silences mid-ingest, strict accounting after heal",
	Stack: StackLive,
	Keys:  256,
	run: func(ctx context.Context, cfg Config, tgt loadgen.ChaosTarget) (*loadgen.Report, []Check, error) {
		spec := baseSpec(cfg)
		spec.SyncFrac = 0
		stormCtx, stopStorm := context.WithCancel(ctx)
		var wg sync.WaitGroup
		if cfg.Replicas > 1 {
			cycle := cfg.Duration / 6
			if cycle < 20*time.Millisecond {
				cycle = 20 * time.Millisecond
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					entry := i % cfg.Replicas
					tgt.Silence(entry, true)
					tgt.Annotate(fmt.Sprintf("partition opened: r%d silenced", entry))
					if !sleepCtx(stormCtx, cycle/2) {
						tgt.Silence(entry, false)
						tgt.Annotate(fmt.Sprintf("partition healed: r%d", entry))
						return
					}
					tgt.Silence(entry, false)
					tgt.Annotate(fmt.Sprintf("partition healed: r%d", entry))
					if !sleepCtx(stormCtx, cycle/2) {
						return
					}
				}
			}()
		}
		rep, err := loadgen.Run(ctx, tgt, spec)
		stopStorm()
		wg.Wait()
		if err != nil {
			return nil, nil, err
		}
		checks := []Check{
			converge(ctx, tgt, cfg.Duration),
			checkNoLostOps(rep, tgt, 0, 0),
			checkApologiesAttributed(tgt),
		}
		return rep, checks, nil
	},
})

// SlowDisk: every fsync takes an extra beat. Group commit is
// supposed to absorb exactly this — more commits board each (slower)
// bus — so throughput degrades gracefully and nothing else changes.
// The differential test in the loadgen suite pins the stronger claim
// (outcomes identical to an undelayed run); here the invariant is the
// operational one: durable, converged, nothing lost.
var SlowDisk = register(&Scenario{
	Name:            "slow-disk",
	Desc:            "injected latency on every fsync",
	Stack:           StackDurable,
	Keys:            256,
	NeedsDurability: true,
	prepare: func(c *Config) {
		c.extraOpts = []core.Option{core.WithStoreFS(slowSyncFS(DefaultSlowDiskDelay))}
	},
	run: func(ctx context.Context, cfg Config, tgt loadgen.ChaosTarget) (*loadgen.Report, []Check, error) {
		spec := baseSpec(cfg)
		rep, err := loadgen.Run(ctx, tgt, spec)
		if err != nil {
			return nil, nil, err
		}
		checks := []Check{
			converge(ctx, tgt, cfg.Duration),
			checkNoLostOps(rep, tgt, 0, 0),
			checkApologiesAttributed(tgt),
		}
		if ct, ok := tgt.(*loadgen.ClusterTarget); ok {
			st := ct.C.DurabilityStats()
			checks = append(checks, Check{Name: "disk-was-exercised",
				OK: st.Fsyncs > 0 && st.Appended > 0,
				Detail: fmt.Sprintf("%d fsyncs, %d entries journaled, max stall %v",
					st.Fsyncs, st.Appended, time.Duration(st.MaxStallNs))})
		}
		return rep, checks, nil
	},
})

// DefaultSlowDiskDelay is the latency slow-disk adds to every fsync.
const DefaultSlowDiskDelay = 2 * time.Millisecond

// slowSyncFS is the real disk with every fsync stretched by delay.
func slowSyncFS(delay time.Duration) faultfs.FS {
	return faultfs.New(faultfs.OS, 1, func(op faultfs.Op) faultfs.Decision {
		if op.Kind == faultfs.OpSync {
			return faultfs.Decision{Delay: delay}
		}
		return faultfs.Decision{}
	})
}

// RollingChurn: kill and recover each replica in sequence while traffic
// continues — a rolling restart with no drain step. Because "accepted"
// means "fsynced" on a durable cluster, the strict no-lost-ops check
// must hold even though every replica spends part of the run dead.
var RollingChurn = register(&Scenario{
	Name:            "rolling-churn",
	Desc:            "kill/recover each replica in sequence under load",
	Stack:           StackDurable,
	Keys:            256,
	NeedsDurability: true,
	run: func(ctx context.Context, cfg Config, tgt loadgen.ChaosTarget) (*loadgen.Report, []Check, error) {
		spec := baseSpec(cfg)
		spec.SyncFrac = 0
		churnCtx, stopChurn := context.WithCancel(ctx)
		var wg sync.WaitGroup
		var kills atomic.Int64
		churnErr := make(chan error, 1)
		if cfg.Replicas > 1 {
			slice := cfg.Duration / time.Duration(cfg.Replicas+1)
			if slice < 50*time.Millisecond {
				slice = 50 * time.Millisecond
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for entry := 0; entry < cfg.Replicas; entry++ {
					if !sleepCtx(churnCtx, slice/2) {
						return
					}
					tgt.Kill(entry)
					kills.Add(1)
					tgt.Annotate(fmt.Sprintf("churn: r%d killed", entry))
					sleepCtx(churnCtx, slice/2)
					// Recover even when the run is over: the invariants need
					// every replica back to compare. Use the parent ctx — the
					// churn ctx is already cancelled on the late path.
					if err := tgt.Recover(ctx, entry); err != nil {
						select {
						case churnErr <- fmt.Errorf("recover entry %d: %w", entry, err):
						default:
						}
						return
					}
					tgt.Annotate(fmt.Sprintf("churn: r%d recovered", entry))
				}
			}()
		}
		rep, err := loadgen.Run(ctx, tgt, spec)
		stopChurn()
		wg.Wait()
		if err != nil {
			return nil, nil, err
		}
		select {
		case err := <-churnErr:
			return nil, nil, err
		default:
		}
		// Each hard kill can journal the ops in flight at that instant
		// (at most one request per worker) and then destroy their
		// acknowledgments — durable-but-unacknowledged surplus, the
		// at-least-once face of "accepted means fsynced". Never loss.
		inFlightPerKill := int64(rep.Workers) * int64(rep.Batch)
		checks := []Check{
			converge(ctx, tgt, cfg.Duration),
			checkNoLostOps(rep, tgt, 0, kills.Load()*inFlightPerKill),
			checkApologiesAttributed(tgt),
		}
		return rep, checks, nil
	},
})

// DiskFull: one replica's disk fills mid-run and empties again. The old
// engine treated any store failure as fatal; the invariant here is the
// graceful-degradation contract — the replica drops to read-only and
// declines with the typed retryable reason (never a crash, never a
// hang), heals itself once space returns, and after convergence not one
// accepted op is missing anywhere.
var DiskFull = register(&Scenario{
	Name:            "disk-full",
	Desc:            "one replica's disk fills mid-run: degrade read-only, shed retryably, self-heal, lose nothing",
	Stack:           StackDurable,
	Keys:            256,
	NeedsDurability: true,
	prepare: func(c *Config) {
		full := new(atomic.Bool)
		c.state = full
		c.extraOpts = []core.Option{core.WithStoreFS(enospcFS("r1", full))}
	},
	run: func(ctx context.Context, cfg Config, tgt loadgen.ChaosTarget) (*loadgen.Report, []Check, error) {
		full := cfg.state.(*atomic.Bool)
		ct, ok := tgt.(*loadgen.ClusterTarget)
		if !ok {
			return nil, nil, fmt.Errorf("disk-full runs on the in-process durable stack")
		}
		anyDegraded := func() bool {
			for s := range ct.C.Shards() {
				if _, deg := ct.C.ShardDegraded(s); deg {
					return true
				}
			}
			return false
		}

		// Middle third of the window: r1's disk is full. The probe submit
		// below pins the shape of the decline while it is.
		third := cfg.Duration / 3
		var probe loadgen.Outcome
		var probed, sawDegraded atomic.Bool
		faultCtx, stopFault := context.WithCancel(ctx)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer full.Store(false)
			if !sleepCtx(faultCtx, third) {
				return
			}
			full.Store(true)
			tgt.Annotate("disk-full: r1's disk is out of space")
			for elapsed := time.Duration(0); elapsed < third; elapsed += 5 * time.Millisecond {
				if anyDegraded() {
					sawDegraded.Store(true)
					if !probed.Load() {
						if out, err := tgt.Submit(ctx, 1, loadgen.Op{Kind: "deposit", Key: "probe", Arg: 1}); err == nil {
							probe = out
							probed.Store(true)
						}
					}
				}
				if !sleepCtx(faultCtx, 5*time.Millisecond) {
					return
				}
			}
			tgt.Annotate("disk-full: space freed")
		}()
		rep, err := loadgen.Run(ctx, tgt, baseSpec(cfg))
		stopFault()
		wg.Wait()
		if err != nil {
			return nil, nil, err
		}

		// The degraded replica re-probes its store on its own, and the
		// re-probe recovers it through a wipe; give it a deadline to
		// recover before demanding convergence.
		healed := Check{Name: "self-healed", Detail: "replica never recovered after space returned"}
		for deadline := time.Now().Add(20 * time.Second); ; {
			if !anyDegraded() {
				healed = Check{Name: "self-healed", OK: true,
					Detail: "degraded replica recovered without operator action"}
				break
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}

		// Every op absorbed between the disk filling and its commit
		// failing was declined retryably to its submitter — but it may
		// already have been gossiped to healthy peers, so after heal it is
		// recorded everywhere without ever being acknowledged. Declined-
		// but-recorded surplus, bounded by the retryable declines; loss is
		// never tolerated.
		degradations := ct.C.Metrics().Degraded.Value()
		checks := []Check{
			{Name: "degraded-entered", OK: sawDegraded.Load() && degradations >= 1,
				Detail: fmt.Sprintf("%d degradation(s) recorded", degradations)},
			{Name: "declines-retryable",
				OK: probed.Load() && !probe.Accepted && probe.Retryable && probe.Reason == core.ReasonDegraded,
				Detail: fmt.Sprintf("probe while degraded: accepted=%v retryable=%v reason=%q",
					probe.Accepted, probe.Retryable, probe.Reason)},
			healed,
			converge(ctx, tgt, cfg.Duration),
			checkNoLostOps(rep, tgt, 0, rep.RetryableDeclined),
			checkApologiesAttributed(tgt),
		}
		return rep, checks, nil
	},
})

// enospcFS fails every write under replica rep's store directory with
// ENOSPC while full is set — one replica's disk filling up while its
// peers stay healthy.
func enospcFS(rep string, full *atomic.Bool) faultfs.FS {
	marker := string(os.PathSeparator) + rep + string(os.PathSeparator)
	return faultfs.New(faultfs.OS, 1, func(op faultfs.Op) faultfs.Decision {
		if full.Load() && strings.Contains(op.Path, marker) {
			switch op.Kind {
			case faultfs.OpWrite, faultfs.OpWriteAt, faultfs.OpCreate, faultfs.OpSync:
				return faultfs.Decision{Err: syscall.ENOSPC}
			}
		}
		return faultfs.Decision{}
	})
}

// FrameMangler: every peer link corrupts in-flight frames — drops,
// duplicates, reorders, bit flips — for the whole traffic window, seeded
// so a failure replays. The invariants are the wire-hardening contract:
// corruption is detected (checksums reject, links degrade to
// down-with-backoff) rather than folded into state, nothing panics, and
// once the links are cleaned anti-entropy converges with no accepted op
// missing.
var FrameMangler = register(&Scenario{
	Name:  "frame-mangler",
	Desc:  "seeded frame corruption on every peer link under load, convergence after cleanup",
	Stack: StackNet,
	Keys:  256,
	run: func(ctx context.Context, cfg Config, tgt loadgen.ChaosTarget) (*loadgen.Report, []Check, error) {
		nt, ok := tgt.(*loadgen.NetTarget)
		if !ok {
			return nil, nil, fmt.Errorf("frame-mangler needs the net stack (the daemons own the peer links)")
		}
		transports := make([]*netx.Transport, tgt.Entries())
		for i := range transports {
			d := nt.Daemon(i)
			if d == nil {
				return nil, nil, fmt.Errorf("frame-mangler needs target-owned daemons to reach their transports")
			}
			transports[i] = d.PeerTransport()
		}
		for i, tr := range transports {
			tr.SetFaults(netx.Faults{
				Seed:      cfg.Seed + int64(i),
				Drop:      0.10,
				Duplicate: 0.05,
				Reorder:   0.05,
				BitFlip:   0.15,
			})
		}
		tgt.Annotate("frame-mangler: corrupting every peer link")
		spec := baseSpec(cfg)
		spec.SyncFrac = 0.15 // coordination rounds must cross the mangled links too
		rep, runErr := loadgen.Run(ctx, tgt, spec)
		// Clean the links before any verdict: convergence is owed after
		// the corruption stops, not during it.
		for _, tr := range transports {
			tr.SetFaults(netx.Faults{})
		}
		tgt.Annotate("frame-mangler: links cleaned")
		if runErr != nil {
			return nil, nil, runErr
		}
		var mangled, corrupt, reconnects int64
		for _, tr := range transports {
			corrupt += tr.CorruptFrames()
			for _, ps := range tr.PeerStats() {
				mangled += ps.FramesMangled
				reconnects += ps.Reconnects
			}
		}
		checks := []Check{
			{Name: "corruption-observed", OK: mangled > 0 && corrupt > 0,
				Detail: fmt.Sprintf("%d frames mangled, %d rejected by checksum, %d link reconnects",
					mangled, corrupt, reconnects)},
			converge(ctx, tgt, cfg.Duration),
			checkNoLostOps(rep, tgt, 0, 0),
			checkApologiesAttributed(tgt),
		}
		return rep, checks, nil
	},
})

// sleepCtx sleeps for d unless ctx ends first; it reports whether the
// full duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
