package main

// The -live mode: wall-clock throughput of the ACID 2.0 engine on the
// goroutine transport, swept across shard counts. Unlike the experiment tables, these numbers are NOT deterministic —
// they measure this machine, not the protocol. With -json FILE every row
// is also recorded machine-readably.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	quicksand "repro"
	"repro/internal/stats"
)

// liveApp is a running sum per key: no folds beyond one Step per entry on
// the submit path, so the measurement isolates the engine and transport.
type liveApp struct{}

func (liveApp) Init() int64                         { return 0 }
func (liveApp) Step(s int64, op quicksand.Op) int64 { return s + op.Arg }

// admitAll forces every submit through admission — the rule-checked
// shape real applications have — so each op derives state under its
// shard-replica's lock and the table measures lock-domain scaling.
func admitAll() quicksand.Rule[int64] {
	return quicksand.Rule[int64]{
		Name:  "admit-all",
		Admit: func(int64, quicksand.Op) bool { return true },
	}
}

func runLiveBench(duration time.Duration, maxShards int, report *benchReport) {
	if maxShards < 1 {
		maxShards = 1
	}
	workers := runtime.NumCPU()
	fmt.Println("\nLIVE: engine throughput on the goroutine transport (wall clock, this machine, not deterministic)")
	tab := stats.NewTable(
		fmt.Sprintf("live — rule-checked submits for %v per row, %d workers, 3 replicas/shard, gossip every 1ms", duration, workers),
		"Every worker loops Submit(ctx, ...) at replica index 0 over 256 keys: unsharded, one replica mutex serializes them all; sharded, each shard's group folds and gossips only its own keys. The 1→N curve is the scaling sharding buys on this machine.",
		"arm", "accepted", "ops/sec", "allocs/op", "submit p50", "submit p99", "converged after quiesce")
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	var counts []int
	for s := 1; s < maxShards; s *= 2 {
		counts = append(counts, s)
	}
	counts = append(counts, maxShards)
	type liveArm struct {
		label string
		opts  []quicksand.Option
	}
	arms := make([]liveArm, 0, len(counts))
	for _, shards := range counts {
		arms = append(arms, liveArm{fmt.Sprintf("shards=%d", shards),
			[]quicksand.Option{quicksand.WithShards(shards)}})
	}
	for _, arm := range arms {
		c := quicksand.New[int64](liveApp{}, []quicksand.Rule[int64]{admitAll()},
			append([]quicksand.Option{quicksand.WithGossipEvery(time.Millisecond)}, arm.opts...)...)
		res := runLiveRow(tab, c, arm.label, duration, workers, keys)
		res.Table = "live"
		report.add(res)
	}
	fmt.Print(tab.String())
}

// runLiveRow drives one cluster with the standard worker loop for the
// sampling window, quiesces it, closes it, and appends its row, also
// returning the measurement for machine-readable output.
func runLiveRow(tab *stats.Table, c *quicksand.Cluster[int64], label string, duration time.Duration, workers int, keys []string) benchResult {
	var total atomic.Int64
	var wg sync.WaitGroup
	m0 := mallocs()
	stop := time.Now().Add(duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := w * 7919; time.Now().Before(stop); i++ {
				res, err := c.Submit(ctx, 0, quicksand.NewOp("op", keys[i%len(keys)], 1))
				if err == nil && res.Accepted {
					total.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	allocs := mallocs() - m0
	// Quiesce: let gossip spread the tail, then stop it.
	deadline := time.Now().Add(2 * time.Second)
	for !c.Converged() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	flush := flushTelemetry(c)
	c.Close()
	return liveRowResult(tab, c, label, duration, total.Load(), allocs, flush)
}

// flushTelemetry starts an arm's result with its flush-stall telemetry:
// how many fsyncs ran, what a single fsync cost at the median and the
// tail (every shard's fsync histogram merged), and the worst stall the
// journal writer ever took on one flush; all zeros on volatile arms.
// Must run before Close.
func flushTelemetry(c *quicksand.Cluster[int64]) benchResult {
	st := c.DurabilityStats()
	var fsync stats.LatHist
	for s := 0; s < c.Shards(); s++ {
		h, _ := c.ShardDurabilityHists(s)
		fsync.Merge(h)
	}
	return benchResult{Fsyncs: st.Fsyncs, FsyncP50Ns: fsync.P50(), FsyncP99Ns: fsync.P99(), MaxStallNs: st.MaxStallNs}
}

// liveRowResult completes one measured arm's result, started by
// flushTelemetry, and renders it into the table.
func liveRowResult(tab *stats.Table, c *quicksand.Cluster[int64], label string, duration time.Duration, accepted int64, allocs uint64, res benchResult) benchResult {
	res.Arm = label
	res.Accepted = accepted
	res.OpsPerSec = float64(accepted) / duration.Seconds()
	res.P50Ns = c.M.AsyncLat.P50()
	res.P99Ns = c.M.AsyncLat.P99()
	res.Converged = c.Converged()
	if accepted > 0 {
		res.NsPerOp = float64(duration.Nanoseconds()) / float64(accepted)
		res.AllocsPerOp = float64(allocs) / float64(accepted)
		res.FsyncsPerOp = float64(res.Fsyncs) / float64(accepted)
	}
	tab.AddRow(label, fmt.Sprint(accepted),
		fmt.Sprintf("%.0f", res.OpsPerSec),
		fmt.Sprintf("%.1f", res.AllocsPerOp),
		stats.Dur(res.P50Ns), stats.Dur(res.P99Ns),
		fmt.Sprint(res.Converged))
	return res
}

// runLiveDurableBench is the -durable arm: the same worker loop on an
// unsharded cluster, once per durability mode, against real files under
// dir. The ops/fsync column is the group-commit amortization — how many
// accepted operations shared each disk flush.
func runLiveDurableBench(duration time.Duration, dir string, report *benchReport) {
	// More workers than cores on purpose: riders must be waiting at the
	// stop for the bus to fill. Blocked submitters cost no CPU; each one
	// in flight during an fsync is an op that flush covers for free.
	workers := 4 * runtime.NumCPU()
	if workers < 8 {
		workers = 8
	}
	fmt.Println("\nLIVE DURABLE: fsync cost and group-commit amortization (wall clock, this machine)")
	tab := stats.NewTable(
		fmt.Sprintf("live durable — rule-checked submits for %v per row, %d workers, 3 replicas, gossip every 1ms, stores under %s", duration, workers, dir),
		"volatile keeps everything in RAM; group-commit fsyncs every accepted op but lets in-flight submits share flushes (§3.2's city bus, adaptive departure); the batch row ingests through SubmitBatch, where a whole batch boards one flush and one replica-lock acquisition; fsync-per-op pays one flush per op — the car-per-driver baseline group commit was invented to beat. Accepted results are never acknowledged before they are durable in any disk mode. The last three columns are the flush-stall telemetry: what one fsync cost at the median and the tail, and the worst single stall the journal writer took.",
		"mode", "accepted", "ops/sec", "allocs/op", "submit p50", "submit p99", "converged after quiesce", "fsyncs", "ops/fsync", "fsync p50", "fsync p99", "max stall")
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	modes := []struct {
		name  string
		batch int // SubmitBatch size; 0 = single-op Submit loop
		opts  []quicksand.Option
	}{
		{"volatile", 0, nil},
		{"group-commit", 0, []quicksand.Option{quicksand.WithDurability(filepath.Join(dir, "group"))}},
		{"group-commit batch=256", 256, []quicksand.Option{quicksand.WithDurability(filepath.Join(dir, "group-batch"))}},
		{"fsync-per-op", 0, []quicksand.Option{quicksand.WithDurability(filepath.Join(dir, "everyop")), quicksand.WithFsyncPerOp()}},
	}
	for _, m := range modes {
		for _, sub := range []string{"group", "group-batch", "everyop"} {
			os.RemoveAll(filepath.Join(dir, sub))
		}
		c := quicksand.New[int64](liveApp{}, []quicksand.Rule[int64]{admitAll()},
			append([]quicksand.Option{quicksand.WithGossipEvery(time.Millisecond)}, m.opts...)...)
		var res benchResult
		if m.batch > 0 {
			res = runLiveBatchRow(tab, c, m.name, duration, workers, m.batch, keys)
		} else {
			res = runLiveRow(tab, c, m.name, duration, workers, keys)
		}
		res.Table = "live-durable"
		report.add(res)
		row := &tab.Rows[len(tab.Rows)-1]
		if res.Fsyncs > 0 {
			*row = append(*row, fmt.Sprint(res.Fsyncs), fmt.Sprintf("%.1f", float64(res.Accepted)/float64(res.Fsyncs)),
				stats.Dur(res.FsyncP50Ns), stats.Dur(res.FsyncP99Ns), stats.Dur(float64(res.MaxStallNs)))
		} else {
			*row = append(*row, "0", "-", "-", "-", "-")
		}
	}
	fmt.Print(tab.String())
}

// runLiveBatchRow is runLiveRow's bulk-ingest sibling: each worker loops
// SubmitBatch over mixed-key batches instead of single-op Submits.
func runLiveBatchRow(tab *stats.Table, c *quicksand.Cluster[int64], label string, duration time.Duration, workers, batchSize int, keys []string) benchResult {
	var total atomic.Int64
	var wg sync.WaitGroup
	m0 := mallocs()
	stop := time.Now().Add(duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			batch := make([]quicksand.Op, batchSize)
			for i := w * 7919; time.Now().Before(stop); {
				for j := range batch {
					batch[j] = quicksand.NewOp("op", keys[i%len(keys)], 1)
					i++
				}
				results, err := c.SubmitBatch(ctx, 0, batch)
				if err != nil {
					return
				}
				for _, res := range results {
					if res.Accepted {
						total.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	allocs := mallocs() - m0
	deadline := time.Now().Add(2 * time.Second)
	for !c.Converged() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	flush := flushTelemetry(c)
	c.Close()
	return liveRowResult(tab, c, label, duration, total.Load(), allocs, flush)
}
