package quicksand_test

// Wall-clock micro-benchmarks of the live goroutine transport for the
// surfaces no `go run ./bench` workload reaches yet: SubmitBatch ingest,
// shards > 1 (single-op and scatter-gather), and the checkpointed-fold
// vs full-refold pair. Single-op submits and the durable tier are
// measured, gated, by bench/ (engine-guess, durable-commit), not here.
// CI runs these one iteration each, under -race for the sharded pair.
//
//	go test -run '^$' -bench=Live -benchmem .

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	quicksand "repro"
)

// sumApp is the cheapest commutative application: a running sum. With no
// rules attached, submits never fold state, so the benchmark measures the
// engine and transport, not the application.
type sumApp struct{}

func (sumApp) Init() int64                         { return 0 }
func (sumApp) Step(s int64, op quicksand.Op) int64 { return s + op.Arg }

// admitAll is a rule whose Admit always passes: it forces every submit to
// derive replica state (the expensive part of admission) without
// constraining the workload — the fold benchmarks' stand-in for any
// rule-checked application.
func admitAll() quicksand.Rule[int64] {
	return quicksand.Rule[int64]{
		Name:  "admit-all",
		Admit: func(int64, quicksand.Op) bool { return true },
	}
}

// BenchmarkLiveFold10kCheckpointed pushes a 10k-op rule-checked workload
// through one replica on the live transport. Every submit
// admission-checks against derived state, so this measures what the
// checkpointed fold keeps cheap: admission advances the fold by the one
// new entry per submit, O(new entries) rather than O(ledger).
func BenchmarkLiveFold10kCheckpointed(b *testing.B) {
	const n = 10_000
	ctx := context.Background()
	var finalState int64
	var steps int64
	for i := 0; i < b.N; i++ {
		c := quicksand.New[int64](sumApp{}, []quicksand.Rule[int64]{admitAll()}, quicksand.WithReplicas(1))
		ops := make([]quicksand.Op, n)
		for j := range ops {
			ops[j] = quicksand.NewOp("add", "k", 1)
		}
		if _, err := c.SubmitBatch(ctx, 0, ops); err != nil {
			b.Fatal(err)
		}
		finalState = c.Replica(0).State()
		steps = c.Metrics().FoldSteps.Value()
		c.Close()
	}
	b.StopTimer()
	if finalState != n {
		b.Fatalf("final state = %d, want %d", finalState, n)
	}
	b.ReportMetric(float64(steps)/n, "steps/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/op-submitted")
}

// BenchmarkLiveSharded measures what sharding buys on real hardware:
// rule-checked submits of many keys, all offered at replica index 0, so
// the unsharded cluster serializes every op behind one replica mutex
// while the sharded cluster spreads the same stream across one
// independent lock/fold/gossip domain per shard. Near-linear ops/s
// scaling 1→4 shards on a multi-core box is the acceptance target.
func BenchmarkLiveSharded(b *testing.B) {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := quicksand.New[int64](sumApp{}, []quicksand.Rule[int64]{admitAll()},
				quicksand.WithShards(shards),
				quicksand.WithGossipEvery(time.Millisecond))
			defer c.Close()
			ctx := context.Background()
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each worker walks the key space from its own offset so
				// the stream spreads across shards without coordination.
				i := int(next.Add(1)) * 7919
				for pb.Next() {
					if _, err := c.Submit(ctx, 0, quicksand.NewOp("add", keys[i%len(keys)], 1)); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkLiveShardedBatch is the scatter-gather path: one mixed-key
// batch per iteration, fanned out across shards on parallel goroutines
// by the live transport's Scatterer.
func BenchmarkLiveShardedBatch(b *testing.B) {
	const batchSize = 256
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := quicksand.New[int64](sumApp{}, []quicksand.Rule[int64]{admitAll()},
				quicksand.WithShards(shards),
				quicksand.WithGossipEvery(time.Millisecond))
			defer c.Close()
			ctx := context.Background()
			batch := make([]quicksand.Op, batchSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j] = quicksand.NewOp("add", fmt.Sprintf("k%03d", j), 1)
				}
				if _, err := c.SubmitBatch(ctx, 0, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkLiveSubmitBatch measures bulk ingest through SubmitBatch —
// the throughput path: each 100-op batch is enqueued as one contiguous
// run with no per-op closure and resolved with one commit fan-out.
// Allocations per op are -benchmem's figure divided by 100.
func BenchmarkLiveSubmitBatch(b *testing.B) {
	const batchSize = 100
	b.ReportAllocs()
	c := quicksand.New[int64](sumApp{}, nil, quicksand.WithGossipEvery(time.Millisecond))
	defer c.Close()
	ctx := context.Background()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rep := int(next.Add(1)) % c.Replicas()
		batch := make([]quicksand.Op, batchSize)
		for pb.Next() {
			for i := range batch {
				batch[i] = quicksand.NewOp("add", "k", 1)
			}
			if _, err := c.SubmitBatch(ctx, rep, batch); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "ops/s")
}
