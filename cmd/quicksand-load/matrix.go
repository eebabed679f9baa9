package main

// The multi-core bench matrix the ROADMAP asks for: BENCH_live.json was
// recorded on a 1-CPU box where shards=4 showed no scaling — numbers
// that say nothing about what the sharding PR bought on real hardware.
// The matrix sweeps effective GOMAXPROCS × shard count, setting
// runtime.GOMAXPROCS per arm, so one run on a many-core machine
// produces the whole scaling grid. Each row records the GOMAXPROCS in
// effect while it ran.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/loadgen"
)

// matrixProcs picks the GOMAXPROCS sweep: powers of two up to NumCPU,
// plus NumCPU itself when it is not a power of two.
func matrixProcs() []int {
	n := runtime.NumCPU()
	var out []int
	for p := 1; p <= n; p *= 2 {
		out = append(out, p)
	}
	if len(out) == 0 || out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// runMatrix sweeps the grid against the chosen stack (default live),
// one fresh deployment per arm, closed-loop traffic for the window.
func runMatrix(ctx context.Context, stack string, window time.Duration, seed int64, jsonPath string, out io.Writer) error {
	if stack == "" {
		stack = "live"
	}
	if window > 5*time.Second {
		// -duration defaults to 30s for scenarios; a full grid at 30s per
		// arm would run for many minutes. The matrix default is per-arm.
		window = 5 * time.Second
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var rows []loadgen.Row
	for _, procs := range matrixProcs() {
		for _, shards := range []int{1, 4} {
			if err := ctx.Err(); err != nil {
				return err
			}
			runtime.GOMAXPROCS(procs)
			arm := fmt.Sprintf("procs=%d shards=%d", procs, shards)
			row, err := runMatrixArm(ctx, stack, shards, window, seed)
			if err != nil {
				return fmt.Errorf("matrix arm %s: %w", arm, err)
			}
			row.Arm = arm
			rows = append(rows, row)
			if out != nil {
				fmt.Fprintf(out, "%-28s %9.0f ops/s  p50 %6.2fms  p99 %6.2fms\n",
					arm, row.OpsPerSec, row.P50Ns/1e6, row.P99Ns/1e6)
			}
		}
	}
	runtime.GOMAXPROCS(prev)
	if jsonPath != "" {
		return loadgen.AppendRows(jsonPath, rows...)
	}
	return nil
}

// runMatrixArm measures one grid cell: fresh deployment, closed-loop
// uniform 80/20 traffic, converge, report.
func runMatrixArm(ctx context.Context, stack string, shards int, window time.Duration, seed int64) (loadgen.Row, error) {
	tgt, cleanup, err := buildStack(stack, "", 3, shards)
	if err != nil {
		return loadgen.Row{}, err
	}
	defer func() {
		tgt.Close()
		if cleanup != nil {
			cleanup()
		}
	}()
	rep, err := loadgen.Run(ctx, tgt, loadgen.Spec{
		Duration: window,
		Keys:     1024,
		Seed:     seed,
	})
	if err != nil {
		return loadgen.Row{}, err
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	converged := tgt.Converge(cctx) == nil
	row := loadgen.FromReport(rep)
	row.Scenario = "matrix"
	row.Stack = stack
	row.Seed = seed
	row.Shards = shards
	row.Replicas = 3
	row.Passed = converged
	return row, nil
}
