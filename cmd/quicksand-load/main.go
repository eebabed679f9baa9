// quicksand-load is the sustained traffic driver and chaos-scenario
// runner. It holds a configurable ops/s target (or runs closed-loop)
// against an in-process cluster — volatile or durable — or a set of
// networked daemons, streaming per-second throughput and latency while
// it runs, and appends machine-readable result rows to
// BENCH_scenarios.json.
//
//	quicksand-load -list
//	quicksand-load -scenario flash-sale -duration 30s
//	quicksand-load -scenario partition-storm -stack net -duration 30s
//	quicksand-load -stack durable -rate 20000 -duration 60s -dist zipf
//	quicksand-load -matrix -duration 3s
//	quicksand-load -stack net -addrs host1:8080,host2:8080 -duration 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/loadgen/scenario"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list named scenarios and exit")
		scen     = flag.String("scenario", "", "run a named scenario (see -list)")
		matrix   = flag.Bool("matrix", false, "run the GOMAXPROCS × shards bench matrix")
		stack    = flag.String("stack", "", "target stack: live, durable, or net (scenario default otherwise)")
		addrs    = flag.String("addrs", "", "comma-separated daemon HTTP addresses (external net stack)")
		token    = flag.String("token", "", "API bearer token for -addrs daemons")
		dataDir  = flag.String("data", "", "durable data root (default: fresh temp dir)")
		duration = flag.Duration("duration", 30*time.Second, "traffic window")
		rate     = flag.Float64("rate", 0, "offered ops/s target (0 = closed loop)")
		workers  = flag.Int("workers", 0, "concurrent submitters (default GOMAXPROCS)")
		keys     = flag.Int("keys", 0, "key-space size (scenario default, or 256)")
		dist     = flag.String("dist", "uniform", "key distribution: uniform, zipf, hotkey")
		zipfSkew = flag.Float64("zipf", 1.2, "Zipf skew parameter (with -dist zipf)")
		hotFrac  = flag.Float64("hotfrac", 0.5, "hot-key traffic fraction (with -dist hotkey)")
		deposit  = flag.Float64("deposit", 0.8, "deposit fraction of the op mix")
		syncFrac = flag.Float64("sync", 0, "fraction of ops coordinated synchronously")
		batch    = flag.Int("batch", 0, "ops per submit request (<=1 = one at a time)")
		replicas = flag.Int("replicas", 3, "replicas per shard")
		shards   = flag.Int("shards", 1, "shard count")
		seed     = flag.Int64("seed", 1, "workload seed")
		jsonPath = flag.String("json", "BENCH_scenarios.json", "result JSON path (empty = don't write)")
		quiet    = flag.Bool("q", false, "suppress the per-second stream")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *list {
		for _, s := range scenario.All() {
			fmt.Printf("%-16s %-8s %s\n", s.Name, s.Stack, s.Desc)
		}
		return
	}

	out := os.Stdout
	if *quiet {
		out = nil
	}

	switch {
	case *matrix:
		if err := runMatrix(ctx, *stack, *duration, *seed, *jsonPath, out); err != nil {
			fatal(err)
		}
	case *scen != "":
		s, err := scenario.ByName(*scen)
		if err != nil {
			fatal(err)
		}
		cfg := scenario.Config{
			Stack:    *stack,
			DataDir:  *dataDir,
			Duration: *duration,
			Workers:  *workers,
			Rate:     *rate,
			Keys:     *keys,
			Replicas: *replicas,
			Shards:   *shards,
			Seed:     *seed,
		}
		if out != nil {
			cfg.Out = out
		}
		fmt.Printf("scenario %s: %s\n", s.Name, s.Desc)
		res, err := s.Run(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		printRow(res.Row)
		writeRows(*jsonPath, res.Row)
		if !res.Row.Passed {
			for _, c := range res.Failed() {
				fmt.Fprintf(os.Stderr, "INVARIANT FAILED %s: %s\n", c.Name, c.Detail)
			}
			os.Exit(1)
		}
	default:
		if err := runRaw(ctx, rawConfig{
			stack: *stack, addrs: *addrs, token: *token, dataDir: *dataDir,
			spec: loadgen.Spec{
				Workers: *workers, Rate: *rate, Duration: *duration,
				Keys: *keys, Dist: loadgen.KeyDist(*dist), ZipfSkew: *zipfSkew,
				HotFrac: *hotFrac, DepositFrac: *deposit, SyncFrac: *syncFrac,
				Batch: *batch, Seed: *seed,
			},
			replicas: *replicas, shards: *shards,
			jsonPath: *jsonPath, out: out,
		}); err != nil {
			fatal(err)
		}
	}
}

type rawConfig struct {
	stack    string
	addrs    string
	token    string
	dataDir  string
	spec     loadgen.Spec
	replicas int
	shards   int
	jsonPath string
	out      *os.File
}

// runRaw drives the knob-built workload (no named scenario, no fault
// schedule) against the chosen stack and reports the measurements.
func runRaw(ctx context.Context, rc rawConfig) error {
	if rc.stack == "" {
		rc.stack = scenario.StackLive
	}
	if rc.out != nil {
		rc.spec.Out = rc.out
	}
	var (
		tgt     loadgen.Target
		cleanup func()
		err     error
	)
	if rc.stack == scenario.StackNet && rc.addrs != "" {
		var clients []*client.Client
		var copts []client.Option
		if rc.token != "" {
			copts = append(copts, client.WithToken(rc.token))
		}
		for _, a := range strings.Split(rc.addrs, ",") {
			clients = append(clients, client.New(strings.TrimSpace(a), copts...))
		}
		tgt = loadgen.WrapClients(clients...)
	} else {
		tgt, cleanup, err = buildStack(rc.stack, rc.dataDir, rc.replicas, rc.shards)
		if err != nil {
			return err
		}
	}
	defer func() {
		tgt.Close()
		if cleanup != nil {
			cleanup()
		}
	}()
	rep, err := loadgen.Run(ctx, tgt, rc.spec)
	if err != nil {
		return err
	}
	cv := ""
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if cerr := tgt.Converge(cctx); cerr != nil {
		cv = " (did NOT converge: " + cerr.Error() + ")"
	}
	rep.Apologies = int64(tgt.Apologies())
	if rep.Accepted > 0 {
		rep.ApologyRate = float64(rep.Apologies) / float64(rep.Accepted)
	}
	row := loadgen.FromReport(rep)
	row.Scenario = "raw"
	row.Stack = rc.stack
	row.Seed = rc.spec.Seed
	row.Shards = rc.shards
	row.Replicas = rc.replicas
	row.Passed = cv == ""
	printRow(row)
	if cv != "" {
		fmt.Println(cv)
	}
	writeRows(rc.jsonPath, row)
	return nil
}

// buildStack realizes a self-hosted target for raw and matrix runs.
// The returned cleanup removes any temp data dir.
func buildStack(stack, dataDir string, replicas, shards int) (loadgen.Target, func(), error) {
	switch stack {
	case scenario.StackNet:
		var cleanup func()
		if dataDir == "" {
			dataDir = "" // volatile daemons
		}
		t, err := loadgen.NewNetTarget(replicas, shards, dataDir, 10*time.Millisecond)
		return t, cleanup, err
	case scenario.StackDurable:
		cleanup := func() {}
		if dataDir == "" {
			dir, err := os.MkdirTemp("", "quicksand-load-*")
			if err != nil {
				return nil, nil, err
			}
			dataDir = dir
			cleanup = func() { os.RemoveAll(dir) }
		}
		opts := clusterOpts(replicas, shards)
		opts = append(opts, core.WithDurability(dataDir))
		return loadgen.NewAccountsCluster(opts...), cleanup, nil
	case scenario.StackLive, "":
		return loadgen.NewAccountsCluster(clusterOpts(replicas, shards)...), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown stack %q", stack)
	}
}

func clusterOpts(replicas, shards int) []core.Option {
	opts := []core.Option{
		core.WithReplicas(replicas),
		core.WithGossipEvery(5 * time.Millisecond),
	}
	if shards > 1 {
		opts = append(opts, core.WithShards(shards))
	}
	return opts
}

func printRow(r loadgen.Row) {
	fmt.Printf("%s/%s: %.0f ops/s  accepted %d  declined %d (%.2f%%)  errors %d  p50 %.2fms p99 %.2fms p999 %.2fms  apologies %d (rate %.2e)  passed=%v\n",
		r.Scenario, r.Stack, r.OpsPerSec, r.Accepted, r.Declined, 100*r.DeclineRate,
		r.Errors, r.P50Ns/1e6, r.P99Ns/1e6, r.P999Ns/1e6, r.Apologies, r.ApologyRate, r.Passed)
}

func writeRows(path string, rows ...loadgen.Row) {
	if path == "" {
		return
	}
	if err := loadgen.AppendRows(path, rows...); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "quicksand-load:", err)
	os.Exit(1)
}
