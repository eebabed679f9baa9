// quicksand-load is the sustained traffic driver and chaos-scenario
// runner. It holds a configurable ops/s target (or runs closed-loop)
// against an in-process cluster — volatile or durable — or a set of
// networked daemons, streaming per-second throughput and latency while
// it runs, then asserts the run's end-state invariants: exit 1 when one
// fails. It writes no file; measurement is `go run ./bench`.
//
//	quicksand-load -list
//	quicksand-load -scenario flash-sale -duration 30s
//	quicksand-load -scenario partition-storm -stack net -duration 30s
//	quicksand-load -stack durable -rate 20000 -duration 60s -dist zipf
//	quicksand-load -stack net -addrs host1:8080,host2:8080 -duration 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/loadgen"
	"repro/internal/loadgen/scenario"
	"repro/internal/stats"
)

type options struct {
	list     bool
	scenario string
	addrs    string
	token    string
	quiet    bool
	cfg      scenario.Config // stack, data dir, duration, workers, rate, keys, replicas, shards, seed
	// Raw-mode knobs: a named scenario fixes its own mix.
	dist     string
	zipfSkew float64
	hotFrac  float64
	deposit  float64
	syncFrac float64
	batch    int
}

// newFlagSet declares every flag the command accepts, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("quicksand-load", flag.ContinueOnError)
	fs.BoolVar(&o.list, "list", false, "list named scenarios and exit")
	fs.StringVar(&o.scenario, "scenario", "", "run a named scenario (see -list)")
	fs.StringVar(&o.cfg.Stack, "stack", "", "target stack: live, durable, or net (scenario default otherwise)")
	fs.StringVar(&o.addrs, "addrs", "", "comma-separated daemon HTTP addresses (external net stack)")
	fs.StringVar(&o.token, "token", "", "API bearer token for -addrs daemons")
	fs.StringVar(&o.cfg.DataDir, "data", "", "durable data root (default: fresh temp dir)")
	fs.DurationVar(&o.cfg.Duration, "duration", 30*time.Second, "traffic window")
	fs.Float64Var(&o.cfg.Rate, "rate", 0, "offered ops/s target (0 = closed loop)")
	fs.IntVar(&o.cfg.Workers, "workers", 0, "concurrent submitters (default GOMAXPROCS)")
	fs.IntVar(&o.cfg.Keys, "keys", 0, "key-space size (scenario default, or 256)")
	fs.StringVar(&o.dist, "dist", "uniform", "key distribution: uniform, zipf, hotkey")
	fs.Float64Var(&o.zipfSkew, "zipf", 1.2, "Zipf skew parameter (with -dist zipf)")
	fs.Float64Var(&o.hotFrac, "hotfrac", 0.5, "hot-key traffic fraction (with -dist hotkey)")
	fs.Float64Var(&o.deposit, "deposit", 0.8, "deposit fraction of the op mix, in (0, 1]")
	fs.Float64Var(&o.syncFrac, "sync", 0, "fraction of ops coordinated synchronously")
	fs.IntVar(&o.batch, "batch", 0, "ops per submit request (<=1 = one at a time)")
	fs.IntVar(&o.cfg.Replicas, "replicas", 3, "replicas per shard")
	fs.IntVar(&o.cfg.Shards, "shards", 1, "shard count")
	fs.Int64Var(&o.cfg.Seed, "seed", 1, "workload seed")
	fs.BoolVar(&o.quiet, "q", false, "suppress the per-second stream")
	return fs
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Spec treats 0 as "use the default mix"; a caller who typed a number
	// must get that mix or an error, never a different one.
	if !(o.deposit > 0 && o.deposit <= 1) { // written so that NaN is refused too
		fmt.Fprintf(stderr, "invalid value %v for flag -deposit: must be in (0, 1]\n", o.deposit)
		fs.Usage()
		return 2
	}
	if !o.quiet {
		o.cfg.Out = stdout
	}

	var (
		passed bool
		err    error
	)
	switch {
	case o.list:
		for _, s := range scenario.All() {
			fmt.Fprintf(stdout, "%-16s %-8s %s\n", s.Name, s.Stack, s.Desc)
		}
		return 0
	case o.scenario != "":
		passed, err = runScenario(ctx, o, stdout, stderr)
	default:
		passed, err = runRaw(ctx, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "quicksand-load:", err)
	}
	if err != nil || !passed {
		return 1
	}
	return 0
}

// runScenario runs the named scenario and prints its row; each failed
// invariant goes to stderr.
func runScenario(ctx context.Context, o options, stdout, stderr io.Writer) (bool, error) {
	s, err := scenario.ByName(o.scenario)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "scenario %s: %s\n", s.Name, s.Desc)
	if o.cfg.Stack == "" {
		o.cfg.Stack = s.Stack
	}
	res, err := s.Run(ctx, o.cfg)
	if err != nil {
		return false, err
	}
	printReport(stdout, s.Name, o.cfg.Stack, res.Report, res.Passed)
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(stderr, "INVARIANT FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	return res.Passed, nil
}

// runRaw drives the knob-built workload (no named scenario, no fault
// schedule) against the chosen stack; its one invariant is convergence.
func runRaw(ctx context.Context, o options, stdout io.Writer) (bool, error) {
	cfg := o.cfg
	if cfg.Stack == "" {
		cfg.Stack = scenario.StackLive
	}
	spec := loadgen.Spec{
		Workers: cfg.Workers, Rate: cfg.Rate, Duration: cfg.Duration,
		Keys: cfg.Keys, Dist: loadgen.KeyDist(o.dist), ZipfSkew: o.zipfSkew,
		HotFrac: o.hotFrac, DepositFrac: o.deposit, SyncFrac: o.syncFrac,
		Batch: o.batch, Seed: cfg.Seed, Out: cfg.Out,
	}

	var tgt loadgen.Target
	if cfg.Stack == scenario.StackNet && o.addrs != "" {
		var clients []*client.Client
		var copts []client.Option
		if o.token != "" {
			copts = append(copts, client.WithToken(o.token))
		}
		for _, a := range strings.Split(o.addrs, ",") {
			clients = append(clients, client.New(strings.TrimSpace(a), copts...))
		}
		tgt = loadgen.WrapClients(clients...)
	} else {
		built, closeTarget, err := scenario.BuildTarget(cfg)
		if err != nil {
			return false, err
		}
		defer closeTarget()
		tgt = built
	}
	rep, err := loadgen.Run(ctx, tgt, spec)
	if err != nil {
		return false, err
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	cerr := tgt.Converge(cctx)
	rep.Apologies = int64(tgt.Apologies())
	if rep.Accepted > 0 {
		rep.ApologyRate = float64(rep.Apologies) / float64(rep.Accepted)
	}
	printReport(stdout, "raw", cfg.Stack, rep, cerr == nil)
	if cerr != nil {
		fmt.Fprintf(stdout, " (did NOT converge: %v)\n", cerr)
	}
	return cerr == nil, nil
}

func printReport(w io.Writer, name, stack string, r *loadgen.Report, passed bool) {
	fmt.Fprintf(w, "%s/%s: %.0f ops/s  accepted %d  declined %d (%.2f%%)  errors %d  p50 %s p99 %s p999 %s  apologies %d (rate %.2e)  passed=%v\n",
		name, stack, r.OpsPerSec, r.Accepted, r.Declined, 100*r.DeclineRate,
		r.Errors, stats.Dur(r.P50Ns), stats.Dur(r.P99Ns), stats.Dur(r.P999Ns), r.Apologies, r.ApologyRate, passed)
}
