// Command quicksand-sim runs one of the paper's systems with parameters
// from the command line, for interactive exploration beyond the canned
// experiment suite.
//
// Scenarios:
//
//	quicksand-sim -scenario tandem  -mode dp2 -txns 500 -writes 4 -crashevery 25
//	quicksand-sim -scenario logship -wan 20ms -ship 100ms -commits 500 [-sync]
//	quicksand-sim -scenario bank    -replicas 3 -gossip 50ms -checks 400 -threshold 1000000
//	quicksand-sim -scenario cart    -sessions 8 -adds 6 [-churn] [-statemerge]
//
// Every run is deterministic for a given -seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	quicksand "repro"
	"repro/internal/bank"
	"repro/internal/cart"
	"repro/internal/dynamo"
	"repro/internal/logship"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tandem"
	"repro/internal/workload"
)

type options struct {
	scenario string
	seed     int64

	// tandem
	mode       string
	txns       int
	writes     int
	crashEvery int

	// logship
	wan     time.Duration
	ship    time.Duration
	commits int
	syncRep bool

	// bank
	replicas  int
	gossip    time.Duration
	checks    int
	accounts  int
	opening   int64
	fee       int64
	threshold int64

	// cart
	sessions   int
	adds       int
	churn      bool
	statemerge bool
}

// newFlagSet declares every flag the command accepts, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("quicksand-sim", flag.ContinueOnError)
	fs.StringVar(&o.scenario, "scenario", "", "tandem | logship | bank | cart")
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed")

	fs.StringVar(&o.mode, "mode", "dp2", "dp1 | dp2")
	fs.IntVar(&o.txns, "txns", 500, "transactions to run")
	fs.IntVar(&o.writes, "writes", 4, "writes per transaction")
	fs.IntVar(&o.crashEvery, "crashevery", 0, "crash a primary every N txns (0 = never)")

	fs.DurationVar(&o.wan, "wan", 20*time.Millisecond, "one-way WAN latency")
	fs.DurationVar(&o.ship, "ship", 100*time.Millisecond, "log shipping interval")
	fs.IntVar(&o.commits, "commits", 500, "commits to run")
	fs.BoolVar(&o.syncRep, "sync", false, "synchronous (transparent) replication")

	fs.IntVar(&o.replicas, "replicas", 3, "bank replicas")
	fs.DurationVar(&o.gossip, "gossip", 50*time.Millisecond, "gossip interval")
	fs.IntVar(&o.checks, "checks", 400, "checks to clear")
	fs.IntVar(&o.accounts, "accounts", 20, "accounts")
	fs.Int64Var(&o.opening, "opening", 100_00, "opening balance per account, cents")
	fs.Int64Var(&o.fee, "fee", 30_00, "overdraft fee, cents")
	fs.Int64Var(&o.threshold, "threshold", math.MaxInt64, "sync-coordination threshold, cents (default: never)")

	fs.IntVar(&o.sessions, "sessions", 8, "concurrent shopping sessions")
	fs.IntVar(&o.adds, "adds", 6, "adds per session")
	fs.BoolVar(&o.churn, "churn", false, "bounce storage nodes mid-run")
	fs.BoolVar(&o.statemerge, "statemerge", false, "use the §6.4 state-merge strawman")
	return fs
}

// errUsage reports a usage error whose explanation is already printed.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if !errors.Is(err, errUsage) && !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "quicksand-sim:", err)
		}
		os.Exit(2)
	}
}

// run parses args and writes the chosen scenario's report to w.
func run(w io.Writer, args []string) error {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch o.scenario {
	case "tandem":
		runTandem(w, &o)
	case "logship":
		runLogship(w, &o)
	case "bank":
		return runBank(w, &o)
	case "cart":
		runCart(w, &o)
	default:
		fmt.Fprintln(fs.Output(), "usage: quicksand-sim -scenario tandem|logship|bank|cart [flags]")
		fs.PrintDefaults()
		return errUsage
	}
	return nil
}

func runTandem(w io.Writer, o *options) {
	m := tandem.DP2
	if o.mode == "dp1" {
		m = tandem.DP1
	}
	s := sim.New(o.seed)
	sys := tandem.New(s, tandem.Config{Mode: m, NumDP: 4})
	committed := 0
	var launch func(i int)
	launch = func(i int) {
		if i == o.txns {
			return
		}
		t := sys.Begin()
		var step func(j int)
		step = func(j int) {
			if j == o.writes {
				t.Commit(func(ok bool) {
					if ok {
						committed++
					}
					launch(i + 1)
				})
				return
			}
			t.Write(fmt.Sprintf("k-%d-%d", i, j), "v", func(ok bool) {
				if !ok {
					t.Abort()
					launch(i + 1)
					return
				}
				step(j + 1)
			})
		}
		step(0)
		if o.crashEvery > 0 && i%o.crashEvery == o.crashEvery/2 {
			pair := (i / o.crashEvery) % 4
			s.After(0, func() { sys.CrashPrimary(pair) })
			s.After(30*time.Millisecond, func() { sys.RestartBackup(pair) })
		}
	}
	launch(0)
	s.Run()
	fmt.Fprintf(w, "tandem %s: %d/%d committed in %v virtual time\n", m, committed, o.txns, s.Now())
	fmt.Fprintf(w, "  write p50/p99: %v / %v\n", sys.M.WriteLat.QuantileDur(0.5), sys.M.WriteLat.QuantileDur(0.99))
	fmt.Fprintf(w, "  txn mean: %v   commits/virtual-sec: %.0f\n",
		sys.M.TxnLat.MeanDur(), float64(committed)/s.Now().Seconds())
	fmt.Fprintf(w, "  checkpoints: %d total, %d per-write   failover aborts: %d\n",
		sys.M.CheckpointMsgs.Value(), sys.M.WriteCkptMsgs.Value(), sys.M.FailoverAborts.Value())
}

func runLogship(w io.Writer, o *options) {
	s := sim.New(o.seed)
	sys := logship.New(s, logship.Config{Sync: o.syncRep, WANLatency: o.wan, ShipInterval: o.ship})
	acked := 0
	workload.PoissonLoop(s, 2*time.Millisecond, o.commits, func(i int) {
		sys.Commit(fmt.Sprintf("k%06d", i), "v", func(ok bool) {
			if ok {
				acked++
			}
		})
	})
	s.Run()
	fmt.Fprintf(w, "logship (sync=%v wan=%v ship=%v): %d/%d acked\n", o.syncRep, o.wan, o.ship, acked, o.commits)
	fmt.Fprintf(w, "  commit p50/p99: %s / %s\n",
		stats.Dur(sys.M.CommitLat.P50()), stats.Dur(sys.M.CommitLat.P99()))
	fmt.Fprintf(w, "  backup lag at quiesce: %d txns\n", sys.BackupLagTxns())
	fmt.Fprintln(w, "  (crash the primary mid-run via the logship package API to see the loss window — experiment E4)")
}

func runBank(w io.Writer, o *options) error {
	if o.replicas < 1 {
		return errors.New("bank: -replicas must be at least 1")
	}
	s := sim.New(o.seed)
	b := bank.New(o.fee, quicksand.WithTransport(quicksand.NewSimTransport(s)), quicksand.WithReplicas(o.replicas))
	for a := 0; a < o.accounts; a++ {
		b.Deposit(0, fmt.Sprintf("acct-%04d", a), o.opening, nil)
	}
	s.Run()
	for i := 0; i < o.replicas+2; i++ {
		b.C.GossipRound()
		s.Run()
	}
	r := s.Rand()
	keys := workload.UniformKeys(r, "acct", o.accounts)
	amounts := workload.LogNormalCents(r, math.Log(float64(o.opening)/3), 0.8)
	pol := policy.Threshold(o.threshold)
	cleared, declined := 0, 0
	stop := b.C.StartGossip(o.gossip)
	horizon := workload.PoissonLoop(s, 5*time.Millisecond, o.checks, func(i int) {
		b.ClearCheck(i%o.replicas, keys(), i+1000, amounts(), pol, func(res quicksand.Result) {
			if res.Accepted {
				cleared++
			} else {
				declined++
			}
		})
	})
	s.RunUntil(horizon + time.Second)
	stop()
	s.Run()
	for i := 0; i < o.replicas+2 && !b.C.Converged(); i++ {
		b.C.GossipRound()
		s.Run()
	}
	fmt.Fprintf(w, "bank (%d replicas, gossip %v, sync threshold %d¢):\n", o.replicas, o.gossip, o.threshold)
	fmt.Fprintf(w, "  cleared %d, declined %d, bounce fees %d (%s of cleared)\n",
		cleared, declined, b.Bounced.Value(), stats.Pct(stats.Ratio(b.Bounced.Value(), int64(cleared))))
	fmt.Fprintf(w, "  converged: %v   %s\n", b.C.Converged(), b.C.Apologies)
	return nil
}

func runCart(w io.Writer, o *options) {
	s := sim.New(o.seed)
	cl := dynamo.New(s, dynamo.Config{Nodes: 5, N: 3, R: 2, W: 2})
	type shopper interface {
		Add(sku string, qty int64, done func(bool))
		Contents(done func([]cart.Item, bool))
	}
	ackedAdds := 0
	for i := 0; i < o.sessions; i++ {
		i := i
		var ss shopper
		if o.statemerge {
			ss = cart.NewStateMergeSession(cl, "cart", fmt.Sprintf("shopper-%d", i))
		} else {
			ss = cart.NewSession(cl, "cart", fmt.Sprintf("shopper-%d", i))
		}
		workload.PoissonLoop(s, 3*time.Millisecond, o.adds, func(step int) {
			ss.Add(fmt.Sprintf("sku-%d-%d", i, step), 1, func(ok bool) {
				if ok {
					ackedAdds++
				}
			})
		})
	}
	if o.churn {
		s.At(10*time.Millisecond, func() { cl.SetUp("n1", false) })
		s.At(30*time.Millisecond, func() { cl.SetUp("n1", true) })
	}
	s.Run()
	for i := 0; i < 4; i++ {
		cl.AntiEntropyRound()
		s.Run()
	}
	var reader shopper
	if o.statemerge {
		reader = cart.NewStateMergeSession(cl, "cart", "auditor")
	} else {
		reader = cart.NewSession(cl, "cart", "auditor")
	}
	var final []cart.Item
	reader.Contents(func(items []cart.Item, ok bool) { final = items })
	s.Run()
	design := "operation-centric"
	if o.statemerge {
		design = "state-merge strawman"
	}
	fmt.Fprintf(w, "cart (%s, %d sessions × %d adds, churn=%v):\n", design, o.sessions, o.adds, o.churn)
	fmt.Fprintf(w, "  acked adds: %d   items in final cart: %d   lost: %d\n",
		ackedAdds, len(final), ackedAdds-len(final))
	m := &cl.M
	fmt.Fprintf(w, "  store: %d sibling GETs, %d read repairs, %d hinted writes\n",
		m.SiblingGets.Value(), m.ReadRepairs.Value(), m.HintedWrites.Value())
}
