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
	"flag"
	"fmt"
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

var (
	scenario = flag.String("scenario", "", "tandem | logship | bank | cart")
	seed     = flag.Int64("seed", 1, "deterministic seed")

	// tandem
	mode       = flag.String("mode", "dp2", "dp1 | dp2")
	txns       = flag.Int("txns", 500, "transactions to run")
	writes     = flag.Int("writes", 4, "writes per transaction")
	crashEvery = flag.Int("crashevery", 0, "crash a primary every N txns (0 = never)")

	// logship
	wan     = flag.Duration("wan", 20*time.Millisecond, "one-way WAN latency")
	ship    = flag.Duration("ship", 100*time.Millisecond, "log shipping interval")
	commits = flag.Int("commits", 500, "commits to run")
	syncRep = flag.Bool("sync", false, "synchronous (transparent) replication")

	// bank
	replicas  = flag.Int("replicas", 3, "bank replicas")
	gossip    = flag.Duration("gossip", 50*time.Millisecond, "gossip interval")
	checks    = flag.Int("checks", 400, "checks to clear")
	accounts  = flag.Int("accounts", 20, "accounts")
	opening   = flag.Int64("opening", 100_00, "opening balance per account, cents")
	fee       = flag.Int64("fee", 30_00, "overdraft fee, cents")
	threshold = flag.Int64("threshold", math.MaxInt64, "sync-coordination threshold, cents (default: never)")

	// cart
	sessions   = flag.Int("sessions", 8, "concurrent shopping sessions")
	adds       = flag.Int("adds", 6, "adds per session")
	churn      = flag.Bool("churn", false, "bounce storage nodes mid-run")
	statemerge = flag.Bool("statemerge", false, "use the §6.4 state-merge strawman")
)

func main() {
	flag.Parse()
	switch *scenario {
	case "tandem":
		runTandem()
	case "logship":
		runLogship()
	case "bank":
		runBank()
	case "cart":
		runCart()
	default:
		fmt.Fprintln(os.Stderr, "usage: quicksand-sim -scenario tandem|logship|bank|cart [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
}

func runTandem() {
	m := tandem.DP2
	if *mode == "dp1" {
		m = tandem.DP1
	}
	s := sim.New(*seed)
	sys := tandem.New(s, tandem.Config{Mode: m, NumDP: 4})
	committed := 0
	var launch func(i int)
	launch = func(i int) {
		if i == *txns {
			return
		}
		t := sys.Begin()
		var step func(w int)
		step = func(w int) {
			if w == *writes {
				t.Commit(func(ok bool) {
					if ok {
						committed++
					}
					launch(i + 1)
				})
				return
			}
			t.Write(fmt.Sprintf("k-%d-%d", i, w), "v", func(ok bool) {
				if !ok {
					t.Abort()
					launch(i + 1)
					return
				}
				step(w + 1)
			})
		}
		step(0)
		if *crashEvery > 0 && i%*crashEvery == *crashEvery/2 {
			pair := (i / *crashEvery) % 4
			s.After(0, func() { sys.CrashPrimary(pair) })
			s.After(30*time.Millisecond, func() { sys.RestartBackup(pair) })
		}
	}
	launch(0)
	s.Run()
	fmt.Printf("tandem %s: %d/%d committed in %v virtual time\n", m, committed, *txns, s.Now())
	fmt.Printf("  write p50/p99: %v / %v\n", sys.M.WriteLat.QuantileDur(0.5), sys.M.WriteLat.QuantileDur(0.99))
	fmt.Printf("  txn mean: %v   commits/virtual-sec: %.0f\n",
		sys.M.TxnLat.MeanDur(), float64(committed)/s.Now().Seconds())
	fmt.Printf("  checkpoints: %d total, %d per-write   failover aborts: %d\n",
		sys.M.CheckpointMsgs.Value(), sys.M.WriteCkptMsgs.Value(), sys.M.FailoverAborts.Value())
}

func runLogship() {
	s := sim.New(*seed)
	sys := logship.New(s, logship.Config{Sync: *syncRep, WANLatency: *wan, ShipInterval: *ship})
	acked := 0
	workload.PoissonLoop(s, 2*time.Millisecond, *commits, func(i int) {
		sys.Commit(fmt.Sprintf("k%06d", i), "v", func(ok bool) {
			if ok {
				acked++
			}
		})
	})
	s.Run()
	fmt.Printf("logship (sync=%v wan=%v ship=%v): %d/%d acked\n", *syncRep, *wan, *ship, acked, *commits)
	fmt.Printf("  commit p50/p99: %s / %s\n",
		stats.Dur(sys.M.CommitLat.P50()), stats.Dur(sys.M.CommitLat.P99()))
	fmt.Printf("  backup lag at quiesce: %d txns\n", sys.BackupLagTxns())
	fmt.Println("  (crash the primary mid-run via the logship package API to see the loss window — experiment E4)")
}

func runBank() {
	if *replicas < 1 {
		fmt.Fprintln(os.Stderr, "bank: -replicas must be at least 1")
		os.Exit(2)
	}
	s := sim.New(*seed)
	b := bank.New(*fee, quicksand.WithTransport(quicksand.NewSimTransport(s)), quicksand.WithReplicas(*replicas))
	for a := 0; a < *accounts; a++ {
		b.Deposit(0, fmt.Sprintf("acct-%04d", a), *opening, nil)
	}
	s.Run()
	for i := 0; i < *replicas+2; i++ {
		b.C.GossipRound()
		s.Run()
	}
	r := s.Rand()
	keys := workload.UniformKeys(r, "acct", *accounts)
	amounts := workload.LogNormalCents(r, math.Log(float64(*opening)/3), 0.8)
	pol := policy.Threshold(*threshold)
	cleared, declined := 0, 0
	stop := b.C.StartGossip(*gossip)
	horizon := workload.PoissonLoop(s, 5*time.Millisecond, *checks, func(i int) {
		b.ClearCheck(i%*replicas, keys(), i+1000, amounts(), pol, func(res quicksand.Result) {
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
	for i := 0; i < *replicas+2 && !b.C.Converged(); i++ {
		b.C.GossipRound()
		s.Run()
	}
	fmt.Printf("bank (%d replicas, gossip %v, sync threshold %d¢):\n", *replicas, *gossip, *threshold)
	fmt.Printf("  cleared %d, declined %d, bounce fees %d (%s of cleared)\n",
		cleared, declined, b.Bounced.Value(), stats.Pct(stats.Ratio(b.Bounced.Value(), int64(cleared))))
	fmt.Printf("  converged: %v   %s\n", b.C.Converged(), b.C.Apologies)
}

func runCart() {
	s := sim.New(*seed)
	cl := dynamo.New(s, dynamo.Config{Nodes: 5, N: 3, R: 2, W: 2})
	type shopper interface {
		Add(sku string, qty int64, done func(bool))
		Contents(done func([]cart.Item, bool))
	}
	ackedAdds := 0
	for i := 0; i < *sessions; i++ {
		i := i
		var ss shopper
		if *statemerge {
			ss = cart.NewStateMergeSession(cl, "cart", fmt.Sprintf("shopper-%d", i))
		} else {
			ss = cart.NewSession(cl, "cart", fmt.Sprintf("shopper-%d", i))
		}
		workload.PoissonLoop(s, 3*time.Millisecond, *adds, func(step int) {
			ss.Add(fmt.Sprintf("sku-%d-%d", i, step), 1, func(ok bool) {
				if ok {
					ackedAdds++
				}
			})
		})
	}
	if *churn {
		s.At(10*time.Millisecond, func() { cl.SetUp("n1", false) })
		s.At(30*time.Millisecond, func() { cl.SetUp("n1", true) })
	}
	s.Run()
	for i := 0; i < 4; i++ {
		cl.AntiEntropyRound()
		s.Run()
	}
	var reader shopper
	if *statemerge {
		reader = cart.NewStateMergeSession(cl, "cart", "auditor")
	} else {
		reader = cart.NewSession(cl, "cart", "auditor")
	}
	var final []cart.Item
	reader.Contents(func(items []cart.Item, ok bool) { final = items })
	s.Run()
	design := "operation-centric"
	if *statemerge {
		design = "state-merge strawman"
	}
	fmt.Printf("cart (%s, %d sessions × %d adds, churn=%v):\n", design, *sessions, *adds, *churn)
	fmt.Printf("  acked adds: %d   items in final cart: %d   lost: %d\n",
		ackedAdds, len(final), ackedAdds-len(final))
	m := &cl.M
	fmt.Printf("  store: %d sibling GETs, %d read repairs, %d hinted writes\n",
		m.SiblingGets.Value(), m.ReadRepairs.Value(), m.HintedWrites.Value())
}
