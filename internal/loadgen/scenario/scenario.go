// Package scenario is the chaos-experiment library: named, seeded runs
// composing the loadgen traffic driver with fault injection — hot-key
// spikes, skewed key spaces, partition storms, slow disks, rolling
// kill/recover churn — against any of the three stacks. Every scenario
// asserts its end-state invariants (convergence, no lost accepted ops,
// apologies bounded and attributed; vocabulary in docs/failure-model.md),
// so a chaos experiment is a reproducible verdict, not an anecdote.
package scenario

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/trace"
)

// Stack names a deployment flavour a scenario can run against.
const (
	StackLive    = "live"    // in-process cluster, volatile, LiveTransport
	StackDurable = "durable" // in-process cluster with disk journals
	StackNet     = "net"     // real daemons on loopback TCP + HTTP SDK
)

// Config sizes one scenario run. Zero values take the scenario's
// full-scale defaults; the test suite passes reduced scale.
type Config struct {
	Stack    string        // "", StackLive, StackDurable, StackNet
	DataDir  string        // durable root; empty = a fresh temp dir
	Duration time.Duration // traffic window
	Workers  int
	Rate     float64 // offered ops/s; 0 = closed loop
	Keys     int
	Replicas int
	Shards   int
	Seed     int64
	Out      io.Writer // per-second progress stream (nil = silent)

	// extraOpts and state are populated by a scenario's prepare hook, once
	// per run: extraOpts joins the engine options when an in-process
	// cluster target is built, and state carries the matching per-run
	// handle (the flag that arms an injected fault) into the scenario's
	// run function. Never shared across runs.
	extraOpts []core.Option
	state     any
}

func (c Config) withDefaults(s *Scenario) Config {
	if c.Stack == "" {
		c.Stack = s.Stack
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Keys <= 0 {
		c.Keys = s.Keys
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Scenario is one named chaos experiment.
type Scenario struct {
	Name  string
	Desc  string
	Stack string // default stack
	Keys  int    // default key-space size
	// NeedsDurability rejects volatile stacks (kill/recover, slow disk).
	NeedsDurability bool
	// prepare, when set, runs once per Run — after defaults, before the
	// target is built — so a scenario can thread per-run fault machinery
	// (an injected filesystem plus the flag that arms it) into the
	// cluster options and hand its run function the other end.
	prepare func(c *Config)
	// run drives the experiment against a built target and returns the
	// driver report plus the scenario's invariant checks.
	run func(ctx context.Context, cfg Config, tgt loadgen.ChaosTarget) (*loadgen.Report, []Check, error)
}

// Check is one asserted end-state invariant of a scenario run.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is one completed scenario run: the driver's measurements and
// the invariant verdicts.
type Result struct {
	Report *loadgen.Report
	Checks []Check
	Passed bool // every check held
}

// All returns every registered scenario, name-sorted.
func All() []*Scenario {
	out := make([]*Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName resolves one scenario.
func ByName(name string) (*Scenario, error) {
	if s, ok := registry[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (have: %s)", name, names())
}

var registry = map[string]*Scenario{}

func register(s *Scenario) *Scenario {
	registry[s.Name] = s
	return s
}

func names() string {
	all := All()
	out := ""
	for i, s := range all {
		if i > 0 {
			out += ", "
		}
		out += s.Name
	}
	return out
}

// Run executes the scenario at the configured scale: build the target,
// drive traffic and faults, heal, converge, check invariants.
func (s *Scenario) Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(s)
	if s.NeedsDurability && cfg.Stack != StackDurable {
		return nil, fmt.Errorf("scenario: %s needs a durable stack (got %q)", s.Name, cfg.Stack)
	}
	if s.prepare != nil {
		s.prepare(&cfg)
	}
	tgt, closeTarget, err := BuildTarget(cfg)
	if err != nil {
		return nil, err
	}
	defer closeTarget()

	// Phase markers ride the same trace stream as the op lifecycles, so
	// a dashboard (or /v1/trace) shows what the scenario was doing when
	// a lag spike or apology landed.
	tgt.Annotate(fmt.Sprintf("scenario %s: start (stack=%s seed=%d)", s.Name, cfg.Stack, cfg.Seed))
	rep, checks, err := s.run(ctx, cfg, tgt)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	tgt.Annotate(fmt.Sprintf("scenario %s: complete", s.Name))

	res := &Result{Report: rep, Checks: checks, Passed: true}
	for _, c := range checks {
		res.Passed = res.Passed && c.OK
	}
	return res, nil
}

// BuildTarget boots the stack cfg names (Stack, Replicas, Shards,
// DataDir) — the one place outside bench/ that does. A durable stack
// with no DataDir gets a fresh temp dir; the returned func closes the
// target and removes that dir.
func BuildTarget(cfg Config) (loadgen.ChaosTarget, func(), error) {
	tempDir := ""
	if cfg.Stack == StackDurable && cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "quicksand-load-*")
		if err != nil {
			return nil, nil, err
		}
		cfg.DataDir, tempDir = dir, dir
	}
	var tgt loadgen.ChaosTarget
	switch cfg.Stack {
	case StackNet:
		nt, err := loadgen.NewNetTarget(cfg.Replicas, cfg.Shards, cfg.DataDir, 10*time.Millisecond)
		if err != nil {
			return nil, nil, err
		}
		tgt = nt
	case StackLive, StackDurable:
		opts := []core.Option{
			core.WithReplicas(cfg.Replicas),
			core.WithGossipEvery(5 * time.Millisecond),
			// Scenario clusters always trace (1-in-64): phase markers and
			// lifecycle lags are the whole point of a chaos run's story.
			core.WithTracer(trace.New(trace.Options{Replicas: cfg.Replicas})),
		}
		if cfg.Shards > 1 {
			opts = append(opts, core.WithShards(cfg.Shards))
		}
		if cfg.Stack == StackDurable {
			opts = append(opts, core.WithDurability(cfg.DataDir))
		}
		tgt = loadgen.NewAccountsCluster(append(opts, cfg.extraOpts...)...)
	default:
		return nil, nil, fmt.Errorf("scenario: unknown stack %q", cfg.Stack)
	}
	return tgt, func() {
		tgt.Close()
		if tempDir != "" {
			os.RemoveAll(tempDir)
		}
	}, nil
}

// baseSpec translates the scenario config into a driver spec. Workers
// default to at least one per replica: the chaos stories need every
// entry point under load (concurrent stale guesses are the point of
// flash-sale; a storm that silences an idle replica proves nothing), so
// the scenario default covers all of them even on a small GOMAXPROCS.
func baseSpec(cfg Config) loadgen.Spec {
	workers := cfg.Workers
	if workers <= 0 && cfg.Replicas > runtime.GOMAXPROCS(0) {
		workers = cfg.Replicas
	}
	return loadgen.Spec{
		Workers:  workers,
		Rate:     cfg.Rate,
		Duration: cfg.Duration,
		Keys:     cfg.Keys,
		Seed:     cfg.Seed,
		Out:      cfg.Out,
	}
}

// converge heals everything and drives anti-entropy with a generous
// deadline scaled off the traffic window.
func converge(ctx context.Context, tgt loadgen.Target, window time.Duration) Check {
	deadline := 30 * time.Second
	if window > deadline {
		deadline = window
	}
	cctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	if err := tgt.Converge(cctx); err != nil {
		return Check{Name: "converged", Detail: err.Error()}
	}
	return Check{Name: "converged", OK: true}
}

// checkNoLostOps asserts the durability/availability contract: after
// convergence every replica's recorded-op count covers every accepted
// submission (plus the scenario's seeding ops). An accepted op that a
// replica is missing is lost work — the one thing the paper's system
// must never do. Surplus entries are tolerated only up to the number of
// failed coordinated submits and transport errors, both of which can
// legitimately record an op without reporting acceptance (a sync round
// that partially admitted; a submit whose ack the driver never saw),
// plus whatever extra the scenario's fault model justifies — a hard
// kill can journal an in-flight op and destroy its acknowledgment, so
// kill/recover scenarios pass kills × in-flight-per-kill as extra.
func checkNoLostOps(rep *loadgen.Report, tgt loadgen.Target, seeded, extraSurplus int64) Check {
	counts := tgt.OpCounts()
	if counts == nil {
		return Check{Name: "no-lost-ops", OK: true, Detail: "op counts unobservable on this stack"}
	}
	expected := rep.Accepted + seeded
	allowedSurplus := rep.SyncDeclined + rep.Errors + extraSurplus
	for i, n := range counts {
		if int64(n) < expected {
			return Check{Name: "no-lost-ops",
				Detail: fmt.Sprintf("entry %d holds %d ops, %d accepted: %d lost", i, n, expected, expected-int64(n))}
		}
		if surplus := int64(n) - expected; surplus > allowedSurplus {
			return Check{Name: "no-lost-ops",
				Detail: fmt.Sprintf("entry %d holds %d ops, %d accepted: surplus %d exceeds allowance %d", i, n, expected, surplus, allowedSurplus)}
		}
	}
	return Check{Name: "no-lost-ops", OK: true,
		Detail: fmt.Sprintf("%d accepted ops present at all %d entries", expected, len(counts))}
}

// checkApologiesAttributed asserts every apology names its rule and the
// key it concerns — an apology nobody can act on is not an apology
// (§5.7: "the apology must identify the work").
func checkApologiesAttributed(tgt loadgen.Target) Check {
	for _, a := range tgt.ApologyList() {
		if a.Rule == "" || a.Key == "" {
			return Check{Name: "apologies-attributed",
				Detail: fmt.Sprintf("apology %s lacks attribution (rule=%q key=%q)", a.ID, a.Rule, a.Key)}
		}
	}
	return Check{Name: "apologies-attributed", OK: true}
}

// checkApologiesBounded asserts the deduped apology count stays at or
// under limit.
func checkApologiesBounded(tgt loadgen.Target, limit int) Check {
	n := tgt.Apologies()
	if n > limit {
		return Check{Name: "apologies-bounded",
			Detail: fmt.Sprintf("%d apologies, bound %d", n, limit)}
	}
	return Check{Name: "apologies-bounded", OK: true,
		Detail: fmt.Sprintf("%d apologies within bound %d", n, limit)}
}

// seedDeposit funds a key through the target before traffic starts (and
// returns how many ops that took, for the no-lost-ops arithmetic).
func seedDeposit(ctx context.Context, tgt loadgen.Target, key string, amount int64) (int64, error) {
	out, err := tgt.Submit(ctx, 0, loadgen.Op{Kind: "deposit", Key: key, Arg: amount})
	if err != nil {
		return 0, fmt.Errorf("seed deposit: %w", err)
	}
	if !out.Accepted {
		return 0, fmt.Errorf("seed deposit declined: %s", out.Reason)
	}
	return 1, nil
}
