package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/faultfs"
	"repro/internal/policy"
	"repro/internal/trace"
)

const (
	gossipEvery  = 10 * time.Millisecond
	traceSample  = 64 // the rate quicksandd ships with
	convergeWait = 10 * time.Second
	// callTimeout is quicksandd's default. core.New's own default of
	// 100 ms fails a few coordinated submits per run on a saturated
	// two-core box once the heap is large, and the workloads are meant to
	// have no failing op.
	callTimeout = 500 * time.Millisecond
)

// stackCfg selects one of the product's deployment shapes. Everything
// not named here stays at the shipped default (per-op write path,
// adaptive group commit, one shard), except the engine's call timeout.
type stackCfg struct {
	daemons  bool   // quicksandd processes-in-process behind the SDK, else core.New
	replicas int    // in-process replicas, or daemons
	dataDir  string // root of the durable stores; "" = volatile
	noTracer bool   // only the trace-overhead slice turns sampling off

	// Seams the layer pass plugs into. The daemon exposes neither the
	// transport nor the FS seam, so those two apply to engine stacks only.
	wrapTransport func(core.Transport) core.Transport
	fs            faultfs.FS
	wrapRT        func(http.RoundTripper) http.RoundTripper
}

// stack is a booted deployment plus the handles the harness needs to
// check and sample it. An entry is where a worker's traffic lands: a
// replica index in-process, a daemon on the networked stack.
type stack struct {
	cfg      stackCfg
	clusters []*core.Cluster[daemon.Accounts] // one in-process; one slice per daemon
	reps     []*core.Replica[daemon.Accounts] // reps[e] is entry e's replica
	daemons  []*daemon.Daemon
	tracers  []*trace.Tracer
}

func boot(cfg stackCfg) (*stack, error) {
	if cfg.daemons {
		return bootDaemons(cfg)
	}
	s := &stack{cfg: cfg}
	opts := []core.Option{core.WithReplicas(cfg.replicas), core.WithGossipEvery(gossipEvery), core.WithCallTimeout(callTimeout)}
	if cfg.dataDir != "" {
		opts = append(opts, core.WithDurability(cfg.dataDir))
		if cfg.fs != nil {
			opts = append(opts, core.WithStoreFS(cfg.fs))
		}
	}
	if cfg.wrapTransport != nil {
		opts = append(opts, core.WithTransport(cfg.wrapTransport(core.NewLiveTransport())))
	}
	if !cfg.noTracer {
		t := trace.New(trace.Options{SampleEvery: traceSample, Replicas: cfg.replicas})
		s.tracers = append(s.tracers, t)
		opts = append(opts, core.WithTracer(t))
	}
	c := core.New[daemon.Accounts](daemon.AccountsApp{}, []core.Rule[daemon.Accounts]{daemon.NoOverdraft()}, opts...)
	s.clusters = append(s.clusters, c)
	for i := 0; i < cfg.replicas; i++ {
		s.reps = append(s.reps, c.Replica(i))
	}
	return s, nil
}

func bootDaemons(cfg stackCfg) (*stack, error) {
	s := &stack{cfg: cfg}
	addrs, err := freePorts(cfg.replicas)
	if err != nil {
		return nil, err
	}
	peers := make(map[int]string, len(addrs))
	for i, a := range addrs {
		peers[i] = a
	}
	for i := range addrs {
		dc := daemon.Config{
			Node:        i,
			Replicas:    cfg.replicas,
			HTTPListen:  "127.0.0.1:0",
			PeerListen:  addrs[i],
			Peers:       peers,
			GossipEvery: gossipEvery,
		}
		if cfg.dataDir != "" {
			dc.DataDir = filepath.Join(cfg.dataDir, fmt.Sprintf("node%d", i))
		}
		if cfg.noTracer {
			dc.TraceSample = -1
		}
		d, err := daemon.New(dc)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("boot daemon %d: %w", i, err)
		}
		s.daemons = append(s.daemons, d)
		s.clusters = append(s.clusters, d.Cluster())
		s.reps = append(s.reps, d.Cluster().Replica(i))
		if t := d.Cluster().Tracer(); t != nil {
			s.tracers = append(s.tracers, t)
		}
	}
	return s, nil
}

// freePorts reserves n loopback addresses: daemons must know each
// other's peer address before any of them binds.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func (s *stack) entries() int { return len(s.reps) }

func (s *stack) close() error {
	var errs []error
	for _, d := range s.daemons { // a daemon closes its own cluster
		errs = append(errs, d.Close())
	}
	if len(s.daemons) == 0 {
		for _, c := range s.clusters {
			errs = append(errs, c.Close())
		}
	}
	return errors.Join(errs...)
}

// caller is one worker's handle on the stack: its entry point and, on
// the networked stack, its own SDK client holding one keep-alive
// connection.
type caller struct {
	s     *stack
	entry int
	cl    *client.Client
	tr    *http.Transport // the client's connection pool
}

func (s *stack) caller(entry int) *caller {
	c := &caller{s: s, entry: entry}
	if len(s.daemons) > 0 {
		// The SDK's default transport settings, but a pool of the worker's own.
		c.tr = http.DefaultTransport.(*http.Transport).Clone()
		var rt http.RoundTripper = c.tr
		if s.cfg.wrapRT != nil {
			rt = s.cfg.wrapRT(rt)
		}
		c.cl = client.New("http://"+s.daemons[entry].HTTPAddr(),
			client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 10 * time.Second}))
	}
	return c
}

func (c *caller) close() {
	if c.tr != nil {
		c.tr.CloseIdleConnections()
	}
}

type outcome uint8

const (
	accepted outcome = iota
	declined         // a business rule said no: a correct answer
	failed           // transport error, timeout, shed load, retryable decline
)

var syncOpts = []core.SubmitOption{core.WithPolicy(policy.AlwaysSync())}

// classify maps a reply onto the harness's three outcomes. Only a rule's
// refusal ("declined by rule …", "declined by a remote replica") is
// business; a coordination timeout or a degraded shard is a failure.
func classify(ok, retryable bool, reason string, err error) outcome {
	switch {
	case err != nil:
		return failed
	case ok:
		return accepted
	case !retryable && strings.HasPrefix(reason, "declined by"):
		return declined
	}
	return failed
}

func (c *caller) submit(ctx context.Context, kind, key string, amt int64, sync bool) outcome {
	if c.cl != nil {
		res, err := c.cl.Submit(ctx, client.Op{Kind: kind, Key: key, Arg: amt}, sync)
		return classify(res.Accepted, res.Retryable, res.Reason, err)
	}
	var opts []core.SubmitOption
	if sync {
		opts = syncOpts
	}
	res, err := c.s.clusters[0].Submit(ctx, c.entry, core.NewOp(kind, key, amt), opts...)
	return classify(res.Accepted, res.Retryable, res.Reason, err)
}

// readBatch is how many State() calls make one in-process read op. The
// call is an atomic load of the published fold, some 0.1 µs, which one
// pair of clock readings cannot resolve; a batch timed as one can.
const readBatch = 256

// callsPerOp is how many product calls one timed op of class c makes.
func (s *stack) callsPerOp(c class) float64 {
	if c == classRead && len(s.daemons) == 0 {
		return readBatch
	}
	return 1
}

// read fetches the entry's whole derived state and checks that every
// funded account is in it.
func (c *caller) read(ctx context.Context) outcome {
	n := 0
	if c.cl != nil {
		st, err := c.cl.State(ctx)
		if err != nil {
			return failed
		}
		n = len(st.Keys)
	} else {
		rep := c.s.reps[c.entry]
		for i := 0; i < readBatch; i++ {
			n = len(rep.State())
		}
	}
	if n != accounts {
		return failed
	}
	return accepted
}

// funders is how many callers fund the accounts at once. With one, a
// durable stack's set-up is 1024 waits for the disk and nothing else; with
// several, group commit takes a few deposits per fsync and set-up time is
// mostly the product's own work.
const funders = 8

// setUp funds every account through the stack's own submit path and
// waits until every replica knows every deposit.
func (s *stack) setUp(ctx context.Context) error {
	errs := make(chan error, funders)
	for f := 0; f < funders; f++ {
		go func() {
			c := s.caller(f % s.entries())
			defer c.close()
			for k := f; k < accounts; k += funders {
				if c.submit(ctx, "deposit", keyNames[k], prefund, false) != accepted {
					errs <- fmt.Errorf("set-up: funding %s failed", keyNames[k])
					return
				}
			}
			errs <- nil
		}()
	}
	var failed error
	for range funders {
		failed = errors.Join(failed, <-errs)
	}
	if failed != nil {
		return failed
	}
	_, err := s.converge(convergeWait)
	return err
}

// converged reports whether every replica holds the same operations.
// Replicas in different daemons cannot compare sets by reference, so the
// networked stack compares op counts and then derived state.
func (s *stack) converged() bool {
	if len(s.daemons) == 0 {
		return s.clusters[0].Converged()
	}
	for _, r := range s.reps[1:] {
		if r.OpCount() != s.reps[0].OpCount() {
			return false
		}
	}
	return s.statesEqual()
}

func (s *stack) statesEqual() bool {
	first := s.reps[0].State()
	for _, r := range s.reps[1:] {
		if !maps.Equal(first, r.State()) {
			return false
		}
	}
	return true
}

// converge waits on the background gossip schedule alone (the harness
// never nudges), and reports how long agreement took.
func (s *stack) converge(limit time.Duration) (time.Duration, error) {
	start := time.Now()
	for !s.converged() {
		if time.Since(start) > limit {
			return limit, fmt.Errorf("no convergence within %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), nil
}

// crashAndRecover hard-kills entry e (RAM gone, unflushed writes lost)
// and restarts it from its durable store alone, reporting the restart time.
func (s *stack) crashAndRecover(ctx context.Context, e int) (time.Duration, error) {
	c := s.clusters[0]
	if len(s.daemons) > 0 {
		c = s.clusters[e]
	}
	c.Kill(e)
	start := time.Now()
	err := c.Recover(ctx, e)
	return time.Since(start), err
}
