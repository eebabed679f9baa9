// Package daemon hosts a slice of a quicksand cluster behind a
// versioned HTTP API. One daemon process runs replica index Node of
// every shard; its peers run the other indices, reached over the netx
// TCP transport. The application is fixed (Accounts + NoOverdraft — the
// paper's running example), so any two daemons with the same config fold
// identically.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/netx"
	"repro/internal/trace"
)

// Daemon is one running quicksandd process: transport + cluster slice +
// HTTP front end. Build with New (which binds both listeners), stop with
// Close (which drains before it returns).
type Daemon struct {
	cfg      Config
	tr       *netx.Transport
	cluster  *core.Cluster[Accounts]
	tracer   *trace.Tracer // nil when tracing is disabled
	httpLn   net.Listener
	srv      *http.Server
	debugLn  net.Listener // pprof listener, nil unless DebugAddr set
	debugSrv *http.Server
	started  time.Time
	// backlog reads the local replicas' ingest-ring depth against its
	// nominal capacity — the load-shedding signal. A field so tests can
	// present a saturated ring without racing a thousand callers into it.
	backlog func() (depth, capacity int)
}

// New wires a daemon up and starts serving: the peer TCP listener, the
// replica slice (recovering any durable state in cfg.DataDir), the
// gossip schedule, and the HTTP API.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	peers := make(map[string]string)
	for i, addr := range cfg.Peers {
		if i == cfg.Node {
			continue
		}
		for s := 0; s < cfg.Shards; s++ {
			peers[core.NodeID(cfg.Shards, s, i)] = addr
		}
	}
	tr, err := netx.New(netx.Config{
		Listen: cfg.PeerListen,
		Peers:  peers,
		Token:  cfg.PeerToken,
		Logf:   cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	opts := []core.Option{
		core.WithTransport(tr),
		core.WithReplicas(cfg.Replicas),
		core.WithLocalReplicas(cfg.Node),
		core.WithCallTimeout(cfg.CallTimeout),
		core.WithGossipEvery(cfg.GossipEvery),
	}
	if cfg.Shards > 1 {
		opts = append(opts, core.WithShards(cfg.Shards))
	}
	if cfg.DataDir != "" {
		opts = append(opts, core.WithDurability(cfg.DataDir))
		if cfg.storeFS != nil {
			opts = append(opts, core.WithStoreFS(cfg.storeFS))
		}
	}
	var tracer *trace.Tracer
	if cfg.TraceSample > 0 {
		tracer = trace.New(trace.Options{
			SampleEvery: cfg.TraceSample,
			Replicas:    cfg.Replicas,
		})
		opts = append(opts, core.WithTracer(tracer))
	}
	cluster := core.New[Accounts](AccountsApp{}, []core.Rule[Accounts]{NoOverdraft()}, opts...)
	d := &Daemon{
		cfg:     cfg,
		tr:      tr,
		cluster: cluster,
		tracer:  tracer,
		started: time.Now(),
		backlog: func() (int, int) { return cluster.IngestBacklog(cfg.Node) },
	}
	ln, err := net.Listen("tcp", cfg.HTTPListen)
	if err != nil {
		cluster.Close()
		tr.Close()
		return nil, fmt.Errorf("daemon: http listen %s: %w", cfg.HTTPListen, err)
	}
	d.httpLn = ln
	d.srv = &http.Server{
		Handler:           d.routes(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go d.srv.Serve(ln)
	if cfg.DebugAddr != "" {
		if err := d.startDebug(cfg.DebugAddr); err != nil {
			d.Close()
			return nil, err
		}
	}
	cfg.logf("quicksandd: node %d serving http on %s, peers on %s", cfg.Node, d.HTTPAddr(), d.PeerAddr())
	return d, nil
}

// startDebug binds the opt-in pprof listener. The handlers are mounted
// on a private mux — never the default one, and never the public API
// server — so profiling is reachable only on this address.
func (d *Daemon) startDebug(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("daemon: debug listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.debugLn = ln
	d.debugSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go d.debugSrv.Serve(ln)
	d.cfg.logf("quicksandd: pprof on %s (keep this address private)", ln.Addr())
	return nil
}

// DebugAddr is the bound pprof address ("" when the debug listener is
// off).
func (d *Daemon) DebugAddr() string {
	if d.debugLn == nil {
		return ""
	}
	return d.debugLn.Addr().String()
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// HTTPAddr is the bound client-facing address (useful with ":0").
func (d *Daemon) HTTPAddr() string { return d.httpLn.Addr().String() }

// PeerAddr is the bound replica-traffic address.
func (d *Daemon) PeerAddr() string { return d.tr.Addr() }

// Cluster exposes the hosted cluster slice (tests and the -net bench).
func (d *Daemon) Cluster() *core.Cluster[Accounts] { return d.cluster }

// PeerTransport exposes the replica-traffic transport — chaos tooling
// reaches through it to inject frame faults on this daemon's links.
func (d *Daemon) PeerTransport() *netx.Transport { return d.tr }

// Close shuts the daemon down in drain order: stop accepting HTTP work,
// then close the cluster — which stops scheduling gossip, drains the
// ingest ring and flushes + fsyncs every journal — and finally tear the
// peer transport down. The returned error aggregates anything that
// refused to close cleanly (a store flush failure here means durable
// state may be behind acknowledged writes — worth a loud exit status).
func (d *Daemon) Close() error {
	var errs []error
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(shutdownCtx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if d.debugSrv != nil {
		if err := d.debugSrv.Shutdown(shutdownCtx); err != nil {
			errs = append(errs, fmt.Errorf("debug shutdown: %w", err))
		}
	}
	if err := d.cluster.Close(); err != nil {
		errs = append(errs, fmt.Errorf("cluster close: %w", err))
	}
	if err := d.tr.Close(); err != nil {
		errs = append(errs, fmt.Errorf("transport close: %w", err))
	}
	return errors.Join(errs...)
}
