package daemon

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ParseServeFlags parses the daemon flag set shared by quicksandd and
// `quicksand serve`: a -config file first, then flags of the same
// meaning overriding individual keys.
func ParseServeFlags(args []string) (Config, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "YAML config file (flat key: value; flags override)")
		node       = fs.Int("node", 0, "replica index this daemon hosts")
		replicas   = fs.Int("replicas", 2, "cluster-wide replica count per shard")
		shards     = fs.Int("shards", 1, "shard count partitioning the key space")
		httpAddr   = fs.String("http", "127.0.0.1:8080", "client-facing HTTP listen address")
		peerListen = fs.String("peer-listen", "127.0.0.1:7000", "replica-traffic TCP listen address")
		peers      = fs.String("peers", "", "peer addresses as index=host:port,... (own index ignored)")
		peerToken  = fs.String("peer-token", "", "shared secret authenticating replica connections")
		apiToken   = fs.String("api-token", "", "bearer token required on /v1 endpoints")
		dataDir    = fs.String("data", "", "durable store directory (empty = memory only)")
		gossip     = fs.Duration("gossip-every", 50*time.Millisecond, "anti-entropy interval")
		callTO     = fs.Duration("call-timeout", 500*time.Millisecond, "replica-to-replica call timeout")
		traceN     = fs.Int("trace-sample", 0, "trace 1-in-N op lifecycles (0 = default 64, negative = off)")
		debugAddr  = fs.String("debug-addr", "", "serve net/http/pprof on this private address (empty = off)")
		shed       = fs.Float64("shed-backlog", 0, "ingest-ring occupancy fraction above which submits get 429 (0 = default 0.9)")
		minFree    = fs.String("min-free-disk", "", "free-space floor on the data dir for doctor, e.g. 256M (empty = default 256M)")
	)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	if rest := fs.Args(); len(rest) != 0 {
		return Config{}, fmt.Errorf("unexpected arguments: %v", rest)
	}
	var cfg Config
	if *configPath != "" {
		var err error
		if cfg, err = ParseConfigFile(*configPath); err != nil {
			return Config{}, err
		}
	}
	// Only flags the user actually set override the file.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["node"] || *configPath == "" {
		cfg.Node = *node
	}
	if set["replicas"] || (*configPath == "" && cfg.Replicas == 0) {
		cfg.Replicas = *replicas
	}
	if set["shards"] || (*configPath == "" && cfg.Shards == 0) {
		cfg.Shards = *shards
	}
	if set["http"] || cfg.HTTPListen == "" {
		cfg.HTTPListen = *httpAddr
	}
	if set["peer-listen"] || cfg.PeerListen == "" {
		cfg.PeerListen = *peerListen
	}
	if set["peers"] {
		p, err := parsePeers(*peers)
		if err != nil {
			return Config{}, err
		}
		cfg.Peers = p
	}
	if set["peer-token"] {
		cfg.PeerToken = *peerToken
	}
	if set["api-token"] {
		cfg.APIToken = *apiToken
	}
	if set["data"] {
		cfg.DataDir = *dataDir
	}
	if set["gossip-every"] || cfg.GossipEvery == 0 {
		cfg.GossipEvery = *gossip
	}
	if set["call-timeout"] || cfg.CallTimeout == 0 {
		cfg.CallTimeout = *callTO
	}
	if set["trace-sample"] {
		cfg.TraceSample = *traceN
	}
	if set["debug-addr"] {
		cfg.DebugAddr = *debugAddr
	}
	if set["shed-backlog"] {
		cfg.ShedBacklog = *shed
	}
	if set["min-free-disk"] {
		v, err := parseSize(*minFree)
		if err != nil {
			return Config{}, err
		}
		cfg.MinFreeDisk = v
	}
	return cfg, nil
}

// Serve runs one daemon until SIGINT or SIGTERM, then drains. The
// returned error covers startup failures and unclean shutdown (a
// journal flush that could not land).
func Serve(cfg Config, logf func(format string, args ...any)) error {
	cfg.Logf = logf
	d, err := New(cfg)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	signal.Stop(sig)
	if logf != nil {
		logf("quicksandd: caught %v, draining", s)
	}
	return d.Close()
}
