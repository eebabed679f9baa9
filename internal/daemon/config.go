package daemon

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultfs"
)

// Config is everything a quicksandd process needs to join a cluster.
// Zero values take the defaults noted per field; Validate reports
// anything incoherent before a socket is opened.
type Config struct {
	// Node is the replica index (0-based) this daemon hosts — of every
	// shard: daemon i runs replica i of each shard's group.
	Node int
	// Replicas is the cluster-wide replica count per shard (default 2).
	Replicas int
	// Shards partitions the key space (default 1).
	Shards int
	// HTTPListen is the client-facing HTTP address (default
	// 127.0.0.1:8080; ":0" picks a free port, see Daemon.HTTPAddr).
	HTTPListen string
	// PeerListen is the TCP address replica traffic arrives on (default
	// 127.0.0.1:7000; ":0" works for tests).
	PeerListen string
	// Peers maps the other daemons' replica indices to their PeerListen
	// addresses. The daemon's own index is ignored if present.
	Peers map[int]string
	// PeerToken authenticates replica connections (both directions).
	PeerToken string
	// APIToken, when set, is required as "Authorization: Bearer ..." on
	// every /v1 endpoint. /healthz and /metrics stay open.
	APIToken string
	// DataDir roots the per-replica durable stores ("" = memory only).
	DataDir string
	// GossipEvery is the anti-entropy interval (default 50ms).
	GossipEvery time.Duration
	// CallTimeout bounds replica-to-replica calls (default 500ms).
	CallTimeout time.Duration
	// SnapshotEvery sets journaled entries between durable snapshots
	// (0 = engine default).
	SnapshotEvery int
	// ShedBacklog is the ingest-ring occupancy fraction above which the
	// HTTP edge sheds submits with 429 + Retry-After instead of parking
	// more callers behind the drain (default 0.9; >= that fraction of the
	// ring's nominal capacity queued means overloaded).
	ShedBacklog float64
	// MinFreeDisk is the free-space floor (bytes) the doctor requires on
	// the data dir's filesystem (default 256 MiB). A disk below it will
	// degrade the daemon to read-only soon after start; better to fail
	// preflight. The config key accepts size suffixes: min_free_disk: 1GB.
	MinFreeDisk int64
	// TraceSample is the op-lifecycle tracing rate: trace 1-in-N ops
	// (plus every apology). 0 takes the default of 64, 1 traces every
	// op, and a negative value disables tracing entirely — the engine
	// hooks then cost a single nil check.
	TraceSample int
	// DebugAddr, when set, serves net/http/pprof on its own listener
	// (e.g. "127.0.0.1:6060"). It is never multiplexed onto HTTPListen,
	// so profiling stays off the public port; bind it to loopback.
	DebugAddr string
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	// storeFS, when set, routes every durable-store file operation
	// through this filesystem — the fault-injection seam the daemon's
	// own tests use to fill a disk on command. Not reachable from
	// configs; production daemons always run on the real filesystem.
	storeFS faultfs.FS
}

func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.HTTPListen == "" {
		c.HTTPListen = "127.0.0.1:8080"
	}
	if c.PeerListen == "" {
		c.PeerListen = "127.0.0.1:7000"
	}
	if c.GossipEvery == 0 {
		c.GossipEvery = 50 * time.Millisecond
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 500 * time.Millisecond
	}
	if c.TraceSample == 0 {
		c.TraceSample = 64
	}
	if c.ShedBacklog == 0 {
		c.ShedBacklog = 0.9
	}
	if c.MinFreeDisk == 0 {
		c.MinFreeDisk = 256 << 20
	}
	return c
}

// Validate reports the first configuration error, after defaults.
func (c Config) Validate() error {
	if c.Node < 0 || c.Node >= c.Replicas {
		return fmt.Errorf("daemon: node %d out of range for %d replicas", c.Node, c.Replicas)
	}
	if c.Shards < 1 {
		return fmt.Errorf("daemon: shards must be >= 1, got %d", c.Shards)
	}
	if c.GossipEvery < 0 {
		return fmt.Errorf("daemon: gossip_every must be positive, got %v", c.GossipEvery)
	}
	if c.ShedBacklog <= 0 || c.ShedBacklog > 1 {
		return fmt.Errorf("daemon: shed_backlog must be in (0, 1], got %v", c.ShedBacklog)
	}
	for i := range c.Replicas {
		if i == c.Node {
			continue
		}
		if c.Peers[i] == "" {
			return fmt.Errorf("daemon: no peer address for replica %d (peers: %v)", i, c.Peers)
		}
	}
	for i := range c.Peers {
		if i < 0 || i >= c.Replicas {
			return fmt.Errorf("daemon: peer index %d out of range for %d replicas", i, c.Replicas)
		}
	}
	return nil
}

// ParseConfigFile reads a flat YAML-subset config: one "key: value" per
// line, '#' comments, blank lines ignored. It covers exactly the keys a
// daemon needs — no nesting, no quoting, no anchors — so a config stays
// greppable and the parser stays auditable.
//
//	node: 0
//	replicas: 2
//	http_listen: 127.0.0.1:8080
//	peer_listen: 127.0.0.1:7000
//	peers: 0=127.0.0.1:7000,1=127.0.0.1:7001
//	peer_token: s3cret
//	data_dir: /var/lib/quicksand/n0
//	gossip_every: 50ms
func ParseConfigFile(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	cfg, err := ParseConfig(string(data))
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// ParseConfig parses the config text format (see ParseConfigFile).
func ParseConfig(text string) (Config, error) {
	var cfg Config
	for ln, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return cfg, fmt.Errorf("line %d: want \"key: value\", got %q", ln+1, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "node":
			cfg.Node, err = strconv.Atoi(val)
		case "replicas":
			cfg.Replicas, err = strconv.Atoi(val)
		case "shards":
			cfg.Shards, err = strconv.Atoi(val)
		case "http_listen":
			cfg.HTTPListen = val
		case "peer_listen":
			cfg.PeerListen = val
		case "peers":
			cfg.Peers, err = parsePeers(val)
		case "peer_token":
			cfg.PeerToken = val
		case "api_token":
			cfg.APIToken = val
		case "data_dir":
			cfg.DataDir = val
		case "gossip_every":
			cfg.GossipEvery, err = time.ParseDuration(val)
		case "call_timeout":
			cfg.CallTimeout, err = time.ParseDuration(val)
		case "snapshot_every":
			cfg.SnapshotEvery, err = strconv.Atoi(val)
		case "shed_backlog":
			cfg.ShedBacklog, err = strconv.ParseFloat(val, 64)
		case "min_free_disk":
			cfg.MinFreeDisk, err = parseSize(val)
		case "trace_sample":
			cfg.TraceSample, err = strconv.Atoi(val)
		case "debug_addr":
			cfg.DebugAddr = val
		default:
			return cfg, fmt.Errorf("line %d: unknown key %q", ln+1, key)
		}
		if err != nil {
			return cfg, fmt.Errorf("line %d: %s: %v", ln+1, key, err)
		}
	}
	return cfg, nil
}

// parseSize parses a byte size: a plain integer, or one with a binary
// suffix K/M/G/T (an optional trailing "B" and any case are tolerated,
// so "256MB", "1g", and "1048576" all work).
func parseSize(val string) (int64, error) {
	s := strings.TrimSpace(strings.ToUpper(val))
	s = strings.TrimSuffix(s, "B")
	shift := 0
	switch {
	case strings.HasSuffix(s, "K"):
		shift, s = 10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		shift, s = 20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		shift, s = 30, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "T"):
		shift, s = 40, strings.TrimSuffix(s, "T")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("size %q: %v", val, err)
	}
	if n < 0 || n > (1<<62)>>shift {
		return 0, fmt.Errorf("size %q out of range", val)
	}
	return n << shift, nil
}

// parsePeers parses "0=host:port,1=host:port".
func parsePeers(val string) (map[int]string, error) {
	out := make(map[int]string)
	for _, part := range strings.Split(val, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idxStr, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("want index=addr, got %q", part)
		}
		idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
		if err != nil {
			return nil, fmt.Errorf("peer index %q: %v", idxStr, err)
		}
		out[idx] = strings.TrimSpace(addr)
	}
	return out, nil
}

// FormatPeers renders a Peers map back into the config syntax, indices
// sorted — the inverse of parsePeers, for ops tooling output.
func FormatPeers(peers map[int]string) string {
	idxs := make([]int, 0, len(peers))
	for i := range peers {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	parts := make([]string, len(idxs))
	for j, i := range idxs {
		parts[j] = fmt.Sprintf("%d=%s", i, peers[i])
	}
	return strings.Join(parts, ",")
}
