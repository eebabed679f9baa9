package daemon

import (
	"cmp"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultfs"
)

// Config is everything a quicksandd process needs to join a cluster.
// Zero values take the defaults withDefaults fills in (quicksandd -h
// lists them); Validate reports anything incoherent before a socket is
// opened. The settable fields are the rows of settings.
type Config struct {
	// Node is the replica index (0-based) this daemon hosts — of every
	// shard: daemon i runs replica i of each shard's group.
	Node int
	// Replicas is the cluster-wide replica count per shard.
	Replicas int
	// Shards partitions the key space.
	Shards int
	// HTTPListen is the client-facing HTTP address (":0" picks a free
	// port, see Daemon.HTTPAddr).
	HTTPListen string
	// PeerListen is the TCP address replica traffic arrives on (":0"
	// works for tests).
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
	// GossipEvery is the anti-entropy interval.
	GossipEvery time.Duration
	// CallTimeout bounds replica-to-replica calls.
	CallTimeout time.Duration
	// TraceSample is the op-lifecycle tracing rate: trace 1-in-N ops
	// (plus every apology). 0 takes the default, 1 traces every op, and
	// a negative value disables tracing entirely — the engine hooks then
	// cost a single nil check.
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

// withDefaults fills in every zero setting that has a default: the one
// place a default is written.
func (c Config) withDefaults() Config {
	c.Replicas = cmp.Or(c.Replicas, 2)
	c.Shards = cmp.Or(c.Shards, 1)
	c.HTTPListen = cmp.Or(c.HTTPListen, "127.0.0.1:8080")
	c.PeerListen = cmp.Or(c.PeerListen, "127.0.0.1:7000")
	c.GossipEvery = cmp.Or(c.GossipEvery, 50*time.Millisecond)
	c.CallTimeout = cmp.Or(c.CallTimeout, 500*time.Millisecond)
	c.TraceSample = cmp.Or(c.TraceSample, 64)
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
	if c.CallTimeout < 0 {
		return fmt.Errorf("daemon: call_timeout must be positive, got %v", c.CallTimeout)
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

// A setting is one settable Config field: its quicksandd flag, its
// config-file key, and how to write it from text and read it back.
type setting struct {
	flag, key, usage string
	set              func(*Config, string) error
	get              func(Config) string
}

// settings is every daemon setting, each declared once: ParseConfig
// finds its keys here, and ParseServeFlags its flags and help text.
var settings = []setting{
	intSetting("node", "node", "replica `index` this daemon hosts", func(c *Config) *int { return &c.Node }),
	intSetting("replicas", "replicas", "cluster-wide replica `count` per shard", func(c *Config) *int { return &c.Replicas }),
	intSetting("shards", "shards", "shard `count` partitioning the key space", func(c *Config) *int { return &c.Shards }),
	strSetting("http", "http_listen", "client-facing HTTP listen `address`", func(c *Config) *string { return &c.HTTPListen }),
	strSetting("peer-listen", "peer_listen", "replica-traffic TCP listen `address`", func(c *Config) *string { return &c.PeerListen }),
	newSetting("peers", "peers", "peer addresses as `index=host:port,...` (own index ignored)",
		func(c *Config) *map[int]string { return &c.Peers }, parsePeers, formatPeers),
	strSetting("peer-token", "peer_token", "shared `secret` authenticating replica connections", func(c *Config) *string { return &c.PeerToken }),
	strSetting("api-token", "api_token", "bearer `token` required on /v1 endpoints (empty = none)", func(c *Config) *string { return &c.APIToken }),
	strSetting("data", "data_dir", "durable store `directory` (empty = memory only)", func(c *Config) *string { return &c.DataDir }),
	durSetting("gossip-every", "gossip_every", "anti-entropy `interval`", func(c *Config) *time.Duration { return &c.GossipEvery }),
	durSetting("call-timeout", "call_timeout", "replica-to-replica call `timeout`", func(c *Config) *time.Duration { return &c.CallTimeout }),
	intSetting("trace-sample", "trace_sample", "trace 1-in-`N` op lifecycles (negative = off)", func(c *Config) *int { return &c.TraceSample }),
	strSetting("debug-addr", "debug_addr", "serve net/http/pprof on this private `address` (empty = off)", func(c *Config) *string { return &c.DebugAddr }),
}

// newSetting builds a row from the field it addresses and the field
// type's text form.
func newSetting[T any](flag, key, usage string, field func(*Config) *T, parse func(string) (T, error), format func(T) string) setting {
	set := func(c *Config, text string) error {
		v, err := parse(text)
		if err == nil {
			*field(c) = v
		}
		return err
	}
	return setting{flag, key, usage, set, func(c Config) string { return format(*field(&c)) }}
}

func intSetting(flag, key, usage string, field func(*Config) *int) setting {
	return newSetting(flag, key, usage, field, strconv.Atoi, strconv.Itoa)
}

func strSetting(flag, key, usage string, field func(*Config) *string) setting {
	return newSetting(flag, key, usage, field, func(s string) (string, error) { return s, nil }, func(s string) string { return s })
}

func durSetting(flag, key, usage string, field func(*Config) *time.Duration) setting {
	return newSetting(flag, key, usage, field, time.ParseDuration, time.Duration.String)
}

// ParseConfigFile reads a flat YAML-subset config: one "key: value" per
// line, '#' comments, blank lines ignored. It covers exactly the keys a
// daemon needs — no nesting, no quoting, no anchors — so a config stays
// greppable and the parser stays auditable.
//
//	node: 0
//	peers: 0=127.0.0.1:7000,1=127.0.0.1:7001
//	peer_token: s3cret # a '#' after a space starts a comment
//	data_dir: /var/lib/quicksand/n0
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

// ParseConfig parses the config text format (see ParseConfigFile). As
// in YAML, '#' starts a comment only at the start of a line or a value,
// or after a space or tab, so "peer_token: abc#123" keeps its '#'.
func ParseConfig(text string) (Config, error) {
	var cfg Config
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return cfg, fmt.Errorf("line %d: want \"key: value\", got %q", ln+1, line)
		}
		key = strings.TrimSpace(key)
		i := slices.IndexFunc(settings, func(s setting) bool { return s.key == key })
		if i < 0 {
			return cfg, fmt.Errorf("line %d: unknown key %q", ln+1, key)
		}
		val = strings.TrimSpace(val)
		for c := range len(val) {
			if val[c] == '#' && (c == 0 || val[c-1] == ' ' || val[c-1] == '\t') {
				val = strings.TrimSpace(val[:c])
				break
			}
		}
		if err := settings[i].set(&cfg, val); err != nil {
			return cfg, fmt.Errorf("line %d: %s: %v", ln+1, key, err)
		}
	}
	return cfg, nil
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

// formatPeers renders peers as parsePeers reads them, by index.
func formatPeers(peers map[int]string) string {
	parts := make([]string, 0, len(peers))
	for _, i := range slices.Sorted(maps.Keys(peers)) {
		parts = append(parts, strconv.Itoa(i)+"="+peers[i])
	}
	return strings.Join(parts, ",")
}
