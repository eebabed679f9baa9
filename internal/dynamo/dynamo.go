// Package dynamo implements a replicated blob store in the style of
// Amazon's Dynamo, the substrate of the paper's Example 4 (§6.1): "a
// replicated blob store implemented with a DHT ... Dynamo always accepts a
// PUT to the store even if this may result in an inconsistent GET later."
//
// The pieces match the Dynamo design the paper leans on: a consistent-hash
// ring with virtual nodes, N/R/W quorums, sloppy quorums with hinted
// handoff (availability over consistency), vector-clock versioning with
// concurrent siblings surfaced to the application, read repair, and
// pairwise anti-entropy. The store itself knows nothing about cart
// semantics — §6.4's point is precisely that "storage systems alone cannot
// provide the commutativity we need"; reconciliation belongs to the
// application layered on top (package cart).
package dynamo

import (
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// Version is one causally tagged value of a key.
type Version struct {
	Clock vclock.VC
	Value string
}

// Config tunes a cluster. Zero fields take defaults.
type Config struct {
	Nodes  int // physical nodes (default 5)
	N      int // replicas per key (default 3)
	R      int // read quorum (default 2)
	W      int // write quorum (default 2)
	VNodes int // virtual nodes per physical node (default 16)

	// Sloppy enables sloppy quorums + hinted handoff (default true via
	// StrictQuorum=false).
	StrictQuorum bool
	// MsgLatency is per-hop network latency (default 1ms ± 0.5ms).
	MsgLatency simnet.Latency
	// CallTimeout bounds RPCs (default 25ms).
	CallTimeout time.Duration
	// HintRetry is how often a node retries handing hinted writes to
	// their proper home (default 20ms).
	HintRetry time.Duration
	// HintMaxTries bounds the retry polling; when the home stays dead
	// this long, the hint is left in place for anti-entropy to reconcile
	// (default 100 tries).
	HintMaxTries int
	// MerkleSync switches anti-entropy from whole-store exchange to
	// Merkle-tree comparison (Dynamo paper §4.7): only divergent key
	// ranges travel.
	MerkleSync bool
	// MerkleDepth is the tree depth for MerkleSync (default 8: 256
	// leaves).
	MerkleDepth int
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 5
	}
	if c.N == 0 {
		c.N = 3
	}
	if c.R == 0 {
		c.R = 2
	}
	if c.W == 0 {
		c.W = 2
	}
	if c.VNodes == 0 {
		c.VNodes = 16
	}
	if c.MsgLatency == nil {
		c.MsgLatency = simnet.Jitter{Base: time.Millisecond, Spread: 500 * time.Microsecond}
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 25 * time.Millisecond
	}
	if c.HintRetry == 0 {
		c.HintRetry = 20 * time.Millisecond
	}
	if c.HintMaxTries == 0 {
		c.HintMaxTries = 100
	}
	if c.MerkleDepth == 0 {
		c.MerkleDepth = 8
	}
	return c
}

// Metrics aggregates cluster-level observations.
type Metrics struct {
	GetLat stats.Histogram
	PutLat stats.Histogram

	Gets         stats.Counter
	Puts         stats.Counter
	GetFails     stats.Counter
	PutFails     stats.Counter
	SiblingGets  stats.Counter // GETs returning more than one version
	ReadRepairs  stats.Counter
	HintedWrites stats.Counter
	HintsFlushed stats.Counter
	AntiEntropy  stats.Counter // pairwise syncs performed

	// Anti-entropy transfer accounting, for the full-vs-Merkle ablation.
	SyncVersions stats.Counter // version records moved by syncs
	SyncDigests  stats.Counter // tree digests compared/shipped by syncs
}

// Cluster is a simulated Dynamo deployment plus its client entry points.
type Cluster struct {
	s    *sim.Sim
	net  *simnet.Network
	cfg  Config
	ring *ring
	node map[string]*storeNode
	ids  []string

	M Metrics
}

// New builds a cluster of cfg.Nodes nodes named n0, n1, ...
func New(s *sim.Sim, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		s:    s,
		net:  simnet.New(s, simnet.WithLatency(cfg.MsgLatency)),
		cfg:  cfg,
		node: make(map[string]*storeNode),
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := "n" + itoa(i)
		c.ids = append(c.ids, id)
		c.node[id] = newStoreNode(c, id)
	}
	c.ring = newRing(c.ids, cfg.VNodes)
	return c
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// Net exposes the underlying network (fault injection, partitions).
func (c *Cluster) Net() *simnet.Network { return c.net }

// Nodes lists the physical node IDs.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.ids...) }

// SetUp crashes or revives a node. A revival nudges every hint holder to
// retry delivery, standing in for the gossip-based failure detector that
// announces recoveries in the real system.
func (c *Cluster) SetUp(id string, up bool) {
	c.net.SetUp(id, up)
	if up {
		for _, nid := range c.ids {
			n := c.node[nid]
			if len(n.hints) > 0 && !n.ep.Crashed() {
				n.armHintFlush()
			}
		}
	}
}

// coordinator picks the first live node of key's preference list to run a
// client request, like Dynamo's partition-aware client routing.
func (c *Cluster) coordinator(key string) *storeNode {
	var coord *storeNode
	c.ring.walk(key, func(id string) bool {
		if c.net.IsUp(id) {
			coord = c.node[id]
			return false
		}
		return true
	})
	return coord
}

// Get reads key. done receives the surviving sibling versions (dominated
// versions pruned), a context clock to pass to the next Put, and ok=false
// if no read quorum was reachable. Absent keys yield ok=true with no
// versions.
func (c *Cluster) Get(key string, done func(versions []Version, ctx vclock.VC, ok bool)) {
	c.M.Gets.Inc()
	start := c.s.Now()
	coord := c.coordinator(key)
	if coord == nil {
		c.M.GetFails.Inc()
		done(nil, nil, false)
		return
	}
	coord.coordinateGet(key, func(versions []Version, ok bool) {
		if !ok {
			c.M.GetFails.Inc()
			done(nil, nil, false)
			return
		}
		c.M.GetLat.AddDur(c.s.Now() - start)
		if len(versions) > 1 {
			c.M.SiblingGets.Inc()
		}
		ctx := vclock.New()
		for _, v := range versions {
			ctx = ctx.Merge(v.Clock)
		}
		done(versions, ctx, true)
	})
}

// Put writes value under key on behalf of actor (a session or client ID).
// ctx must carry the clock returned by the Get the caller based its update
// on (nil for a blind create); ticking the actor's own entry makes the new
// version dominate exactly what the caller saw. Two different actors
// writing blindly therefore become concurrent siblings — the behaviour the
// shopping cart of §6.1 depends on. done reports whether a write quorum
// acknowledged.
func (c *Cluster) Put(key, value string, ctx vclock.VC, actor string, done func(ok bool)) {
	c.M.Puts.Inc()
	start := c.s.Now()
	coord := c.coordinator(key)
	if coord == nil {
		c.M.PutFails.Inc()
		done(false)
		return
	}
	if actor == "" {
		actor = coord.id
	}
	clock := NextClock(ctx, actor)
	coord.coordinatePut(key, Version{Clock: clock, Value: value}, func(ok bool) {
		if !ok {
			c.M.PutFails.Inc()
		} else {
			c.M.PutLat.AddDur(c.s.Now() - start)
		}
		done(ok)
	})
}

// NextClock returns the clock a Put with the given context and actor will
// stamp on the new version: the context advanced by one tick of the
// actor's own entry. Sessions that issue sequences of writes use it to
// track their own causal history: merging the predicted clock into the
// next Put's context guarantees the actor's counter never regresses, even
// when a quorum read misses the session's latest write. Without that, two
// writes by one actor could carry identical clocks with different
// contents, and one would be silently dropped as a duplicate.
func NextClock(ctx vclock.VC, actor string) vclock.VC {
	clock := vclock.New()
	if ctx != nil {
		clock = ctx.Copy()
	}
	clock.Tick(actor)
	return clock
}

// AntiEntropyRound makes every node exchange and merge its store with one
// ring neighbour. Repeated rounds converge all replicas even after
// partitions; experiments call it on their own cadence.
func (c *Cluster) AntiEntropyRound() {
	for i, id := range c.ids {
		peer := c.ids[(i+1)%len(c.ids)]
		if c.net.IsUp(id) && c.net.IsUp(peer) && c.net.Reachable(id, peer) {
			c.node[id].syncWith(peer)
		}
	}
}

// ReplicaVersions reports the versions node id holds for key — test and
// audit access, not part of the client API.
func (c *Cluster) ReplicaVersions(id string, key string) []Version {
	return append([]Version(nil), c.node[id].store[key]...)
}

// ForgetKey erases a key from one replica's local store — a test and
// experiment hook standing in for a lost disk block or bit rot, the kind
// of silent divergence anti-entropy exists to repair.
func (c *Cluster) ForgetKey(id string, key string) {
	delete(c.node[id].store, key)
}

// InSync reports whether every pair of live nodes holds identical version
// sets for every key either holds.
func (c *Cluster) InSync() bool {
	for i := 0; i < len(c.ids); i++ {
		for j := i + 1; j < len(c.ids); j++ {
			a, b := c.node[c.ids[i]], c.node[c.ids[j]]
			keys := map[string]bool{}
			for k := range a.store {
				keys[k] = true
			}
			for k := range b.store {
				keys[k] = true
			}
			for k := range keys {
				if !sameVersions(a.store[k], b.store[k]) {
					return false
				}
			}
		}
	}
	return true
}

// quorumCall invokes method on each target and fires done exactly once:
// with ok=true as soon as `need` successes arrive, or ok=false when all
// calls resolved short of the quorum. Late responses still flow to
// straggler (for read repair and hint bookkeeping).
func quorumCall(ep *rpc.Endpoint, targets []target, method string, mkReq func(target) any,
	need int, done func(resps []any, ok bool), straggler func(t target, resp any)) {
	if len(targets) < need || need <= 0 {
		done(nil, len(targets) >= need)
		return
	}
	var resps []any
	fired := false
	resolved := 0
	oks := 0
	for _, tg := range targets {
		tg := tg
		ep.Call(tg.Node, method, mkReq(tg), func(resp any, ok bool) {
			resolved++
			if ok {
				oks++
				if fired {
					if straggler != nil {
						straggler(tg, resp)
					}
				} else {
					resps = append(resps, resp)
				}
			}
			if !fired && oks >= need {
				fired = true
				done(resps, true)
				return
			}
			if !fired && resolved == len(targets) {
				fired = true
				done(resps, false)
			}
		})
	}
}
