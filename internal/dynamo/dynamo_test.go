package dynamo

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vclock"
)

func newCluster(seed int64, cfg Config) (*sim.Sim, *Cluster) {
	s := sim.New(seed)
	return s, New(s, cfg)
}

// put is a test helper that PUTs and runs the sim until resolution.
func put(t *testing.T, s *sim.Sim, c *Cluster, key, val string, ctx vclock.VC, actor string) {
	t.Helper()
	var ok, fired bool
	c.Put(key, val, ctx, actor, func(o bool) { fired, ok = true, o })
	s.Run()
	if !fired || !ok {
		t.Fatalf("Put(%q,%q) failed (fired=%v ok=%v)", key, val, fired, ok)
	}
}

// get is a test helper returning versions and context.
func get(t *testing.T, s *sim.Sim, c *Cluster, key string) ([]Version, vclock.VC) {
	t.Helper()
	var vs []Version
	var ctx vclock.VC
	var ok, fired bool
	c.Get(key, func(versions []Version, cx vclock.VC, o bool) {
		fired, ok, vs, ctx = true, o, versions, cx
	})
	s.Run()
	if !fired || !ok {
		t.Fatalf("Get(%q) failed", key)
	}
	return vs, ctx
}

func TestPutGetRoundTrip(t *testing.T) {
	s, c := newCluster(1, Config{})
	put(t, s, c, "cart:1", "milk", nil, "alice")
	vs, _ := get(t, s, c, "cart:1")
	if len(vs) != 1 || vs[0].Value != "milk" {
		t.Fatalf("get = %+v", vs)
	}
}

func TestGetAbsentKey(t *testing.T) {
	s, c := newCluster(1, Config{})
	vs, ctx := get(t, s, c, "nope")
	if len(vs) != 0 {
		t.Fatalf("absent key returned %+v", vs)
	}
	if len(ctx) != 0 {
		t.Fatalf("absent key ctx = %v", ctx)
	}
}

func TestCausalUpdateReplacesOldVersion(t *testing.T) {
	s, c := newCluster(1, Config{})
	put(t, s, c, "k", "v1", nil, "alice")
	_, ctx := get(t, s, c, "k")
	put(t, s, c, "k", "v2", ctx, "alice")
	vs, _ := get(t, s, c, "k")
	if len(vs) != 1 || vs[0].Value != "v2" {
		t.Fatalf("causal update produced %+v, want single v2", vs)
	}
}

func TestConcurrentBlindPutsMakeSiblings(t *testing.T) {
	s, c := newCluster(1, Config{})
	put(t, s, c, "k", "a", nil, "alice")
	put(t, s, c, "k", "b", nil, "bob") // no context: concurrent with "a"
	vs, _ := get(t, s, c, "k")
	if len(vs) != 2 {
		t.Fatalf("got %d versions, want 2 siblings: %+v", len(vs), vs)
	}
	if c.M.SiblingGets.Value() == 0 {
		t.Fatal("SiblingGets not counted")
	}
}

func TestSiblingResolutionViaContext(t *testing.T) {
	s, c := newCluster(1, Config{})
	put(t, s, c, "k", "a", nil, "alice")
	put(t, s, c, "k", "b", nil, "bob")
	_, ctx := get(t, s, c, "k") // ctx covers both siblings
	put(t, s, c, "k", "merged", ctx, "alice")
	vs, _ := get(t, s, c, "k")
	if len(vs) != 1 || vs[0].Value != "merged" {
		t.Fatalf("after reconciling put: %+v", vs)
	}
}

func TestWritesSurviveNodeFailuresSloppy(t *testing.T) {
	s, c := newCluster(2, Config{Nodes: 5, N: 3, R: 2, W: 2})
	// Kill two nodes: sloppy quorum must still accept writes.
	c.SetUp("n0", false)
	c.SetUp("n1", false)
	put(t, s, c, "k", "v", nil, "alice")
	vs, _ := get(t, s, c, "k")
	if len(vs) != 1 || vs[0].Value != "v" {
		t.Fatalf("sloppy write lost: %+v", vs)
	}
	if c.M.HintedWrites.Value() == 0 {
		t.Fatal("no hinted writes recorded despite down preferred nodes")
	}
}

func TestStrictQuorumFailsWhenReplicasDown(t *testing.T) {
	s, c := newCluster(2, Config{Nodes: 3, N: 3, R: 2, W: 3, StrictQuorum: true})
	c.SetUp("n2", false)
	var ok, fired bool
	c.Put("k", "v", nil, "alice", func(o bool) { fired, ok = true, o })
	s.Run()
	if !fired {
		t.Fatal("put never resolved")
	}
	if ok {
		t.Fatal("strict W=3 write succeeded with a replica down")
	}
	if c.M.PutFails.Value() != 1 {
		t.Fatalf("PutFails = %d", c.M.PutFails.Value())
	}
}

func TestHintedHandoffDeliversAfterRecovery(t *testing.T) {
	s, c := newCluster(3, Config{Nodes: 4, N: 3, R: 1, W: 2, HintRetry: 5 * time.Millisecond})
	// Find the proper homes of the key, crash one of them, write, revive.
	var homes []string
	c.ring.walk("k", func(id string) bool {
		homes = append(homes, id)
		return len(homes) < 3
	})
	victim := homes[0]
	c.SetUp(victim, false)
	put(t, s, c, "k", "v", nil, "alice")
	if c.M.HintedWrites.Value() == 0 {
		t.Fatal("expected a hinted write")
	}
	c.SetUp(victim, true)
	s.RunFor(100 * time.Millisecond)
	s.Run()
	if c.M.HintsFlushed.Value() == 0 {
		t.Fatal("hints never flushed after home recovered")
	}
	vs := c.ReplicaVersions(victim, "k")
	if len(vs) != 1 || vs[0].Value != "v" {
		t.Fatalf("recovered home missing hinted write: %+v", vs)
	}
}

func TestReadRepairHealsStaleReplica(t *testing.T) {
	s, c := newCluster(4, Config{Nodes: 5, N: 3, R: 3, W: 2})
	put(t, s, c, "k", "v1", nil, "alice")
	// Manually blank one replica to fake staleness.
	var homes []string
	c.ring.walk("k", func(id string) bool {
		homes = append(homes, id)
		return len(homes) < 3
	})
	stale := homes[2]
	delete(c.node[stale].store, "k")
	// An R=3 read must notice and repair it.
	get(t, s, c, "k")
	s.Run()
	if c.M.ReadRepairs.Value() == 0 {
		t.Fatal("read repair not triggered")
	}
	vs := c.ReplicaVersions(stale, "k")
	if len(vs) != 1 || vs[0].Value != "v1" {
		t.Fatalf("stale replica not repaired: %+v", vs)
	}
}

func TestAntiEntropyConvergesPartitionedWrites(t *testing.T) {
	s, c := newCluster(5, Config{Nodes: 4, N: 3, R: 1, W: 1})
	// Split the cluster, write different keys on each side.
	c.Net().Partition([]string{"n0", "n1"}, []string{"n2", "n3"})
	var okA, okB bool
	c.Put("keyA", "a", nil, "alice", func(o bool) { okA = o })
	c.Put("keyB", "b", nil, "bob", func(o bool) { okB = o })
	s.Run()
	if !okA || !okB {
		t.Fatalf("partitioned writes failed: %v %v (W=1 should accept)", okA, okB)
	}
	c.Net().Heal()
	for i := 0; i < 4; i++ {
		c.AntiEntropyRound()
		s.Run()
	}
	// Every node must now know both keys.
	for _, id := range c.Nodes() {
		for _, key := range []string{"keyA", "keyB"} {
			if len(c.ReplicaVersions(id, key)) == 0 {
				t.Fatalf("node %s missing %s after anti-entropy", id, key)
			}
		}
	}
	if c.M.AntiEntropy.Value() == 0 {
		t.Fatal("anti-entropy not counted")
	}
}

func TestAvailabilityChoiceAlwaysAcceptsPut(t *testing.T) {
	// §6.1: "Dynamo always accepts a PUT to the store even if this may
	// result in an inconsistent GET later." With W=1 and any single node
	// alive, puts keep succeeding.
	s, c := newCluster(6, Config{Nodes: 5, N: 3, R: 1, W: 1})
	for _, id := range []string{"n0", "n1", "n2", "n3"} {
		c.SetUp(id, false)
	}
	put(t, s, c, "k", "v", nil, "alice")
	if c.M.PutFails.Value() != 0 {
		t.Fatal("put failed with one node alive and W=1")
	}
	_ = s
}

func TestAllNodesDownFails(t *testing.T) {
	s, c := newCluster(7, Config{Nodes: 3})
	for _, id := range c.Nodes() {
		c.SetUp(id, false)
	}
	var fired, ok bool
	c.Put("k", "v", nil, "alice", func(o bool) { fired, ok = true, o })
	s.Run()
	if !fired || ok {
		t.Fatalf("put with all nodes down: fired=%v ok=%v", fired, ok)
	}
	c.Get("k", func(_ []Version, _ vclock.VC, o bool) {
		if o {
			t.Error("get succeeded with all nodes down")
		}
	})
	s.Run()
}

func TestMergeVersionsPrunesDominated(t *testing.T) {
	a := vclock.New().Tick("x")
	b := a.Copy().Tick("x")
	got := mergeVersions([]Version{{Clock: a, Value: "old"}}, []Version{{Clock: b, Value: "new"}})
	if len(got) != 1 || got[0].Value != "new" {
		t.Fatalf("mergeVersions = %+v", got)
	}
}

func TestMergeVersionsKeepsConcurrent(t *testing.T) {
	a := vclock.New().Tick("x")
	b := vclock.New().Tick("y")
	got := mergeVersions([]Version{{Clock: a, Value: "1"}}, []Version{{Clock: b, Value: "2"}})
	if len(got) != 2 {
		t.Fatalf("concurrent versions pruned: %+v", got)
	}
}

func TestMergeVersionsDedupesEqual(t *testing.T) {
	a := vclock.New().Tick("x")
	got := mergeVersions([]Version{{Clock: a, Value: "v"}}, []Version{{Clock: a.Copy(), Value: "v"}})
	if len(got) != 1 {
		t.Fatalf("equal versions not deduped: %+v", got)
	}
}

func TestRingSpreadsKeysAndIsStable(t *testing.T) {
	r := newRing([]string{"a", "b", "c", "d"}, 16)
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		r.walk("key"+itoa(i), func(id string) bool {
			counts[id]++
			return false
		})
	}
	for id, n := range counts {
		if n == 0 {
			t.Fatalf("node %s got no keys", id)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d nodes own keys", len(counts))
	}
	// Same key must always map to the same preference list.
	p1 := r.preferenceList("stable", 3, false, nil)
	p2 := r.preferenceList("stable", 3, false, nil)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("preference list unstable")
		}
	}
}

func TestPreferenceListSloppySubstitution(t *testing.T) {
	r := newRing([]string{"a", "b", "c", "d"}, 8)
	strict := r.preferenceList("k", 3, false, nil)
	down := strict[0].Node
	sloppy := r.preferenceList("k", 3, true, func(id string) bool { return id != down })
	if len(sloppy) != 3 {
		t.Fatalf("sloppy list = %+v", sloppy)
	}
	hinted := 0
	for _, tg := range sloppy {
		if tg.Node == down {
			t.Fatal("down node appears in sloppy list")
		}
		if tg.HintFor == down {
			hinted++
		}
	}
	if hinted != 1 {
		t.Fatalf("expected exactly one substitute hinted for %s, got %d", down, hinted)
	}
}

func TestNextClockNeverRegresses(t *testing.T) {
	// The documented client protocol: merging the predicted clock into
	// the next context keeps the actor's entry strictly increasing even
	// when reads return stale contexts.
	var last vclock.VC
	staleCtx := vclock.New() // reads keep returning the empty context
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		use := staleCtx.Merge(last)
		clock := NextClock(use, "writer")
		last = clock
		key := clock.String()
		if seen[key] {
			t.Fatalf("clock %s repeated at step %d", key, i)
		}
		seen[key] = true
	}
	if last.Get("writer") != 5 {
		t.Fatalf("writer entry = %d, want 5", last.Get("writer"))
	}
}

func TestNextClockNilContext(t *testing.T) {
	c := NextClock(nil, "a")
	if c.Get("a") != 1 {
		t.Fatalf("NextClock(nil) = %v", c)
	}
}

func TestMerkleSyncConvergesLikeFullSync(t *testing.T) {
	for _, useMerkle := range []bool{false, true} {
		s, c := newCluster(9, Config{Nodes: 4, N: 3, R: 1, W: 1, MerkleSync: useMerkle})
		c.Net().Partition([]string{"n0", "n1"}, []string{"n2", "n3"})
		var okA, okB bool
		c.Put("keyA", "a", nil, "alice", func(o bool) { okA = o })
		c.Put("keyB", "b", nil, "bob", func(o bool) { okB = o })
		s.Run()
		if !okA || !okB {
			t.Fatalf("partitioned writes failed (merkle=%v)", useMerkle)
		}
		c.Net().Heal()
		for i := 0; i < 6 && !c.InSync(); i++ {
			c.AntiEntropyRound()
			s.Run()
		}
		if !c.InSync() {
			t.Fatalf("anti-entropy (merkle=%v) never converged", useMerkle)
		}
	}
}

func TestMerkleSyncRepairsForgottenKey(t *testing.T) {
	s, c := newCluster(10, Config{Nodes: 3, N: 3, R: 2, W: 3, MerkleSync: true})
	put(t, s, c, "k", "v", nil, "alice")
	c.ForgetKey("n0", "k")
	for i := 0; i < 4 && !c.InSync(); i++ {
		c.AntiEntropyRound()
		s.Run()
	}
	if !c.InSync() {
		t.Fatal("merkle sync did not repair the forgotten key")
	}
	vs := c.ReplicaVersions("n0", "k")
	if len(vs) != 1 || vs[0].Value != "v" {
		t.Fatalf("n0 versions = %+v", vs)
	}
	if c.M.SyncVersions.Value() == 0 || c.M.SyncDigests.Value() == 0 {
		t.Fatal("sync counters not recorded")
	}
}

func TestInSyncDetectsDivergence(t *testing.T) {
	s, c := newCluster(11, Config{Nodes: 3, N: 3, R: 2, W: 3})
	put(t, s, c, "k", "v", nil, "alice")
	if !c.InSync() {
		t.Fatal("fully replicated write reports out of sync")
	}
	c.ForgetKey("n1", "k")
	if c.InSync() {
		t.Fatal("forgotten key not detected")
	}
}
