package loadgen

import (
	"context"
	"fmt"
	"time"

	"repro/client"
	"repro/internal/apology"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/policy"
	"repro/internal/uniq"
)

// Outcome is the business result of one offered operation — accepted or
// declined with a reason. Transport failures are errors, not Outcomes.
type Outcome struct {
	Accepted  bool
	Reason    string
	Retryable bool // transient decline (degraded shard), expected to heal
}

// Target abstracts "a running quicksand deployment" so one driver and
// one scenario library measure all three stacks: an in-process cluster
// (volatile or durable) and real daemons reached over HTTP. An entry
// point is where a worker's traffic lands — a replica index on a
// cluster, a daemon on the networked stack.
type Target interface {
	// Entries reports how many entry points accept traffic.
	Entries() int
	// Submit offers one op at the given entry point.
	Submit(ctx context.Context, entry int, op Op) (Outcome, error)
	// SubmitBatch offers a batch through one request, outcomes in order.
	SubmitBatch(ctx context.Context, entry int, ops []Op) ([]Outcome, error)
	// Apologies reports the deployment-wide apology total (deduped).
	Apologies() int
	// ApologyList returns the deduped apologies for attribution checks.
	ApologyList() []apology.Apology
	// Converge drives anti-entropy until every replica agrees or ctx
	// expires.
	Converge(ctx context.Context) error
	// OpCounts reports each entry point's recorded-operation count
	// (summed across shards). nil when the stack cannot observe it.
	OpCounts() []int
	// StateOf returns entry's derived state merged across shards.
	StateOf(entry int) map[string]int64
	// Annotate stamps an out-of-band marker ("partition opened", "spike
	// start") onto the deployment's trace stream, so op lifecycles can
	// be lined up with what the scenario was doing. Best-effort: a stack
	// without tracing ignores it.
	Annotate(note string)
	// Close releases whatever the target owns.
	Close() error
}

// ChaosTarget is a Target whose replicas can be degraded: silenced
// (partition-like — RAM survives, messages stop), hard-killed, and
// recovered. Scenario fault schedules require one.
type ChaosTarget interface {
	Target
	// Silence cuts entry off from gossip (down=true) or heals it.
	Silence(entry int, down bool)
	// Kill hard-crashes entry: RAM gone, unflushed writes lost.
	Kill(entry int)
	// Recover restarts a killed entry from its durable store.
	Recover(ctx context.Context, entry int) error
}

// ClusterTarget adapts an in-process cluster — volatile or durable —
// running the daemon's Accounts application, so cluster scenarios and
// daemon scenarios measure the same business.
type ClusterTarget struct {
	C *core.Cluster[daemon.Accounts]
}

// NewAccountsCluster builds the canonical scenario cluster: the daemon's
// Accounts app under the NoOverdraft rule on a live transport, with the
// caller's extra options (durability, shards, ingest batching, gossip).
func NewAccountsCluster(opts ...core.Option) *ClusterTarget {
	c := core.New[daemon.Accounts](daemon.AccountsApp{}, []core.Rule[daemon.Accounts]{daemon.NoOverdraft()}, opts...)
	return &ClusterTarget{C: c}
}

func (t *ClusterTarget) Entries() int { return t.C.Replicas() }

func (t *ClusterTarget) Submit(ctx context.Context, entry int, op Op) (Outcome, error) {
	var opts []core.SubmitOption
	if op.Sync {
		opts = append(opts, core.WithPolicy(policy.AlwaysSync()))
	}
	res, err := t.C.Submit(ctx, entry, core.NewOp(op.Kind, op.Key, op.Arg), opts...)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Accepted: res.Accepted, Reason: res.Reason, Retryable: res.Retryable}, nil
}

// SubmitBatch offers the batch in one engine call. The engine routes a
// whole batch under one policy, so a mixed batch is split into its async
// run and its sync run (order within each run is preserved; per-key
// ordering across the two is the submitter's concern, as it is for any
// two concurrent requests).
func (t *ClusterTarget) SubmitBatch(ctx context.Context, entry int, ops []Op) ([]Outcome, error) {
	outs := make([]Outcome, len(ops))
	var asyncIdx, syncIdx []int
	for i, op := range ops {
		if op.Sync {
			syncIdx = append(syncIdx, i)
		} else {
			asyncIdx = append(asyncIdx, i)
		}
	}
	run := func(idxs []int, opts ...core.SubmitOption) error {
		if len(idxs) == 0 {
			return nil
		}
		batch := make([]core.Op, len(idxs))
		for k, i := range idxs {
			batch[k] = core.NewOp(ops[i].Kind, ops[i].Key, ops[i].Arg)
		}
		results, err := t.C.SubmitBatch(ctx, entry, batch, opts...)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			outs[i] = Outcome{Accepted: results[k].Accepted, Reason: results[k].Reason, Retryable: results[k].Retryable}
		}
		return nil
	}
	if err := run(asyncIdx); err != nil {
		return nil, err
	}
	if err := run(syncIdx, core.WithPolicy(policy.AlwaysSync())); err != nil {
		return nil, err
	}
	return outs, nil
}

func (t *ClusterTarget) Apologies() int { return t.C.Apologies.Total() }

func (t *ClusterTarget) ApologyList() []apology.Apology {
	return append(t.C.Apologies.Automated(), t.C.Apologies.Human()...)
}

// Converge drives gossip rounds until every shard's replicas hold the
// same operation set. It keeps nudging (rather than only polling) so
// convergence does not depend on a background gossip schedule.
func (t *ClusterTarget) Converge(ctx context.Context) error {
	for {
		if t.C.Converged() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("loadgen: cluster did not converge: %w", err)
		}
		t.C.GossipRound()
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (t *ClusterTarget) OpCounts() []int {
	out := make([]int, t.C.Replicas())
	for i := range out {
		for s := 0; s < t.C.Shards(); s++ {
			out[i] += t.C.ShardReplica(s, i).OpCount()
		}
	}
	return out
}

func (t *ClusterTarget) StateOf(entry int) map[string]int64 {
	merged := make(map[string]int64)
	for s := 0; s < t.C.Shards(); s++ {
		for k, v := range t.C.ShardReplica(s, entry).State() {
			merged[k] = v
		}
	}
	return merged
}

func (t *ClusterTarget) Silence(entry int, down bool) {
	tr := t.C.Transport()
	for s := 0; s < t.C.Shards(); s++ {
		tr.SetUp(core.NodeID(t.C.Shards(), s, entry), !down)
	}
}

func (t *ClusterTarget) Kill(entry int) {
	for s := 0; s < t.C.Shards(); s++ {
		t.C.ShardReplica(s, entry).Kill()
	}
}

func (t *ClusterTarget) Recover(ctx context.Context, entry int) error {
	for s := 0; s < t.C.Shards(); s++ {
		if err := t.C.ShardReplica(s, entry).Recover(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Annotate marks the cluster's trace stream (a no-op without a tracer).
func (t *ClusterTarget) Annotate(note string) { t.C.Tracer().Annotate(note) }

func (t *ClusterTarget) Close() error { return t.C.Close() }

// NetTarget adapts a set of quicksandd daemons reached through the
// client SDK — the stack a real deployment runs. When the target boots
// the daemons itself (NewNetTarget), chaos operations reach through the
// daemon handles into the hosted cluster slices; a target pointed at
// external daemons (WrapClients) measures but cannot inject faults.
type NetTarget struct {
	daemons []*daemon.Daemon // nil entries = external, not chaos-capable
	clients []*client.Client
	owned   bool
}

// NewNetTarget boots n in-process daemons on loopback — real TCP gossip,
// real HTTP submits — forming one cluster of n replicas per shard.
func NewNetTarget(n, shards int, dataDir string, gossipEvery time.Duration) (*NetTarget, error) {
	if n < 2 {
		n = 2
	}
	peerAddrs, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	peers := make(map[int]string, n)
	for i, a := range peerAddrs {
		peers[i] = a
	}
	t := &NetTarget{owned: true}
	for i := 0; i < n; i++ {
		cfg := daemon.Config{
			Node:        i,
			Replicas:    n,
			Shards:      shards,
			HTTPListen:  "127.0.0.1:0",
			PeerListen:  peerAddrs[i],
			Peers:       peers,
			GossipEvery: gossipEvery,
		}
		if dataDir != "" {
			cfg.DataDir = fmt.Sprintf("%s/node%d", dataDir, i)
		}
		d, err := daemon.New(cfg)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("loadgen: boot daemon %d: %w", i, err)
		}
		t.daemons = append(t.daemons, d)
		t.clients = append(t.clients, client.New("http://"+d.HTTPAddr()))
	}
	return t, nil
}

// WrapClients points a NetTarget at already-running daemons. Chaos
// methods are unavailable (they need the process handles).
func WrapClients(clients ...*client.Client) *NetTarget {
	return &NetTarget{clients: clients}
}

// Daemon exposes the entry'th hosted daemon — the handle chaos scenarios
// use to reach layers the public API deliberately hides, like the peer
// transport's fault injector. Nil when the target wraps external daemons.
func (t *NetTarget) Daemon(entry int) *daemon.Daemon {
	if !t.owned {
		return nil
	}
	return t.daemons[entry]
}

func (t *NetTarget) Entries() int { return len(t.clients) }

func (t *NetTarget) Submit(ctx context.Context, entry int, op Op) (Outcome, error) {
	res, err := t.clients[entry].Submit(ctx, client.Op{Kind: op.Kind, Key: op.Key, Arg: op.Arg}, op.Sync)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Accepted: res.Accepted, Reason: res.Reason, Retryable: res.Retryable}, nil
}

func (t *NetTarget) SubmitBatch(ctx context.Context, entry int, ops []Op) ([]Outcome, error) {
	outs := make([]Outcome, len(ops))
	var asyncIdx, syncIdx []int
	for i, op := range ops {
		if op.Sync {
			syncIdx = append(syncIdx, i)
		} else {
			asyncIdx = append(asyncIdx, i)
		}
	}
	run := func(idxs []int, sync bool) error {
		if len(idxs) == 0 {
			return nil
		}
		batch := make([]client.Op, len(idxs))
		for k, i := range idxs {
			batch[k] = client.Op{Kind: ops[i].Kind, Key: ops[i].Key, Arg: ops[i].Arg}
		}
		results, err := t.clients[entry].SubmitBatch(ctx, batch, sync)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			outs[i] = Outcome{Accepted: results[k].Accepted, Reason: results[k].Reason, Retryable: results[k].Retryable}
		}
		return nil
	}
	if err := run(asyncIdx, false); err != nil {
		return nil, err
	}
	if err := run(syncIdx, true); err != nil {
		return nil, err
	}
	return outs, nil
}

// Apologies reports the cluster-wide apology total: each daemon's queue
// holds what its replica discovered, and content-derived IDs make the
// union well-defined — the same overdraft found by two daemons is one
// apology.
func (t *NetTarget) Apologies() int { return len(t.ApologyList()) }

func (t *NetTarget) ApologyList() []apology.Apology {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := make(map[string]bool)
	var out []apology.Apology
	for _, cl := range t.clients {
		resp, err := cl.Apologies(ctx)
		if err != nil {
			continue // a dead daemon's regrets are discovered by the others
		}
		for _, a := range append(resp.Automated, resp.Human...) {
			if seen[a.ID] {
				continue
			}
			seen[a.ID] = true
			out = append(out, apology.Apology{
				ID: uniq.ID(a.ID), Rule: a.Rule, Detail: a.Detail,
				Key: a.Key, Amount: a.Amount, Replica: a.Replica,
			})
		}
	}
	return out
}

// Converge nudges every daemon's gossip and waits until all daemons
// report the same op counts and derived state. Cross-process replicas
// cannot compare operation sets by reference (they live in different
// address spaces), so convergence is observed through the API — counts
// first (cheap), then the merged key maps.
func (t *NetTarget) Converge(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("loadgen: daemons did not converge: %w", err)
		}
		for _, cl := range t.clients {
			cl.Gossip(ctx) // best effort; a dead daemon just misses the nudge
		}
		if t.netConverged(ctx) {
			return nil
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (t *NetTarget) netConverged(ctx context.Context) bool {
	counts := t.OpCounts()
	if counts != nil {
		for _, c := range counts[1:] {
			if c != counts[0] {
				return false
			}
		}
	}
	var first map[string]int64
	for _, cl := range t.clients {
		st, err := cl.State(ctx)
		if err != nil {
			return false
		}
		if first == nil {
			first = st.Keys
			continue
		}
		if !mapsEqual(first, st.Keys) {
			return false
		}
	}
	return true
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// OpCounts reads each daemon's hosted replica slice directly; nil when
// the daemons are external processes.
func (t *NetTarget) OpCounts() []int {
	if !t.owned {
		return nil
	}
	out := make([]int, len(t.daemons))
	for i, d := range t.daemons {
		c := d.Cluster()
		for s := 0; s < c.Shards(); s++ {
			out[i] += c.ShardReplica(s, i).OpCount()
		}
	}
	return out
}

func (t *NetTarget) StateOf(entry int) map[string]int64 {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := t.clients[entry].State(ctx)
	if err != nil {
		return nil
	}
	return st.Keys
}

// Silence degrades the daemon's hosted replica at the transport: peers
// stop hearing from it, it stops hearing from peers, RAM survives.
func (t *NetTarget) Silence(entry int, down bool) {
	c := t.daemons[entry].Cluster()
	tr := c.Transport()
	for s := 0; s < c.Shards(); s++ {
		tr.SetUp(core.NodeID(c.Shards(), s, entry), !down)
	}
}

func (t *NetTarget) Kill(entry int) {
	c := t.daemons[entry].Cluster()
	for s := 0; s < c.Shards(); s++ {
		c.ShardReplica(s, entry).Kill()
	}
}

func (t *NetTarget) Recover(ctx context.Context, entry int) error {
	c := t.daemons[entry].Cluster()
	for s := 0; s < c.Shards(); s++ {
		if err := c.ShardReplica(s, entry).Recover(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Annotate stamps the marker onto every daemon's trace stream, so the
// dashboard shows scenario phases no matter which daemon it watches.
// Best-effort: a dead daemon just misses the marker.
func (t *NetTarget) Annotate(note string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, cl := range t.clients {
		cl.Annotate(ctx, note)
	}
}

func (t *NetTarget) Close() error {
	if !t.owned {
		return nil
	}
	var firstErr error
	for _, d := range t.daemons {
		if d == nil {
			continue
		}
		if err := d.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
