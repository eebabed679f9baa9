package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/oplog"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uniq"
)

// The ingestQueue unit suite: FIFO order through wraparound and growth,
// and close semantics.

func item(n int) ingestItem {
	return ingestItem{op: oplog.Entry{ID: uniq.ID(fmt.Sprintf("it-%04d", n))}}
}

func popIDs(q *ingestQueue, max int) []string {
	batch := q.popAll(nil, max)
	ids := make([]string, len(batch))
	for i, it := range batch {
		ids[i] = string(it.op.ID)
	}
	return ids
}

func TestIngestQueueFIFOThroughWraparound(t *testing.T) {
	q := &ingestQueue{buf: make([]ingestItem, 4)}
	next := 0
	popped := 0
	for round := 0; round < 5; round++ {
		// Fill partially, pop partially, so head walks around the ring.
		var items []ingestItem
		for i := 0; i < 3; i++ {
			items = append(items, item(next))
			next++
		}
		if !q.putAll(items) {
			t.Fatal("putAll refused on an open queue")
		}
		for _, id := range popIDs(q, 3) {
			if want := fmt.Sprintf("it-%04d", popped); id != want {
				t.Fatalf("popped %q, want %q — FIFO broken", id, want)
			}
			popped++
		}
	}
	if popped != next {
		t.Fatalf("popped %d of %d", popped, next)
	}
	if len(q.buf) != 4 {
		t.Fatalf("ring grew to %d slots though it never held more than 3 items", len(q.buf))
	}
}

func TestIngestQueuePopAll(t *testing.T) {
	q := &ingestQueue{}
	if got := q.popAll(nil, 4); len(got) != 0 {
		t.Fatalf("popAll on empty = %d items", len(got))
	}
	q.putAll([]ingestItem{item(0), item(1), item(2)})
	got := q.popAll(nil, 2)
	if len(got) != 2 || got[0].op.ID != "it-0000" || got[1].op.ID != "it-0001" {
		t.Fatalf("popAll(max 2) = %v", got)
	}
	if d := q.depth(); d != 1 {
		t.Fatalf("depth after a capped pop = %d, want 1", d)
	}
}

// TestIngestQueueClose pins the ownership split a close creates: what
// was queued before it stays for the drain, and a later put is refused
// whole — the caller resolving a refused put and the drain resolving the
// queue must never overlap (a double delivery into a shared sink).
func TestIngestQueueClose(t *testing.T) {
	q := &ingestQueue{}
	q.putAll([]ingestItem{item(0), item(1)})
	q.close()
	if q.putAll([]ingestItem{item(2), item(3)}) {
		t.Fatal("putAll enqueued on a closed queue")
	}
	if got := popIDs(q, 8); len(got) != 2 || got[0] != "it-0000" || got[1] != "it-0001" {
		t.Fatalf("drained %v after close, want exactly the two items queued before it", got)
	}
	if got := popIDs(q, 8); len(got) != 0 {
		t.Fatalf("second pop = %v, want empty", got)
	}
}

// TestIngestQueueGrows pins the ring's contract: a put larger than the
// ring grows it (preserving order through the old wraparound) instead of
// refusing or blocking — the property that keeps a reentrant bulk submit
// from deadlocking the one drainer.
func TestIngestQueueGrows(t *testing.T) {
	q := &ingestQueue{buf: make([]ingestItem, 2)}
	// Wrap the head first so growth must linearize a wrapped ring.
	q.putAll([]ingestItem{item(0), item(1)})
	if got := q.popAll(nil, 1); len(got) != 1 {
		t.Fatal("prime pop failed")
	}
	items := make([]ingestItem, 9)
	for i := range items {
		items[i] = item(i + 2)
	}
	if !q.putAll(items) {
		t.Fatal("putAll refused a put larger than the ring")
	}
	got := popIDs(q, 100)
	if len(got) != 10 {
		t.Fatalf("drained %d items, want 10", len(got))
	}
	for i, id := range got {
		if want := fmt.Sprintf("it-%04d", i+1); id != want {
			t.Fatalf("position %d = %q, want %q — growth lost order", i, id, want)
		}
	}
}

// withIngestCap overrides the drain's batch cap, which production code
// fixes at ingestBatchCap — the dial the batch-size-invariance
// differential turns. withFoldCheckpointEvery lowers the other fixed
// cadence the same way, so a test reaches a rewind past a checkpoint in
// tens of ops.
func withIngestCap(n int) Option           { return func(c *config) { c.ingestCap = n } }
func withFoldCheckpointEvery(n int) Option { return func(c *config) { c.foldEvery = n } }

// writePathWorlds names the two transports every write-path test runs
// on. settle lets in-flight events finish (a no-op for real goroutines).
var writePathWorlds = []struct {
	name string
	opts func() (opts []Option, settle func())
}{
	{"sim", func() ([]Option, func()) {
		s := sim.New(11)
		return []Option{WithTransport(rpc.NewSimTransport(s))}, func() { s.Run() }
	}},
	{"live", func() ([]Option, func()) { return nil, func() {} }},
}

// TestBatchSizeInvariance is the write path's differential
// acceptance test: one offered schedule — singles, bulk batches whose
// later ops depend on earlier acceptances in the same batch, declines,
// duplicates inside a batch and as retries — must produce the same
// per-op outcomes and the same final state whether the drain absorbs 1,
// 64, or 1024 ops per pass, on both transports, sharded and unsharded.
// The judge is independent of the engine: a sequential fold of
// Rule.Admit + App.Step over the offered order. Replica 0 receives every
// op and nothing gossips, so its guess is exactly that fold.
func TestBatchSizeInvariance(t *testing.T) {
	const nKeys = 12
	key := func(k int) string { return fmt.Sprintf("acct-%02d", k) }
	mk := func(id, kind string, k int, arg int64) Op {
		op := NewOp(kind, key(k), arg)
		op.ID = uniq.ID(id)
		return op
	}
	// The schedule: each element is one call — a single Submit or a
	// SubmitBatch.
	var calls [][]Op
	for k := 0; k < nKeys; k++ {
		calls = append(calls, []Op{mk(fmt.Sprintf("seed-%02d", k), "credit", k, 100)})
	}
	for i := 0; i < 6*nKeys; i++ {
		kind, arg := "credit", int64(10+i%7)
		switch i % 3 {
		case 1:
			kind, arg = "debit", int64(1+i%5)
		case 2:
			if i%6 == 5 {
				kind, arg = "debit", 1_000_000 // always declined
			}
		}
		calls = append(calls, []Op{mk(fmt.Sprintf("one-%03d", i), kind, i%nKeys, arg)})
	}
	// A bulk batch longer than two of the three caps, built so that
	// acceptance inside a batch must advance the guess: every account
	// holds far less than 10 000, so each "out" is covered only if
	// admission saw the "in" queued just before it, and each "out2" is
	// declined only if admission saw the "out". A duplicate of the "in"
	// rides along: re-accepted, not re-applied.
	bulk := make([]Op, 0, 192)
	for i := 0; len(bulk) < 192; i++ {
		k := i % nKeys
		bulk = append(bulk,
			mk(fmt.Sprintf("blk-%03d-in", i), "credit", k, 10_000),
			mk(fmt.Sprintf("blk-%03d-out", i), "debit", k, 10_000),
			mk(fmt.Sprintf("blk-%03d-out2", i), "debit", k, 10_000),
			mk(fmt.Sprintf("blk-%03d-in", i), "credit", k, 999))
	}
	calls = append(calls, bulk)
	for _, id := range []string{"one-000", "blk-000-in", "seed-00", "one-005"} { // the last was declined: retried, declined again
		calls = append(calls, []Op{mk(id, "debit", 0, 1_000_000)})
	}

	// The oracle.
	rules := []Rule[counterState]{noOverdraft()}
	app := counterApp{}
	type outcome struct {
		accepted bool
		reason   string
	}
	var want []outcome
	wantState := app.Init()
	seen := map[uniq.ID]bool{}
	for _, call := range calls {
		for _, op := range call {
			o := outcome{accepted: true}
			if !seen[op.ID] {
				for _, rule := range rules {
					if !rule.Admit(wantState, op) {
						o = outcome{reason: "declined by rule " + rule.Name}
						break
					}
				}
				if o.accepted {
					seen[op.ID] = true
					wantState = app.Step(wantState, op)
				}
			}
			want = append(want, o)
		}
	}
	if n := len(want); n < 250 || want[n-1].accepted || !want[n-2].accepted {
		t.Fatalf("schedule is vacuous: %d outcomes, or its retries of accepted and of declined work do not differ", n)
	}

	for _, w := range writePathWorlds {
		for _, shards := range []int{1, 4} {
			for _, batchCap := range []int{1, 64, 1024} {
				t.Run(fmt.Sprintf("%s/shards=%d/cap=%d", w.name, shards, batchCap), func(t *testing.T) {
					opts, settle := w.opts()
					c := New[counterState](app, rules, append(opts, WithShards(shards), withIngestCap(batchCap))...)
					defer c.Close()
					ctx := context.Background()
					var got []Result
					for _, call := range calls {
						if len(call) == 1 {
							res, err := c.Submit(ctx, 0, call[0])
							if err != nil {
								t.Fatal(err)
							}
							got = append(got, res)
							continue
						}
						res, err := c.SubmitBatch(ctx, 0, call)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, res...)
					}
					settle()
					if len(got) != len(want) {
						t.Fatalf("%d results, want %d", len(got), len(want))
					}
					for i, o := range want {
						if got[i].Accepted != o.accepted || got[i].Reason != o.reason {
							t.Fatalf("op %d (%s): accepted=%v reason=%q, oracle accepted=%v reason=%q",
								i, got[i].Op.ID, got[i].Accepted, got[i].Reason, o.accepted, o.reason)
						}
					}
					gotState := counterState{}
					for s := 0; s < shards; s++ {
						for k, v := range c.ShardReplica(s, 0).State() {
							gotState[k] = v
						}
					}
					if len(gotState) != len(wantState) {
						t.Fatalf("state holds %d keys, oracle %d", len(gotState), len(wantState))
					}
					for k, v := range wantState {
						if gotState[k] != v {
							t.Fatalf("%s = %d, oracle %d", k, gotState[k], v)
						}
					}
				})
			}
		}
	}
}

// TestIngestBacklogCountsParkedSubmits: while another goroutine holds the
// drain, submits park on the ring — IngestBacklog counts exactly them,
// against the fixed nominal capacity — and the next drain resolves them
// all, in order, and returns the depth to zero.
func TestIngestBacklogCountsParkedSubmits(t *testing.T) {
	c := New[counterState](counterApp{}, nil, WithReplicas(1))
	defer c.Close()
	rep := c.Replica(0)
	if d, capacity := c.IngestBacklog(0); d != 0 || capacity != ingestNominalCap {
		t.Fatalf("idle backlog = %d/%d, want 0/%d", d, capacity, ingestNominalCap)
	}
	var order []int64
	rep.drainMu.Lock() // someone else's drain is running
	const parked = 5
	for i := 0; i < parked; i++ {
		c.SubmitAsync(0, NewOp("credit", "k", int64(i)), func(res Result) { order = append(order, res.Op.Arg) })
	}
	d, capacity := c.IngestBacklog(0)
	if d != parked || capacity != ingestNominalCap || len(order) != 0 {
		t.Fatalf("behind a held drain: backlog %d/%d with %d resolved, want %d/%d with none",
			d, capacity, len(order), parked, ingestNominalCap)
	}
	rep.drainMu.Unlock()
	rep.drainIngest() // the releasing drainer's re-check
	if d, _ := c.IngestBacklog(0); d != 0 || len(order) != parked {
		t.Fatalf("after the drain: backlog %d, %d resolved; want 0, %d", d, len(order), parked)
	}
	if got, want := fmt.Sprint(order), "[0 1 2 3 4]"; got != want {
		t.Fatalf("parked submits resolved in order %s, want %s", got, want)
	}
}

// TestConcurrentSubmittersShareOneDrain: 8 goroutines loop blocking
// Submit at one live replica. Every result resolves; each goroutine's
// successive ops are stamped, and therefore folded, in the order it
// submitted them; and the ring never holds more than one op per caller.
func TestConcurrentSubmittersShareOneDrain(t *testing.T) {
	const workers, perWorker = 8, 200
	var rep *Replica[counterState]
	var maxDepth atomic.Int64
	watch := Rule[counterState]{Name: "watch-depth", Admit: func(counterState, Op) bool {
		// Runs inside the drain, once per admitted op: what is parked
		// behind this drain right now?
		if d := int64(rep.ingest.depth()); d > maxDepth.Load() {
			maxDepth.Store(d) // only the one drainer writes
		}
		return true
	}}
	c := New[counterState](counterApp{}, []Rule[counterState]{watch}, WithReplicas(1))
	defer c.Close()
	rep = c.Replica(0)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastLam uint64
			for i := 0; i < perWorker; i++ {
				res, err := c.Submit(ctx, 0, NewOp("credit", fmt.Sprintf("k%d", w), int64(i)))
				if err != nil || !res.Accepted {
					t.Errorf("worker %d op %d: %+v, %v", w, i, res, err)
					return
				}
				if res.Op.Lam <= lastLam {
					t.Errorf("worker %d op %d stamped Lam %d after %d — folded out of submission order", w, i, res.Op.Lam, lastLam)
					return
				}
				lastLam = res.Op.Lam
			}
		}(w)
	}
	wg.Wait()
	if got := rep.OpCount(); got != workers*perWorker {
		t.Fatalf("replica holds %d ops, want %d", got, workers*perWorker)
	}
	if d, _ := c.IngestBacklog(0); d != 0 {
		t.Fatalf("ring depth %d after every submit returned", d)
	}
	if m := maxDepth.Load(); m >= workers {
		t.Fatalf("ring held %d ops behind a drain with only %d callers, one of them draining", m, workers)
	}
	want := int64(perWorker * (perWorker - 1) / 2)
	for k, v := range rep.State() {
		if v != want {
			t.Fatalf("%s = %d, want %d", k, v, want)
		}
	}
}

// TestReentrantSubmitFromCompletion: a completion callback that submits
// again runs while its own drain is on the stack. It must neither
// deadlock on the drain lock nor jump the queue: the re-entered ops are
// absorbed by the outer drain, after the op that spawned them, in the
// order they were submitted — on both transports.
func TestReentrantSubmitFromCompletion(t *testing.T) {
	for _, w := range writePathWorlds {
		t.Run(w.name, func(t *testing.T) {
			opts, settle := w.opts()
			c := New[counterState](counterApp{}, nil, append(opts, WithReplicas(1))...)
			defer c.Close()
			var order []string
			var lams []uint64
			record := func(name string) func(Result) {
				return func(res Result) {
					if !res.Accepted {
						t.Errorf("%s declined: %s", name, res.Reason)
					}
					order = append(order, name)
					lams = append(lams, res.Op.Lam)
				}
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				c.SubmitAsync(0, NewOp("credit", "k", 1), func(res Result) {
					record("outer")(res)
					c.SubmitAsync(0, NewOp("credit", "k", 2), func(res Result) {
						record("inner-1")(res)
						c.SubmitAsync(0, NewOp("credit", "k", 4), record("nested"))
					})
					c.SubmitAsync(0, NewOp("credit", "k", 3), record("inner-2"))
				})
				settle()
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("re-entrant SubmitAsync deadlocked against its own drain")
			}
			if got, want := fmt.Sprint(order), "[outer inner-1 inner-2 nested]"; got != want {
				t.Fatalf("completion order %s, want %s", got, want)
			}
			for i := 1; i < len(lams); i++ {
				if lams[i] <= lams[i-1] {
					t.Fatalf("Lamport stamps %v not in completion order", lams)
				}
			}
			if got := c.Replica(0).State()["k"]; got != 10 {
				t.Fatalf("k = %d, want 10", got)
			}
		})
	}
}

// TestWritePathStartsNoGoroutines: with gossip off, a cluster owns no
// goroutine — not at rest, not after traffic, not after Close — because
// the submitter is the drain. After Close the ring declines.
func TestWritePathStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	// extra reports goroutines beyond the baseline, giving stragglers of
	// earlier tests (a timer callback, an exiting worker) a moment to go.
	extra := func() int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n - before
	}
	c := New[counterState](counterApp{}, nil, WithShards(4))
	if n := extra(); n > 0 {
		t.Fatalf("New started %d goroutine(s) with gossip off", n)
	}
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if res, err := c.Submit(ctx, i%3, NewOp("credit", fmt.Sprintf("k%d", i), 1)); err != nil || !res.Accepted {
			t.Fatalf("submit %d: %+v, %v", i, res, err)
		}
	}
	if n := extra(); n > 0 {
		t.Fatalf("%d goroutine(s) outlived the submits that needed them", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := extra(); n > 0 {
		t.Fatalf("Close left %d goroutine(s) behind", n)
	}
	res, err := c.Submit(ctx, 0, NewOp("credit", "k", 1))
	if err != nil || res.Accepted || res.Reason != "replica shut down" {
		t.Fatalf("submit after Close = %+v, %v; want a \"replica shut down\" decline", res, err)
	}
	if bres, err := c.SubmitBatch(ctx, 0, []Op{NewOp("credit", "k", 1), NewOp("credit", "j", 1)}); err != nil ||
		bres[0].Reason != "replica shut down" || bres[1].Reason != "replica shut down" {
		t.Fatalf("batch after Close = %+v, %v; want two \"replica shut down\" declines", bres, err)
	}
}

// TestResultCarriesItsIngressID: however a guess without an ID leaves —
// accepted (volatile or durable), accepted as a duplicate, declined by a
// rule, by a degraded or dead replica or a closed cluster, coordinated,
// traced, or inside a batch — its Result carries exactly the ID fmt
// renders for the sequence number it took at ingress, whether the set
// minted it or it was built because the op left first. Each case's
// results are its submits at r0 in order, so the n-th took number n.
func TestResultCarriesItsIngressID(t *testing.T) {
	ctx := context.Background()
	credit, overdraw := NewOp("credit", "k", 1), NewOp("debit", "k", 1000)
	submit := func(t *testing.T, c *Cluster[counterState], op Op, opts ...SubmitOption) Result {
		t.Helper()
		res, err := c.Submit(ctx, 0, op, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var full atomic.Bool
	type exit struct {
		accepted bool
		reason   string
	}
	ok, ruled := exit{accepted: true}, exit{reason: "declined by rule no-overdraft"}
	for _, tc := range []struct {
		name string
		opts []Option
		run  func(t *testing.T, c *Cluster[counterState]) []Result
		want []exit
	}{
		{"accepted", nil, func(t *testing.T, c *Cluster[counterState]) []Result {
			return []Result{submit(t, c, credit), submit(t, c, credit)}
		}, []exit{ok, ok}},
		{"accepted durable", []Option{WithDurability(t.TempDir())}, func(t *testing.T, c *Cluster[counterState]) []Result {
			return []Result{submit(t, c, credit), submit(t, c, credit)}
		}, []exit{ok, ok}},
		{"duplicate", nil, func(t *testing.T, c *Cluster[counterState]) []Result {
			taken := credit
			taken.ID = "r0-000001" // a caller's ID takes no sequence number
			submit(t, c, taken)
			return []Result{submit(t, c, credit)}
		}, []exit{ok}},
		{"rule decline", nil, func(t *testing.T, c *Cluster[counterState]) []Result {
			return []Result{submit(t, c, credit), submit(t, c, overdraw), submit(t, c, credit)}
		}, []exit{ok, ruled, ok}},
		{"degraded", []Option{WithDurability(t.TempDir()), WithStoreFS(replicaFS("r0", &full, syscall.ENOSPC))},
			func(t *testing.T, c *Cluster[counterState]) []Result {
				full.Store(true)
				defer full.Store(false)
				// The first fails its flush after the set minted its ID; the
				// second meets the degraded replica before admission.
				return []Result{submit(t, c, credit), submit(t, c, credit)}
			}, []exit{{reason: ReasonDegraded}, {reason: ReasonDegraded}}},
		{"replica down", nil, func(t *testing.T, c *Cluster[counterState]) []Result {
			first := submit(t, c, credit)
			c.Kill(0)
			return []Result{first, submit(t, c, credit)}
		}, []exit{ok, {reason: "replica down"}}},
		{"shut down", nil, func(t *testing.T, c *Cluster[counterState]) []Result {
			c.Close()
			return []Result{submit(t, c, credit)}
		}, []exit{{reason: "replica shut down"}}},
		{"coordinated", nil, func(t *testing.T, c *Cluster[counterState]) []Result {
			return []Result{submit(t, c, credit, syncSubmit...), submit(t, c, overdraw, syncSubmit...), submit(t, c, credit)}
		}, []exit{ok, ruled, ok}},
		{"traced", []Option{WithTracer(trace.New(trace.Options{SampleEvery: 2}))}, func(t *testing.T, c *Cluster[counterState]) []Result {
			var out []Result
			for i := 0; i < 8; i++ {
				out = append(out, submit(t, c, credit))
			}
			return out
		}, []exit{ok, ok, ok, ok, ok, ok, ok, ok}},
		{"SubmitBatch", nil, func(t *testing.T, c *Cluster[counterState]) []Result {
			res, err := c.SubmitBatch(ctx, 0, []Op{credit, overdraw, credit})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, []exit{ok, ruled, ok}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithTransport(rpc.NewSimTransport(sim.New(3))), WithReplicas(2)}, tc.opts...)
			c := New[counterState](counterApp{}, []Rule[counterState]{noOverdraft()}, opts...)
			defer c.Close()
			got := tc.run(t, c)
			if len(got) != len(tc.want) {
				t.Fatalf("%d results, want %d", len(got), len(tc.want))
			}
			for i, res := range got {
				id := uniq.ID(fmt.Sprintf("r0-%06d", i+1))
				if res.Op.ID != id || res.Accepted != tc.want[i].accepted || res.Reason != tc.want[i].reason {
					t.Errorf("submit %d: ID %q accepted %v reason %q; want %q, %v, %q",
						i+1, res.Op.ID, res.Accepted, res.Reason, id, tc.want[i].accepted, tc.want[i].reason)
				}
			}
		})
	}
}
