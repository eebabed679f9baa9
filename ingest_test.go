package quicksand_test

// The public-surface acceptance suite for the write path: the standard
// ingest schedule surfaces exactly the apologies it should on both
// transports, both fold engines agree on batched ingest, and the
// lock-free read path stays safe under concurrent ingest and
// kill/recover churn. The batch-size-invariance differential — the same
// outcomes whatever the drain's batch cap, judged against a sequential
// oracle — lives in internal/core, next to the cap it turns.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	quicksand "repro"
)

// ingestWorkload drives one cluster through a schedule whose outcomes
// are timing-independent: every account is seeded and converged before
// any check clears, each key's checks are always submitted at the same
// replica (so the local guess covers them identically in every run), and
// two deliberate overdraft pairs — concurrent clears of the same seeded
// account at different replicas, each locally covered — produce exactly
// two standing violations once gossip merges them. It returns the
// apology total.
func ingestWorkload(t *testing.T, h harness) int {
	t.Helper()
	c, d := h.newCluster(t)
	defer c.Close()
	ctx := context.Background()
	const nKeys = 12
	key := func(k int) string { return fmt.Sprintf("acct-%02d", k) }
	repOf := func(k int) int { return k % c.Replicas() }

	// Seed and converge, so every replica's guess covers what follows.
	for k := 0; k < nKeys; k++ {
		op := quicksand.NewOp("deposit", key(k), 1000)
		op.ID = quicksand.OpID(fmt.Sprintf("seed-%02d", k))
		if res, err := c.Submit(ctx, repOf(k), op); err != nil || !res.Accepted {
			t.Fatalf("seed %d = %+v, %v", k, res, err)
		}
	}
	d.converge(t, c)

	// Single submits: deposits, covered checks, and a decline per key (a
	// check far beyond the balance, refused by the local guess).
	for i := 0; i < 6*nKeys; i++ {
		k := i % nKeys
		kind, arg := "deposit", int64(10+i%7)
		switch i % 3 {
		case 1:
			kind, arg = "clear-check", int64(1+i%5)
		case 2:
			if i%6 == 5 {
				kind, arg = "clear-check", 1_000_000 // always declined
			}
		}
		op := quicksand.NewOp(kind, key(k), arg)
		op.ID = quicksand.OpID(fmt.Sprintf("one-%03d", i))
		if _, err := c.Submit(ctx, repOf(k), op); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// A bulk batch with mixed keys, exercising the vectorized path (and
	// the scatter path on sharded clusters).
	batch := make([]quicksand.Op, 4*nKeys)
	for i := range batch {
		k := i % nKeys
		batch[i] = quicksand.NewOp("deposit", key(k), int64(i+1))
		batch[i].ID = quicksand.OpID(fmt.Sprintf("blk-%03d", i))
	}
	if _, err := c.SubmitBatch(ctx, 0, batch); err != nil {
		t.Fatalf("batch: %v", err)
	}
	// Idempotent retries of work already accepted.
	for _, id := range []string{"one-000", "blk-000", "seed-00"} {
		op := quicksand.NewOp("deposit", key(0), 999)
		op.ID = quicksand.OpID(id)
		res, err := c.Submit(ctx, 0, op)
		if err != nil || !res.Accepted {
			t.Fatalf("retry %s = %+v, %v", id, res, err)
		}
	}
	// A mixed-policy batch: clears coordinate (ByKind), deposits guess.
	// The sync clear sits between two async deposits on the same key, so
	// it must observe the first deposit's absorption (strictly greater
	// Lamport stamp) — a coordinated op never overtakes a queued guess.
	mixed := []quicksand.Op{
		quicksand.NewOp("deposit", key(2), 7),
		quicksand.NewOp("clear-check", key(2), 3),
		quicksand.NewOp("deposit", key(2), 11),
		quicksand.NewOp("clear-check", key(3), 5),
		quicksand.NewOp("deposit", key(4), 9),
	}
	for i := range mixed {
		mixed[i].ID = quicksand.OpID(fmt.Sprintf("mix-%02d", i))
	}
	mres, err := c.SubmitBatch(ctx, 0, mixed, quicksand.WithPolicy(quicksand.ByKind("clear-check")))
	if err != nil {
		t.Fatalf("mixed batch: %v", err)
	}
	for i, res := range mres {
		if !res.Accepted {
			t.Fatalf("mixed op %d declined: %s", i, res.Reason)
		}
	}
	if mres[1].Decision != quicksand.Sync || mres[0].Decision != quicksand.Async {
		t.Fatalf("mixed decisions = %v/%v, want async/sync", mres[0].Decision, mres[1].Decision)
	}
	if mres[1].Op.Lam <= mres[0].Op.Lam {
		t.Fatalf("sync clear stamped Lam %d, not after the queued deposit's %d — it overtook the guess",
			mres[1].Op.Lam, mres[0].Op.Lam)
	}
	// The deliberate overdraft pairs: accounts 0 and 1 hold well under
	// 2×600, yet each clear is covered by its submitting replica's local
	// guess, so both are accepted everywhere and the merged truth goes
	// negative — a standing violation discovered at convergence.
	for _, k := range []int{0, 1} {
		bal := c.ShardStates(c.ShardOf(key(k)))[0][key(k)]
		half := bal/2 + 100 // covered alone, overdrawn together
		for r := 0; r < 2; r++ {
			op := quicksand.NewOp("clear-check", key(k), half)
			op.ID = quicksand.OpID(fmt.Sprintf("odr-%d-%d", k, r))
			res, err := c.Submit(ctx, r, op)
			if err != nil || !res.Accepted {
				t.Fatalf("overdraft pair %d/%d = %+v, %v", k, r, res, err)
			}
		}
	}
	d.converge(t, c)
	// One more fold everywhere so every replica has swept the merged
	// truth for violations.
	c.States()
	return c.Apologies.Total()
}

// TestIngestWorkloadSurfacesApologies runs the schedule end to end —
// its inline assertions cover idempotent retries and a coordinated op
// never overtaking a queued guess — and pins its apology count: each
// overdraft pair is one apology, exactly once.
func TestIngestWorkloadSurfacesApologies(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		if apologies := ingestWorkload(t, h); apologies != 2 {
			t.Fatalf("workload produced %d apologies, want 2", apologies)
		}
	})
}

// TestFoldEnginesAgreeUnderBatchedIngest extends TestFoldEnginesAgree
// to bulk ingest: when a whole SubmitBatch is absorbed and folded as one
// segment, the checkpointed fold must still equal the genesis replay.
func TestFoldEnginesAgreeUnderBatchedIngest(t *testing.T) {
	forEachTransport(t, func(t *testing.T, h harness) {
		c, d := h.newCluster(t)
		defer c.Close()
		batch := make([]quicksand.Op, 60)
		for i := range batch {
			batch[i] = quicksand.NewOp("deposit", fmt.Sprintf("acct-%d", i%5), int64(10+i))
		}
		if _, err := c.SubmitBatch(context.Background(), 0, batch); err != nil {
			t.Fatal(err)
		}
		d.converge(t, c)
		assertGenesisReplay(t, c)
	})
}

// TestConcurrentReadersDuringIngest is the lock-free read acceptance
// test, meant for -race: reader goroutines hammer State, ShardStates,
// and OpCount while batched writers ingest and one replica is
// kill/recover churned. Readers must never observe a torn fold snapshot
// (the race detector would flag a map read racing a fold) and never
// observe a state the engine later mutates in place — every snapshot
// must still sum consistently after the fact. Each writer also reads its
// own acknowledged write back at once: an ack is visible to the next
// State() on that replica.
func TestConcurrentReadersDuringIngest(t *testing.T) {
	dir := t.TempDir()
	c := quicksand.New[balances](exampleApp{}, nil,
		quicksand.WithGossipEvery(time.Millisecond),
		quicksand.WithDurability(dir),
		quicksand.WithSnapshotEvery(256))
	defer c.Close()
	ctx := context.Background()

	const (
		writers   = 4
		perWriter = 30
		batchSize = 25
		readers   = 4
	)
	var stop atomic.Bool
	var readWG, writeWG sync.WaitGroup

	// Readers: never touch the replica lock on the fast path, never see a
	// torn fold (the race detector would flag a map read racing a fold),
	// and — this being a deposit-only workload — never see a negative
	// balance through any snapshot.
	for rd := 0; rd < readers; rd++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for !stop.Load() {
				for i := 0; i < c.Replicas(); i++ {
					st := c.Replica(i).State()
					for acct, bal := range st {
						if bal < 0 {
							t.Errorf("negative balance %d for %s in a deposit-only workload", bal, acct)
							return
						}
					}
					_ = c.Replica(i).OpCount()
				}
				_ = c.ShardStates(0)
			}
		}()
	}

	// The churn: kill and recover replica 2 while ingest runs at 0 and 1.
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for !stop.Load() {
			c.Kill(2)
			time.Sleep(2 * time.Millisecond)
			if err := c.Recover(ctx, 2); err != nil {
				t.Errorf("recover: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Writers: deposits with fixed IDs so kills can never double-apply.
	// The first op of every batch goes to an account only this writer
	// touches, and the writer reads it back through State() the moment the
	// batch is acknowledged: ack ⇒ visible. Nothing publishes on the write
	// path any more, so this read is the one that takes the locked
	// fallback — it must never be served a publication that predates the
	// ack.
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			own := fmt.Sprintf("own-%d", w)
			for i := 0; i < perWriter; i++ {
				batch := make([]quicksand.Op, batchSize)
				for j := range batch {
					batch[j] = quicksand.NewOp("deposit", fmt.Sprintf("acct-%d", j%7), 1)
					batch[j].ID = quicksand.OpID(fmt.Sprintf("w%d-%d-%d", w, i, j))
				}
				batch[0].Key = own
				if _, err := c.SubmitBatch(ctx, w%2, batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if got := c.Replica(w % 2).State()[own]; got != int64(i+1) {
					t.Errorf("writer %d: acknowledged batch %d not visible: %s = %d, want %d", w, i, own, got, i+1)
					return
				}
			}
		}(w)
	}

	writeWG.Wait()
	stop.Store(true)
	readWG.Wait()
	if t.Failed() {
		return
	}
	// Everything accepted at a live replica must converge; replica 2 may
	// have come back mid-stream, so give gossip a window to refill it.
	deadline := time.Now().Add(10 * time.Second)
	for !c.Converged() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !c.Converged() {
		t.Fatal("cluster did not converge after churn")
	}
	// The submitting replicas never died, so no accepted deposit was
	// lost: the converged total must cover every acknowledged batch.
	var want int64 = writers * perWriter * batchSize
	var got int64
	for _, bal := range c.Replica(0).State() {
		got += bal
	}
	if got != want {
		t.Fatalf("converged total = %d, want %d", got, want)
	}
}
