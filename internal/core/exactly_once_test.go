package core

// The acknowledgement's objects are reused — pooled sinks, pooled
// per-segment carriers, buffers the store keeps — so "every submit
// resolves exactly once, with its own result" is no longer something the
// allocator guarantees by construction. These tests hold it under -race
// on the paths where reuse could cross two submits: a caller that gives
// up mid-flight, completions that re-enter the write path, a replica
// killed or a disk failing with segments in flight, and many goroutines
// coalescing behind one drain.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/uniq"
)

// TestCancelledSubmitNeverCrossesResults: 10 000 blocking submits whose
// context is cancelled mid-flight — from inside the drain, after the op
// was queued and before its result is delivered — interleaved with live
// ones. A cancelled submit returns its context's error or, when the
// result won the race, its own result; a live one always gets its own
// op back, accepted. If an abandoned sink were ever recycled, the late
// completion of a cancelled submit would land in — or wake — a live one.
func TestCancelledSubmitNeverCrossesResults(t *testing.T) {
	const workers, perWorker = 4, 2500
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var cancels sync.Map // op ID -> context.CancelFunc
			giveUp := Rule[counterState]{Name: "give-up", Admit: func(_ counterState, op Op) bool {
				if cancel, ok := cancels.Load(op.ID); ok {
					cancel.(context.CancelFunc)() // mid-flight: queued, admitted, not yet resolved
				}
				return true
			}}
			opts := []Option{WithReplicas(1)}
			liveEvery := 1
			if durable {
				// A durable ack waits for the flush, so the cancelled
				// caller is long gone when its completion lands. Live
				// submits each wait out an fsync: fewer of them.
				opts = append(opts, WithDurability(t.TempDir()))
				liveEvery = 5
			}
			c := New[counterState](counterApp{}, []Rule[counterState]{giveUp}, opts...)
			defer c.Close()
			var cancelled, raced, live atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						op := NewOp("credit", fmt.Sprintf("x%d", w), int64(i))
						op.ID = uniq.ID(fmt.Sprintf("x-%d-%d", w, i))
						ctx, cancel := context.WithCancel(context.Background())
						cancels.Store(op.ID, cancel)
						res, err := c.Submit(ctx, 0, op)
						cancels.Delete(op.ID)
						switch {
						case errors.Is(err, context.Canceled):
							cancelled.Add(1)
						case err == nil && res.Accepted && res.Op.ID == op.ID && res.Op.Arg == op.Arg:
							raced.Add(1) // ready and ctx.Done were both there; ready won
						default:
							t.Errorf("cancelled submit %s: %+v, %v", op.ID, res, err)
							return
						}
						if i%liveEvery != 0 {
							continue
						}
						op = NewOp("credit", fmt.Sprintf("l%d", w), int64(i))
						op.ID = uniq.ID(fmt.Sprintf("l-%d-%d", w, i))
						res, err = c.Submit(context.Background(), 0, op)
						if err != nil || !res.Accepted || res.Op.ID != op.ID || res.Op.Key != op.Key || res.Op.Arg != op.Arg {
							t.Errorf("live submit %s got %+v, %v", op.ID, res, err)
							return
						}
						live.Add(1)
					}
				}(w)
			}
			returned := make(chan struct{})
			go func() { wg.Wait(); close(returned) }()
			select {
			case <-returned:
			case <-time.After(2 * time.Minute):
				// What a completion landing in a sink somebody else now owns
				// looks like: its ready is already full, and the send parks
				// the drain — or the store's flush — for good.
				t.Fatal("submits hung: a completion is parked on a sink it does not own")
			}
			t.Logf("%d cancelled, %d resolved before the cancel was seen, %d live", cancelled.Load(), raced.Load(), live.Load())
			if got := cancelled.Load() + raced.Load(); got != workers*perWorker {
				t.Fatalf("%d of %d cancelled submits returned", got, workers*perWorker)
			}
			if durable && cancelled.Load() == 0 {
				t.Fatal("no submit was abandoned mid-flight: the test exercised nothing")
			}
			// A cancelled submit is still an admitted op: wait the abandoned
			// completions out, then every op is in the set exactly once.
			want := workers*perWorker + int(live.Load())
			for deadline := time.Now().Add(10 * time.Second); c.Metrics().Accepted.Value() < int64(want); {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d ops acknowledged", c.Metrics().Accepted.Value(), want)
				}
				time.Sleep(time.Millisecond)
			}
			if got := c.Replica(0).OpCount(); got != want {
				t.Fatalf("replica holds %d ops, want %d", got, want)
			}
		})
	}
}

// TestReentrantSubmitFromDurableCompletion: on a durable replica a
// completion runs inside the pooled segment's resolve — in the store's
// flush, a timer's callback live and an event on the simulator. Callbacks that submit again from
// there must each fire once, with their own op, and the carrier that is
// being resolved must not be handed to the segments they start.
func TestReentrantSubmitFromDurableCompletion(t *testing.T) {
	for _, w := range writePathWorlds {
		t.Run(w.name, func(t *testing.T) {
			const chains, depth = 8, 40
			opts, settle := w.opts()
			c := New[counterState](counterApp{}, nil, append(opts, WithReplicas(1), WithDurability(t.TempDir()))...)
			defer c.Close()
			var mu sync.Mutex
			fired := map[uniq.ID]int{}
			var done sync.WaitGroup
			var step func(chain, i int)
			step = func(chain, i int) {
				op := NewOp("credit", fmt.Sprintf("k%d", chain), 1)
				op.ID = uniq.ID(fmt.Sprintf("c%d-%d", chain, i))
				c.SubmitAsync(0, op, func(res Result) {
					if !res.Accepted || res.Op.ID != op.ID {
						t.Errorf("completion of %s got %+v", op.ID, res)
					}
					mu.Lock()
					fired[op.ID]++
					mu.Unlock()
					if i+1 < depth {
						step(chain, i+1) // re-enter from inside resolve
					} else {
						done.Done()
					}
				})
			}
			done.Add(chains)
			for chain := 0; chain < chains; chain++ {
				step(chain, 0)
			}
			settle()
			done.Wait()
			mu.Lock()
			defer mu.Unlock()
			if len(fired) != chains*depth {
				t.Fatalf("%d of %d completions fired", len(fired), chains*depth)
			}
			for id, n := range fired {
				if n != 1 {
					t.Fatalf("completion of %s fired %d times", id, n)
				}
			}
			for chain := 0; chain < chains; chain++ {
				if got := c.Replica(0).State()[fmt.Sprintf("k%d", chain)]; got != depth {
					t.Fatalf("k%d = %d, want %d", chain, got, depth)
				}
			}
		})
	}
}

// inFlight submits n ops at a live durable replica from n goroutines and
// returns once every one of them is queued or already resolved, with
// per-op resolution counts that fill in as results land.
func inFlight(t *testing.T, c *Cluster[counterState], n int) (counts []atomic.Int32, accepted *atomic.Int64, resolved *sync.WaitGroup) {
	t.Helper()
	counts = make([]atomic.Int32, n)
	accepted, resolved = new(atomic.Int64), new(sync.WaitGroup)
	resolved.Add(n)
	var queued sync.WaitGroup
	for i := 0; i < n; i++ {
		queued.Add(1)
		go func(i int) {
			op := NewOp("credit", fmt.Sprintf("k%d", i%7), 1)
			op.ID = uniq.ID(fmt.Sprintf("f-%d", i))
			c.SubmitAsync(0, op, func(res Result) {
				if res.Op.ID != op.ID {
					t.Errorf("completion of %s got %s", op.ID, res.Op.ID)
				}
				if res.Accepted {
					accepted.Add(1)
				}
				if counts[i].Add(1) == 1 {
					resolved.Done()
				}
			})
			queued.Done()
		}(i)
	}
	queued.Wait()
	return counts, accepted, resolved
}

func checkResolvedOnce(t *testing.T, counts []atomic.Int32) {
	t.Helper()
	time.Sleep(20 * time.Millisecond) // a second resolution, if any, is a flush's breath behind
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("op %d resolved %d times", i, n)
		}
	}
}

// TestKillResolvesInFlightSegmentsOnce: a replica killed with durable
// segments staged and waiting for their flush fails or acknowledges each
// item exactly once — the store's crash fan-out and a flush that was
// already under way must not both resolve a carrier.
func TestKillResolvesInFlightSegmentsOnce(t *testing.T) {
	for round := 0; round < 20; round++ {
		c := New[counterState](counterApp{}, nil, WithReplicas(1), WithDurability(t.TempDir()))
		counts, accepted, resolved := inFlight(t, c, 64)
		c.Kill(0)
		resolved.Wait()
		checkResolvedOnce(t, counts)
		if err := c.Recover(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		// Acknowledged ⇒ durable: everything that was accepted came back.
		if got := c.Replica(0).OpCount(); int64(got) < accepted.Load() {
			t.Fatalf("round %d: %d ops acknowledged, %d recovered", round, accepted.Load(), got)
		}
		c.Close()
	}
}

// TestFailingSyncResolvesInFlightSegmentsOnce: the disk starts refusing
// fsyncs with segments in flight. Every item resolves once — declined,
// retryable, degraded — and none is acknowledged after the failure.
func TestFailingSyncResolvesInFlightSegmentsOnce(t *testing.T) {
	for round := 0; round < 10; round++ {
		var broken atomic.Bool
		c := New[counterState](counterApp{}, nil, WithReplicas(1), WithDurability(t.TempDir()),
			WithStoreFS(replicaFS("r0", &broken, syscall.EIO)))
		mustSubmit(t, c, 0, NewOp("credit", "warm", 1))
		broken.Store(true)
		counts, accepted, resolved := inFlight(t, c, 64)
		resolved.Wait()
		checkResolvedOnce(t, counts)
		if accepted.Load() != 0 {
			t.Fatalf("round %d: %d ops acknowledged by a disk that refuses every write", round, accepted.Load())
		}
		for deadline := time.Now().Add(5 * time.Second); !c.Replica(0).Degraded(); {
			if time.Now().After(deadline) {
				t.Fatal("the replica never degraded")
			}
			time.Sleep(time.Millisecond)
		}
		c.Close()
	}
}

// TestManySubmittersOneDurableDrain: 64 goroutines loop blocking Submit
// at one durable replica, so segments of many items coalesce behind the
// drain lock and share flushes. Every caller gets its own op back, in the
// order it submitted them.
func TestManySubmittersOneDurableDrain(t *testing.T) {
	const workers, perWorker = 64, 40
	c := New[counterState](counterApp{}, nil, WithReplicas(1), WithDurability(t.TempDir()))
	defer c.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastLam uint64
			for i := 0; i < perWorker; i++ {
				op := NewOp("credit", fmt.Sprintf("k%d", w), int64(i))
				op.ID = uniq.ID(fmt.Sprintf("w%d-%d", w, i))
				res, err := c.Submit(ctx, 0, op)
				if err != nil || !res.Accepted || res.Op.ID != op.ID || res.Op.Arg != op.Arg {
					t.Errorf("worker %d op %d: %+v, %v", w, i, res, err)
					return
				}
				if res.Op.Lam <= lastLam {
					t.Errorf("worker %d op %d stamped Lam %d after %d", w, i, res.Op.Lam, lastLam)
					return
				}
				lastLam = res.Op.Lam
			}
		}(w)
	}
	wg.Wait()
	if got := c.Replica(0).OpCount(); got != workers*perWorker {
		t.Fatalf("replica holds %d ops, want %d", got, workers*perWorker)
	}
	want := int64(perWorker * (perWorker - 1) / 2)
	for k, v := range c.Replica(0).State() {
		if v != want {
			t.Fatalf("%s = %d, want %d", k, v, want)
		}
	}
	if st := c.DurabilityStats(); st.Fsyncs >= st.Appended {
		t.Fatalf("%d fsyncs for %d entries: nothing coalesced", st.Fsyncs, st.Appended)
	}
}
