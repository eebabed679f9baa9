package trace

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/testenv"
)

const defaultMaxOps = 4096 // Options.MaxOps when zero

// lifecycle records one sampled op's events in one of the two shapes
// the benchmark sees: 13 events, an op guessed at one of three
// in-process replicas and carried to the other two; or 6, an op guessed
// at one of two daemons and acked by the other.
func lifecycle(tr *Tracer, op, key string, events int, at int64) {
	tr.Submitted(op, key, "r0", at)
	tr.Admitted(op, key, "r0", at+1)
	tr.Folded(op, "r0", at+2)
	tr.Durable(op, "r0", at+3)
	if events == 6 {
		tr.GossipAcked(op, "r0", "r1", at+4) // and truth: both daemons hold it
		return
	}
	tr.GossipAcked(op, "r0", "r1", at+4)
	tr.GossipAcked(op, "r0", "r2", at+5) // and truth: all three hold it
	for _, r := range []string{"r1", "r2"} {
		tr.Absorbed(op, r, at+6)
		tr.Folded(op, r, at+7)
		tr.Durable(op, r, at+8)
	}
}

// shapeReplicas is the replica count each lifecycle shape runs under.
func shapeReplicas(events int) int {
	if events == 6 {
		return 2
	}
	return 3
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTracerFootprint pins what the tracer keeps: what New retains at
// defaults, and the heap bytes one sampled op costs once the tracer is
// full and recycling — its op state, its share of the timeline blocks
// and of both indexes, and its own copies of the ID and key — at the 13-
// and 6-event shapes. Twice MaxOps ops are driven through, so the
// number is the steady state, not a tracer still filling.
func TestTracerFootprint(t *testing.T) {
	testenv.SkipUnderRace(t)
	base := liveHeap()
	empty := New(Options{})
	retained := liveHeap() - base
	runtime.KeepAlive(empty)
	t.Logf("New at defaults retains %d B", retained)
	if retained > 320<<10 {
		t.Errorf("New at defaults retains %d B, budget %d", retained, 320<<10)
	}

	for _, c := range []struct {
		events int
		budget float64
	}{{13, 600}, {6, 400}} {
		ids := make([]string, 2*defaultMaxOps)
		keys := make([]string, len(ids))
		for i := range ids {
			ids[i], keys[i] = fmt.Sprintf("r0-%06d", i), fmt.Sprintf("acct-%d", i)
		}
		tr := New(Options{SampleEvery: 1, Replicas: shapeReplicas(c.events)})
		before := liveHeap()
		for i := range ids {
			lifecycle(tr, ids[i], keys[i], c.events, int64(i)*10)
		}
		per := float64(liveHeap()-before) / defaultMaxOps
		runtime.KeepAlive(ids) // the caller's strings are not the tracer's
		runtime.KeepAlive(keys)
		if events, _ := tr.OpTimeline(fmt.Sprintf("r0-%06d", 2*defaultMaxOps-1)); len(events) != c.events {
			t.Fatalf("%d-event shape recorded %d events", c.events, len(events))
		}
		runtime.KeepAlive(tr)
		t.Logf("%d events: %.0f B per sampled op", c.events, per)
		if per > c.budget {
			t.Errorf("a sampled op of %d events costs %.0f B, budget %.0f", c.events, per, c.budget)
		}
	}
}

// TestSampledOpAllocs pins what a sampled op's whole lifecycle allocates:
// its own copies of its ID and key, and nothing else — not while the
// tracer fills (block and index growth amortize below one), and not
// once it is full and recycles its oldest op for each new one.
func TestSampledOpAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	const runs = 1000
	for _, full := range []bool{false, true} {
		ids := make([]string, defaultMaxOps+runs+1)
		keys := make([]string, len(ids))
		for i := range ids {
			ids[i], keys[i] = fmt.Sprintf("r0-%06d", i), fmt.Sprintf("acct-%d", i)
		}
		tr := New(Options{SampleEvery: 1, Replicas: 3})
		next := 0
		if full {
			for ; next < defaultMaxOps; next++ {
				lifecycle(tr, ids[next], keys[next], 13, int64(next))
			}
		}
		got := testing.AllocsPerRun(runs, func() {
			lifecycle(tr, ids[next], keys[next], 13, int64(next))
			next++
		})
		t.Logf("full=%v: %.0f allocations per sampled lifecycle", full, got)
		if got > 2 {
			t.Errorf("full=%v: a sampled lifecycle allocates %.0f times, budget 2 (its ID and key)", full, got)
		}
	}
}
