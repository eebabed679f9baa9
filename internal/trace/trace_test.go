package trace

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// fixed clock so assertions on lags are exact.
func clockAt(ns *int64) func() int64 { return func() int64 { return *ns } }

func TestLifecycleAndLags(t *testing.T) {
	var now int64
	tr := New(Options{SampleEvery: 1, Replicas: 2})
	tr.SetClock(clockAt(&now))

	tr.Submitted("op-1", "acct-1", "r0", 100)
	tr.Admitted("op-1", "acct-1", "r0", 150)
	tr.Folded("op-1", "r0", 150)
	tr.Durable("op-1", "r0", 400)
	tr.GossipAcked("op-1", "r0", "r1", 900)

	events, ok := tr.OpTimeline("op-1")
	if !ok {
		t.Fatal("op-1 not held")
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []string{"submitted", "admitted", "folded", "fsynced", "gossiped", "truth"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("timeline kinds = %v, want %v", kinds, want)
	}

	durable, truth, apology, gossip := tr.LagHists()
	if durable.Count() != 1 || durable.Sum() != 300 {
		t.Errorf("guess-to-durable: count=%d sum=%d, want 1 sample of 300ns", durable.Count(), durable.Sum())
	}
	if truth.Count() != 1 || truth.Sum() != 800 {
		t.Errorf("guess-to-truth: count=%d sum=%d, want 1 sample of 800ns", truth.Count(), truth.Sum())
	}
	if gossip.Count() != 1 || gossip.Sum() != 800 {
		t.Errorf("gossip propagation: count=%d sum=%d, want 1 sample of 800ns", gossip.Count(), gossip.Sum())
	}

	// An apology on the key attaches to the last sampled guess; the
	// lifetime is measured from that guess's submit, like the other lags.
	tr.Apologized("acct-1", "apo-9", "r1", 2150)
	if apology.Count() != 1 || apology.Sum() != 2050 {
		t.Errorf("guess-to-apology: count=%d sum=%d, want 1 sample of 2050ns (submit at 100)", apology.Count(), apology.Sum())
	}
	events, _ = tr.OpTimeline("op-1")
	if last := events[len(events)-1]; last.Kind != "apologized" || last.Note != "apo-9" {
		t.Errorf("apology not on timeline: %+v", last)
	}
	refs := tr.Apologies(10)
	if len(refs) != 1 || refs[0].Op != "op-1" || refs[0].Key != "acct-1" {
		t.Errorf("apology refs = %+v", refs)
	}
}

func TestTruthNeedsAllReplicas(t *testing.T) {
	tr := New(Options{SampleEvery: 1, Replicas: 3})
	tr.Submitted("op-1", "k", "r0", 10)
	tr.Admitted("op-1", "k", "r0", 10)
	tr.Absorbed("op-1", "r1", 20)
	_, truth, _, _ := tr.LagHists()
	if truth.Count() != 0 {
		t.Fatalf("truth recorded with 2 of 3 replicas")
	}
	tr.Absorbed("op-1", "r2", 30)
	if truth.Count() != 1 {
		t.Fatalf("truth not recorded once all 3 replicas hold the op")
	}
}

func TestSamplingDeterministicAcrossTracers(t *testing.T) {
	a := New(Options{SampleEvery: 8})
	b := New(Options{SampleEvery: 8})
	sampled := 0
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("op-%d", i)
		if a.Sampled(id) != b.Sampled(id) {
			t.Fatalf("tracers disagree on %s", id)
		}
		if a.SampledID([]byte(id)) != a.Sampled(id) {
			t.Fatalf("SampledID and Sampled disagree on %s", id)
		}
		if a.Sampled(id) {
			sampled++
		}
	}
	// Hash sampling is approximate; 1-in-8 over 4096 IDs should land
	// within a loose factor of the target.
	if sampled < 256 || sampled > 1024 {
		t.Errorf("sampled %d of 4096 at 1-in-8 — hash badly skewed", sampled)
	}
}

// TestBoundedMemory drives far more sampled ops, keys, and apologies
// through a tiny tracer than it is configured to hold and asserts every
// internal structure stays at its cap.
func TestBoundedMemory(t *testing.T) {
	const maxOps = 32
	tr := New(Options{SampleEvery: 1, RingSize: 64, MaxOps: maxOps, Replicas: 1})
	for i := 0; i < 50*maxOps; i++ {
		op := fmt.Sprintf("op-%d", i)
		key := fmt.Sprintf("k-%d", i)
		tr.Submitted(op, key, "r0", int64(i))
		tr.Admitted(op, key, "r0", int64(i))
		tr.Durable(op, "r0", int64(i)+5)
		// Many events on one op must not grow its timeline unboundedly.
		for j := 0; j < 2*maxTimeline; j++ {
			tr.Folded(op, "r0", int64(i)+int64(j))
		}
		tr.Apologized(key, fmt.Sprintf("apo-%d", i), "r0", int64(i)+9)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if got := len(tr.states) * int(statesPerBlock); got > max(maxOps, int(statesPerBlock)) {
		t.Errorf("op state blocks grew to %d states, cap %d", got, maxOps)
	}
	for _, x := range []*index{&tr.ops, &tr.guesses} {
		if x.n > maxOps || len(x.slots) > 4*maxOps {
			t.Errorf("index (byKey %v) grew to %d entries in %d slots, cap %d entries", x.byKey, x.n, len(x.slots), maxOps)
		}
	}
	if len(tr.ring) != 64 {
		t.Errorf("ring resized to %d", len(tr.ring))
	}
	if len(tr.apologies) > maxApologyRefs {
		t.Errorf("apology refs grew to %d, cap %d", len(tr.apologies), maxApologyRefs)
	}
	if len(tr.notes) > maxOps {
		t.Errorf("notes kept for %d ops, cap %d", len(tr.notes), maxOps)
	}
	if len(tr.ringNotes) > len(tr.ring) {
		t.Errorf("ring notes grew to %d, ring %d", len(tr.ringNotes), len(tr.ring))
	}
	if len(tr.names) != 2 { // "" and r0
		t.Errorf("interned %d names, want 2", len(tr.names))
	}
	// Every chunk handed out is on exactly one held timeline or on the
	// free list, and no timeline passes maxTimeline.
	used := 0
	for num := int32(0); num < maxOps; num++ {
		st := tr.state(num)
		if st.n > maxTimeline {
			t.Errorf("timeline for %s grew to %d, cap %d", st.id, st.n, maxTimeline)
		}
		chunks := 0
		for c := st.head; c != 0; c = tr.chunk(c).next {
			chunks++
		}
		if want := (int(st.n) + chunkLen - 1) / chunkLen; chunks != want {
			t.Errorf("timeline for %s: %d events in %d chunks, want %d", st.id, st.n, chunks, want)
		}
		used += chunks
	}
	for c := tr.free; c != 0; c = tr.chunk(c).next {
		used++
	}
	if used != int(tr.nchunks) {
		t.Errorf("%d chunks handed out, %d on timelines or free", tr.nchunks, used)
	}
	if limit := maxOps * maxTimeline / chunkLen; int(tr.nchunks) > limit {
		t.Errorf("timeline chunks grew to %d, cap %d", tr.nchunks, limit)
	}
}

// TestTruthForLargeShards: each replica of a shard holds its own bit, so
// truth is recorded for a 31-replica shard once r0…r30 all hold the op —
// and not before — even where two names' hashes would share a bit.
func TestTruthForLargeShards(t *testing.T) {
	for _, prefix := range []string{"", "s3/"} {
		tr := New(Options{SampleEvery: 1, Replicas: 31})
		tr.Absorbed("op-1", prefix+"r0", 1) // another shard's names take no bit from this one
		tr.Absorbed("op-2", "s9/r0", 1)
		tr.Submitted("op-1", "k", prefix+"r0", 10)
		tr.Admitted("op-1", "k", prefix+"r0", 10)
		_, truth, _, _ := tr.LagHists()
		for i := 1; i <= 30; i++ {
			if truth.Count() != 0 {
				t.Fatalf("%q: truth recorded with %d of 31 replicas", prefix, i)
			}
			tr.Absorbed("op-1", fmt.Sprintf("%sr%d", prefix, i), int64(10+i))
		}
		if truth.Count() != 1 || truth.Sum() != 30 {
			t.Errorf("%q: truth count=%d sum=%d once r0…r30 hold the op, want 1 sample of 30ns", prefix, truth.Count(), truth.Sum())
		}
	}
}

// TestGossipAckedCountsEachPeerOnce: the propagation histogram has one
// sample per op and acking peer: a peer acking the op again through a
// second pusher adds none.
func TestGossipAckedCountsEachPeerOnce(t *testing.T) {
	tr := New(Options{SampleEvery: 1, Replicas: 3})
	tr.Submitted("op-1", "k", "r0", 0)
	tr.Admitted("op-1", "k", "r0", 0)
	_, _, _, gossip := tr.LagHists()
	for _, c := range []struct {
		pusher, peer string
		want         int64
	}{
		{"r0", "r1", 1},
		{"r2", "r1", 1}, // r1 again, relayed through r2
		{"r0", "r2", 2},
		{"r1", "r2", 2},
	} {
		tr.GossipAcked("op-1", c.pusher, c.peer, 10)
		if gossip.Count() != c.want {
			t.Fatalf("after %s acked a push from %s: %d samples, want %d", c.peer, c.pusher, gossip.Count(), c.want)
		}
	}
	if events, _ := tr.OpTimeline("op-1"); len(events) != 2+4+1 {
		t.Errorf("timeline has %d events, want every ack on it (and truth)", len(events))
	}
}

// TestDisabledTracerZeroAlloc pins the disabled-path contract the
// engine relies on: a nil tracer behind the call-site gate costs zero
// allocations, and the lock-free Sampled check allocates nothing
// either.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer // tracing off: exactly what core's cfg.tracer holds
	op, key := "op-123456", "acct-7"
	if allocs := testing.AllocsPerRun(1000, func() {
		// The call-site pattern used throughout core: one nil check.
		if tr != nil {
			tr.Submitted(op, key, "r0", 1)
			tr.Admitted(op, key, "r0", 2)
			tr.Durable(op, "r0", 3)
		}
		// These two are documented nil-receiver-safe.
		tr.Annotate("never recorded")
		tr.Apologized(key, "a", "r0", 4)
	}); allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per op", allocs)
	}

	live := New(Options{SampleEvery: 1 << 20}) // sample ~nothing
	opBytes := []byte(op)
	if allocs := testing.AllocsPerRun(1000, func() {
		if !live.Sampled(op) && !live.SampledID(opBytes) {
			return
		}
		t.Fatal("op unexpectedly sampled")
	}); allocs != 0 {
		t.Fatalf("Sampled allocates %v per call", allocs)
	}
}

func TestRecentAndAnnotations(t *testing.T) {
	tr := New(Options{SampleEvery: 1, RingSize: 16, Replicas: 1})
	tr.Annotate("phase one")
	tr.Submitted("op-1", "k", "r0", 5)
	tr.Annotate("phase two")
	events := tr.Recent(100)
	if len(events) != 3 {
		t.Fatalf("recent = %d events, want 3", len(events))
	}
	if events[0].Note != "phase one" || events[2].Note != "phase two" {
		t.Errorf("annotation order wrong: %+v", events)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Errorf("seq not increasing: %+v", events)
		}
	}
	// Overflow the ring; Recent returns only the newest entries.
	for i := 0; i < 100; i++ {
		tr.Annotate(fmt.Sprintf("a%d", i))
	}
	events = tr.Recent(1000)
	if len(events) != 16 {
		t.Fatalf("recent after overflow = %d, want ring size 16", len(events))
	}
	if events[len(events)-1].Note != "a99" {
		t.Errorf("newest event = %+v, want a99", events[len(events)-1])
	}
}

// TestTracerOwnsItsStrings: an op's ID and key reach the tracer as cuts of
// something larger — a request body at the HTTP edge, a gossip frame — and
// the tracer may remember them long after; it must keep copies, or each
// sampled op pins the whole of what it was cut from.
func TestTracerOwnsItsStrings(t *testing.T) {
	body := strings.Repeat("x", 1<<10) + "op-1" + "acct-1"
	id, key := body[1<<10:][:4], body[1<<10+4:]
	tr := New(Options{SampleEvery: 1})
	tr.Submitted(id, key, "r0", 1)
	tr.Admitted(id, key, "r0", 2)
	tr.Folded(id, "r0", 2)
	tr.Apologized(key, "apology-1", "r0", 3)
	inBody := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(body)))
		return s != "" && p >= lo && p < lo+uintptr(len(body))
	}
	events, _ := tr.OpTimeline("op-1")
	if len(events) != 5 { // the four above, and truth: one replica holds it
		t.Fatalf("timeline has %d events, want 5", len(events))
	}
	for _, ev := range append(events, tr.Recent(16)...) {
		if ev.Op != "op-1" || ev.Key != "acct-1" {
			t.Fatalf("event %+v lost its op or key", ev)
		}
		if inBody(ev.Op) || inBody(ev.Key) {
			t.Fatalf("%s event holds a cut of the caller's buffer", ev.Kind)
		}
	}
	for _, ref := range tr.Apologies(4) {
		if inBody(ref.Op) || inBody(ref.Key) {
			t.Fatal("apology reference holds a cut of the caller's buffer")
		}
	}
}
