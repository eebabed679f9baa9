package main

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// A load is closed loop: every worker waits for its reply before sending
// its next op, as SDK callers and embedders do.
//
// It is fixed work, not fixed time: a warm-up of so many ops, which is
// discarded, then equal measured slices of so many ops each. The product
// keeps every op it has seen, so its heap — and with it where each garbage
// collection falls — is a function of the ops done; slices cut by op count
// hold the same collections in every run, slices cut by the clock do not.
// Workers never pause at a boundary, and when the last one is reached each
// finishes the op it has in flight, so no op is cancelled.

// tally is what the harness itself saw acknowledged, for the output checks.
type tally struct {
	attempted, failed int64
	acked             int64 // accepted submits: each must be in every replica's op set
	submits, declines [numClasses]int64
	deposited, drawn  int64 // sums over accepted submits
	// A failed submit may or may not have landed; the balance check
	// allows for either.
	unsureIn, unsureOut int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.acked += o.acked
	for c := range t.submits {
		t.submits[c] += o.submits[c]
		t.declines[c] += o.declines[c]
	}
	t.deposited += o.deposited
	t.drawn += o.drawn
	t.unsureIn += o.unsureIn
	t.unsureOut += o.unsureOut
}

func (t *tally) record(o op, out outcome) {
	t.attempted++
	c := o.kind.class()
	if c != classRead {
		t.submits[c]++
	}
	amt := int64(o.amt)
	switch {
	case out == failed:
		t.failed++
		if o.kind.withdraw() {
			t.unsureOut += amt
		} else if c != classRead {
			t.unsureIn += amt
		}
	case out == declined:
		t.declines[c]++
	case c == classRead:
	case o.kind.withdraw():
		t.acked++
		t.drawn += amt
	default:
		t.acked++
		t.deposited += amt
	}
}

// worker replays one stream against one entry point.
type worker struct {
	c   *caller
	ops []op
	// lat[c] holds the latency of every completed op of class c in
	// completion order; cut[c][k] is its length when slice k+1 began.
	// Both are sized before the clock starts.
	lat   [numClasses][]uint32
	cut   [numClasses][]int
	tally tally
	// before and after, when set, bracket each op: the layer pass opens
	// and closes its spans and interleaves its direct calls there.
	before func(i int, o op)
	after  func(i int, o op, start time.Time, d time.Duration, out outcome)
}

func newWorker(c *caller, st stream, m mix, slices int) *worker {
	w := &worker{c: c, ops: st.ops}
	share := [numClasses]float64{classGuess: 1, classSync: 2*m.pSync + 0.01, classRead: 2*m.pRead + 0.01}
	for cl := range w.lat {
		w.lat[cl] = make([]uint32, 0, int(share[cl]*float64(len(st.ops)))+64)
		w.cut[cl] = make([]int, 0, slices+2)
	}
	return w
}

func (w *worker) run(ctx context.Context, l *load) {
	seen := int32(0)
	for i := 0; !l.stop.Load(); i++ {
		o := w.ops[i%len(w.ops)]
		cl := o.kind.class()
		if w.before != nil {
			w.before(i, o)
		}
		start := time.Now()
		var out outcome
		if cl == classRead {
			out = w.c.read(ctx)
		} else {
			out = w.c.submit(ctx, kindNames[o.kind], keyNames[o.key], int64(o.amt), cl == classSync)
		}
		d := time.Since(start)
		for now := l.slice.Load(); seen < now; seen++ {
			for c := range w.cut {
				w.cut[c] = append(w.cut[c], len(w.lat[c]))
			}
		}
		if out != failed {
			w.lat[cl] = append(w.lat[cl], uint32(min(d, math.MaxUint32)))
		}
		w.tally.record(o, out)
		if w.after != nil {
			w.after(i, o, start, d, out)
		}
		l.opDone()
	}
}

// snap is the process and the stack sampled at a slice boundary.
type snap struct {
	at      time.Time
	cpu     time.Duration // user+system, from rusage
	mem     runtime.MemStats
	durable []int64 // trace lag histograms, summed over the stack's tracers
	truth   []int64
	gossip  []int64
}

func (s *stack) snap() snap {
	sn := snap{at: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&sn.mem)
	for _, t := range s.tracers {
		d, tr, _, g := t.LagHists()
		sn.durable = addCounts(sn.durable, d.Snapshot())
		sn.truth = addCounts(sn.truth, tr.Snapshot())
		sn.gossip = addCounts(sn.gossip, g.Snapshot())
	}
	return sn
}

func addCounts(sum, c []int64) []int64 {
	if sum == nil {
		return c
	}
	for i := range sum {
		sum[i] += c[i]
	}
	return sum
}

// loadPlan shapes one load: a warm-up, then equal measured slices.
type loadPlan struct {
	warmOps, sliceOps int
	slices            int
	// limit stops a load that a slow box cannot finish in time; the
	// slices completed by then are what it measured.
	limit time.Duration
	// The layer pass instruments its worker and samples its probes at
	// each boundary; both are nil end to end.
	instrument func(w *worker)
	onSnap     func(k int) // called once snaps[k] is taken
}

// load is one run of a plan over a stack.
type load struct {
	s    *stack
	plan loadPlan

	done  atomic.Int64 // ops finished, by every worker
	slice atomic.Int32 // 0 during the warm-up, then the measured slice under way
	stop  atomic.Bool

	workers   []*worker
	mu        sync.Mutex
	snaps     []snap // snaps[0] ends the warm-up, snaps[k] ends measured slice k
	lastReply time.Time
}

// opDone counts one finished op. The worker whose op completes a slice
// samples the process and opens the next slice.
func (l *load) opDone() {
	n := int(l.done.Add(1)) - l.plan.warmOps
	if n < 0 || n%l.plan.sliceOps != 0 || n/l.plan.sliceOps > l.plan.slices {
		return
	}
	k := n / l.plan.sliceOps
	l.mu.Lock()
	defer l.mu.Unlock()
	l.snaps = append(l.snaps, l.s.snap())
	if l.plan.onSnap != nil {
		l.plan.onSnap(k)
	}
	l.slice.Add(1)
	if k == l.plan.slices {
		l.stop.Store(true)
	}
}

// runLoad drives s with one worker per stream.
func runLoad(ctx context.Context, s *stack, streams []stream, m mix, plan loadPlan) *load {
	l := &load{s: s, plan: plan}
	for _, st := range streams {
		w := newWorker(s.caller(st.route), st, m, plan.slices)
		if plan.instrument != nil {
			plan.instrument(w)
		}
		l.workers = append(l.workers, w)
	}
	watchdog := time.AfterFunc(plan.limit, func() { l.stop.Store(true) })
	defer watchdog.Stop()
	var wg sync.WaitGroup
	for _, w := range l.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx, l)
		}()
	}
	wg.Wait()
	l.lastReply = time.Now()
	for _, w := range l.workers {
		w.c.close()
		for c := range w.cut {
			for len(w.cut[c]) <= plan.slices {
				w.cut[c] = append(w.cut[c], len(w.lat[c]))
			}
		}
	}
	return l
}

// measured is how many slices the load completed.
func (r *load) measured() int { return len(r.snaps) - 1 }

func (r *load) tally() tally {
	var t tally
	for _, w := range r.workers {
		t.add(w.tally)
	}
	return t
}

// sorted pools the latencies of class c completed in measured slices
// from..to over all workers.
func (r *load) sorted(c class, from, to int) []uint32 {
	var out []uint32
	for _, w := range r.workers {
		out = append(out, w.lat[c][w.cut[c][from-1]:w.cut[c][to]]...)
	}
	slices.Sort(out)
	return out
}

// completed counts ops of every class that completed in measured slice k.
func (r *load) completed(k int) int {
	n := 0
	for _, w := range r.workers {
		for c := range w.cut {
			n += w.cut[c][k] - w.cut[c][k-1]
		}
	}
	return n
}

// opsPerSec is the throughput of measured slice k.
func (r *load) opsPerSec(k int) float64 {
	return float64(r.completed(k)) / r.snaps[k].at.Sub(r.snaps[k-1].at).Seconds()
}

// quantile reads q from sorted latencies, in nanoseconds.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)])
}

// histQuantile reads q from a stats.LatHist count vector, interpolating
// inside the bucket: bucket bounds are ~6 % apart, and a bare bound would
// either repeat exactly or jump by a whole bucket between runs.
func histQuantile(counts []int64, q float64) float64 {
	total := stats.HistCount(counts)
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	seen := 0.0
	for i, c := range counts {
		if c > 0 && seen+float64(c) > rank {
			lo, hi := float64(stats.BucketBound(i)), float64(stats.BucketBound(i+1))
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(stats.BucketBound(len(counts) - 1))
}

func median(v []float64) float64 { return quartile(v, 0.5) }

// quartile reads quantile p of v by the "exclusive" method of Python's
// statistics.quantiles, which is how the benchmark's spreads are judged,
// but never leaves the range of v.
func quartile(v []float64, p float64) float64 {
	s := slices.Sorted(slices.Values(v))
	if len(s) < 2 {
		return append(s, 0)[0]
	}
	pos := p*float64(len(s)+1) - 1
	i := min(max(int(math.Floor(pos)), 0), len(s)-2)
	return s[i] + (s[i+1]-s[i])*min(max(pos-float64(i), 0), 1)
}

// spread is the distance between the first and third quartile as a share
// of the median — the steadiness figure the benchmark is judged by.
func spread(v []float64) float64 {
	if m := median(v); len(v) >= 2 && m != 0 {
		return (quartile(v, 0.75) - quartile(v, 0.25)) / math.Abs(m)
	}
	return 0
}
