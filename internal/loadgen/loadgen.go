// Package loadgen is the sustained traffic generator: a txsim-style
// workload driver that holds a configurable ops/s target against a
// running quicksand deployment — an in-process cluster (volatile or
// durable) or real daemons reached through the client SDK — for a
// configurable duration, with rate, concurrency, key-space size, key
// distribution, operation mix, and risk-policy mix as first-class knobs.
//
// Where the experiment harness (internal/experiment) answers "is the
// protocol right?" on 500ms deterministic micro-windows, loadgen answers
// "does the system hold up?": it streams per-second throughput and
// latency quantiles while it runs, and returns a machine-readable Report
// (throughput, p50/p99/p999, decline rate, apology rate) when it stops.
// The scenario sub-package composes this driver with fault injection
// into named, seeded chaos experiments.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Op is one operation the driver offers: the business fields plus the
// risk route. Targets translate it into their stack's submit call.
type Op struct {
	Kind string
	Key  string
	Arg  int64
	Sync bool // coordinate across replicas instead of guessing
}

// OpGen produces the next operation for one worker. r is the worker's
// private seeded source and elapsed is the time since the run started —
// scenarios use it to phase their traffic (a hot-key spike mid-run).
type OpGen func(r *rand.Rand, elapsed time.Duration) Op

// KeyDist names a built-in key distribution.
type KeyDist string

const (
	// Uniform spreads traffic evenly over the key space.
	Uniform KeyDist = "uniform"
	// Zipf skews traffic so a few keys take most of it (skew ZipfSkew).
	Zipf KeyDist = "zipf"
	// HotKey sends HotFrac of the traffic to one designated key and the
	// rest uniformly — the flash-sale shape.
	HotKey KeyDist = "hotkey"
)

// Spec configures one driver run. Zero values select the documented
// defaults; Gen overrides the knob-built operation stream entirely.
type Spec struct {
	Workers  int           // concurrent submitters (default GOMAXPROCS)
	Rate     float64       // target offered ops/s across all workers; 0 = closed loop (as fast as the target accepts)
	Duration time.Duration // how long to sustain (default 5s)
	Batch    int           // ops per request; <=1 submits one at a time

	Keys      int     // key-space size (default 256)
	KeyPrefix string  // key name prefix (default "acct")
	Dist      KeyDist // key distribution (default Uniform)
	ZipfSkew  float64 // Zipf parameter s > 1 (default 1.2)
	HotFrac   float64 // HotKey: fraction of ops on the hot key (default 0.5)

	DepositFrac float64 // P(op is a deposit); the rest withdraw (default 0.8)
	SyncFrac    float64 // P(op coordinates synchronously) (default 0)
	MaxArg      int64   // op amounts are 1..MaxArg (default 100)

	Seed int64 // worker w draws from Seed+w; same spec+seed = same offered stream

	// Gen, when non-nil, replaces the knob-built stream: it is called
	// once per worker to build that worker's private generator.
	Gen func(worker int, r *rand.Rand) OpGen

	// Out, when non-nil, receives one progress line per second.
	Out io.Writer
}

func (s Spec) withDefaults() Spec {
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.Keys <= 0 {
		s.Keys = 256
	}
	if s.KeyPrefix == "" {
		s.KeyPrefix = "acct"
	}
	if s.Dist == "" {
		s.Dist = Uniform
	}
	if s.ZipfSkew <= 1 {
		s.ZipfSkew = 1.2
	}
	if s.HotFrac <= 0 || s.HotFrac > 1 {
		s.HotFrac = 0.5
	}
	if s.DepositFrac <= 0 || s.DepositFrac > 1 {
		s.DepositFrac = 0.8
	}
	if s.MaxArg <= 0 {
		s.MaxArg = 100
	}
	return s
}

// HotKeyName is the designated hot key of the HotKey distribution.
func (s Spec) HotKeyName() string { return s.KeyPrefix + "-hot" }

// gen builds worker w's operation generator from the knobs (or hands
// back the caller's custom Gen).
func (s Spec) gen(w int, r *rand.Rand) OpGen {
	if s.Gen != nil {
		return s.Gen(w, r)
	}
	var key func() string
	switch s.Dist {
	case Zipf:
		key = workload.ZipfKeys(r, s.KeyPrefix, s.ZipfSkew, s.Keys)
	case HotKey:
		uniform := workload.UniformKeys(r, s.KeyPrefix, s.Keys)
		hot := s.HotKeyName()
		frac := s.HotFrac
		key = func() string {
			if r.Float64() < frac {
				return hot
			}
			return uniform()
		}
	default:
		key = workload.UniformKeys(r, s.KeyPrefix, s.Keys)
	}
	return func(r *rand.Rand, _ time.Duration) Op {
		op := Op{Key: key(), Arg: 1 + r.Int63n(s.MaxArg)}
		if r.Float64() < s.DepositFrac {
			op.Kind = "deposit"
		} else {
			op.Kind = "withdraw"
		}
		op.Sync = s.SyncFrac > 0 && r.Float64() < s.SyncFrac
		return op
	}
}

// Report is the measured outcome of one driver run.
type Report struct {
	Offered  int64 // operations submitted
	Accepted int64 // submits the target took
	Declined int64 // business declines (rule refused, replica down, ...)
	Errors   int64 // transport/infrastructure errors

	Elapsed     time.Duration
	OpsPerSec   float64 // accepted / elapsed
	DeclineRate float64 // declined / offered
	ErrorRate   float64 // errors / offered

	P50Ns  float64 // submit latency quantiles, nanoseconds
	P99Ns  float64
	P999Ns float64

	Apologies    int64   // target apology-queue total after the run
	ApologyRate  float64 // apologies / accepted
	SyncDeclined int64   // declines of coordinated submits (bounded-surplus allowance in invariants)
	// RetryableDeclined counts transient declines (degraded shard). A
	// retryable decline may cover work that was absorbed and replicated
	// before its durability failed — declined-but-recorded, the second
	// bounded-surplus allowance.
	RetryableDeclined int64

	Workers int // effective worker count the run used
	Batch   int // effective ops per request (>=1)
}

// counters is the driver's shared, atomically updated tally.
type counters struct {
	offered           atomic.Int64
	accepted          atomic.Int64
	declined          atomic.Int64
	errors            atomic.Int64
	syncDeclined      atomic.Int64
	retryableDeclined atomic.Int64
}

// Run drives tgt with the spec until the duration elapses or ctx is
// cancelled, then returns the measured Report. Worker w submits through
// entry point w mod tgt.Entries() — on a cluster target that pins
// workers to replicas, on a daemon target to daemons — so traffic keeps
// flowing when chaos takes one entry down.
func Run(ctx context.Context, tgt Target, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	entries := tgt.Entries()
	if entries < 1 {
		return nil, fmt.Errorf("loadgen: target has no entry points")
	}

	var (
		cts  counters
		hist stats.LatHist
		wg   sync.WaitGroup
	)
	runCtx, cancel := context.WithTimeout(ctx, spec.Duration)
	defer cancel()

	start := time.Now()
	stopReporter := startReporter(spec.Out, &cts, &hist, tgt, start)

	// Per-worker pacing: each worker owns 1/Workers of the offered rate
	// and fires on a fixed schedule (next = prev + interval), so a stall
	// is followed by catch-up — offered load stays honest under brief
	// target hiccups instead of silently degrading to closed loop.
	var interval time.Duration
	if spec.Rate > 0 {
		interval = time.Duration(float64(time.Second) * float64(spec.Workers) / spec.Rate)
	}

	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(spec.Seed + int64(w)))
			gen := spec.gen(w, r)
			entry := w % entries
			next := start
			batch := make([]Op, 0, max(spec.Batch, 1))
			for {
				if runCtx.Err() != nil {
					return
				}
				if interval > 0 {
					next = next.Add(interval)
					if d := time.Until(next); d > 0 {
						select {
						case <-runCtx.Done():
							return
						case <-time.After(d):
						}
					}
				}
				elapsed := time.Since(start)
				if spec.Batch > 1 {
					batch = batch[:0]
					for len(batch) < spec.Batch {
						batch = append(batch, gen(r, elapsed))
					}
					submitBatch(runCtx, tgt, entry, batch, &cts, &hist)
				} else {
					submitOne(runCtx, tgt, entry, gen(r, elapsed), &cts, &hist)
				}
			}
		}(w)
	}
	wg.Wait()
	stopReporter()

	elapsed := time.Since(start)
	rep := &Report{
		Offered:           cts.offered.Load(),
		Accepted:          cts.accepted.Load(),
		Declined:          cts.declined.Load(),
		Errors:            cts.errors.Load(),
		SyncDeclined:      cts.syncDeclined.Load(),
		RetryableDeclined: cts.retryableDeclined.Load(),
		Elapsed:           elapsed,
		OpsPerSec:         float64(cts.accepted.Load()) / elapsed.Seconds(),
		P50Ns:             hist.Quantile(0.50),
		P99Ns:             hist.Quantile(0.99),
		P999Ns:            hist.Quantile(0.999),
		Apologies:         int64(tgt.Apologies()),
		Workers:           spec.Workers,
		Batch:             max(spec.Batch, 1),
	}
	if rep.Offered > 0 {
		rep.DeclineRate = float64(rep.Declined) / float64(rep.Offered)
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Offered)
	}
	if rep.Accepted > 0 {
		rep.ApologyRate = float64(rep.Apologies) / float64(rep.Accepted)
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// submitOne offers one op and tallies the outcome.
func submitOne(ctx context.Context, tgt Target, entry int, op Op, cts *counters, hist *stats.LatHist) {
	cts.offered.Add(1)
	t0 := time.Now()
	out, err := tgt.Submit(ctx, entry, op)
	hist.Record(time.Since(t0).Nanoseconds())
	tally(op, out, err, cts)
}

// submitBatch offers a batch through one request and tallies each
// outcome; the request latency is recorded once (it covers the batch).
func submitBatch(ctx context.Context, tgt Target, entry int, ops []Op, cts *counters, hist *stats.LatHist) {
	cts.offered.Add(int64(len(ops)))
	t0 := time.Now()
	outs, err := tgt.SubmitBatch(ctx, entry, ops)
	hist.Record(time.Since(t0).Nanoseconds())
	if err != nil {
		cts.errors.Add(int64(len(ops)))
		return
	}
	for i, out := range outs {
		tally(ops[i], out, nil, cts)
	}
}

func tally(op Op, out Outcome, err error, cts *counters) {
	switch {
	case err != nil:
		cts.errors.Add(1)
	case out.Accepted:
		cts.accepted.Add(1)
	default:
		cts.declined.Add(1)
		if op.Sync {
			cts.syncDeclined.Add(1)
		}
		if out.Retryable {
			cts.retryableDeclined.Add(1)
		}
	}
}

// startReporter streams one line per second to out: window throughput,
// window latency quantiles, cumulative decline count, and the target's
// current apology total — the live view that makes a chaos run legible
// while it happens. Returns a stop function.
func startReporter(out io.Writer, cts *counters, hist *stats.LatHist, tgt Target, start time.Time) func() {
	if out == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		prevSnap := hist.Snapshot()
		prevAccepted := int64(0)
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
			}
			snap := hist.Snapshot()
			window := stats.HistDiff(snap, prevSnap)
			prevSnap = snap
			acc := cts.accepted.Load()
			accWindow := acc - prevAccepted
			prevAccepted = acc
			fmt.Fprintf(out, "[%3ds] %7d ops/s  p50 %-9s p99 %-9s declines %d  errors %d  apologies %d\n",
				int(time.Since(start).Seconds()), accWindow,
				stats.Dur(stats.QuantileOf(window, 0.50)), stats.Dur(stats.QuantileOf(window, 0.99)),
				cts.declined.Load(), cts.errors.Load(), tgt.Apologies())
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
