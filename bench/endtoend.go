package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/stats"
)

const (
	workers        = 2 // = nproc on the reference box; more workers than cores measures the scheduler
	measuredSlices = 5 // after one warm-up slice, which is discarded
)

// config is what one run is asked to do.
type config struct {
	seed    int64
	seconds float64 // measured time; the warm-up slice comes on top
	outDir  string  // result and span files; durable stores live under outDir/data
	spec    *contract
}

// Set-up is repeated so that setup_s is not one sample: until the set-ups
// have taken setUpShare of the seconds asked for, maxSetUps at most.
const (
	setUpShare = 0.125
	maxSetUps  = 25
)

func (c config) moreSetUps(done int, took float64) bool {
	return done == 0 || done < maxSetUps && took < setUpShare*c.seconds
}

// metric is one reported number. Spread and N are shown to the reader
// but are not part of the one-line result the driver parses.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"` // IQR/median over the measured slices
	N      int     `json:"n,omitempty"`      // samples behind a percentile
}

// runResult is one run of one workload, end to end or traced.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []check           `json:"checks"`
	Notes     []string          `json:"notes,omitempty"`
}

func (r *runResult) set(name string, value float64) { r.setN(name, value, 0, 0) }

func (r *runResult) setN(name string, value, spread float64, n int) {
	r.Metrics[name] = metric{Value: value, Spread: spread, N: n}
}

// finish books the ops and the output checks of one load.
func (r *runResult) finish(t tally, checks []check) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.Checks = append(r.Checks, checks...)
	r.Correct = !slices.ContainsFunc(r.Checks, func(c check) bool { return !c.OK })
}

// streams generates the run's op streams: each worker's is as long as
// the whole end-to-end load, so it never wraps however the two workers
// share the work. The layer pass replays worker 0's.
func (wl workload) streams(cfg config) []stream {
	plan := wl.plan(cfg.seconds/measuredSlices, measuredSlices, 1)
	return genStreams(cfg.seed, workers, wl.replicas, (measuredSlices+1)*plan.sliceOps, wl.mix)
}

func (wl workload) stackCfg(cfg config) stackCfg {
	sc := stackCfg{daemons: wl.daemons, replicas: wl.replicas}
	if wl.durable {
		sc.dataDir = filepath.Join(cfg.outDir, "data", fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	}
	return sc
}

// plan turns seconds per slice into ops per slice at the workload's
// nominal rate, scaled by share for a load with fewer workers.
func (wl workload) plan(sliceSeconds float64, slices int, share float64) loadPlan {
	ops := max(int(float64(wl.rate)*share*sliceSeconds), 16)
	nominal := time.Duration(float64(slices+1) * sliceSeconds * float64(time.Second))
	return loadPlan{warmOps: ops / 2, sliceOps: ops, slices: slices, limit: max(3*nominal, 30*time.Second)}
}

// setUpStack is what setup_s times: boot, fund every account, converge.
//
// A stack's gossip ticker starts when it boots, and the last deposits
// reach the other replicas on the first tick after the funding ends. Left
// alone, a set-up therefore takes a whole number of ticks, and a box a few
// percent slower takes one tick more: engine-guess set up in 22 ms or in
// 32 ms, nothing between. The harness idles for phase, off the clock,
// between boot and funding, so that over a run's set-ups the funding ends
// everywhere in the tick.
func setUpStack(ctx context.Context, sc stackCfg, phase time.Duration) (*stack, time.Duration, error) {
	if sc.dataDir != "" {
		if err := os.RemoveAll(sc.dataDir); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	s, err := boot(sc)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	time.Sleep(phase)
	start = time.Now()
	if err := s.setUp(ctx); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, took + time.Since(start), nil
}

// tearDown closes the stack and removes its stores.
func (s *stack) tearDown() error {
	err := s.close()
	if s.cfg.dataDir != "" {
		os.RemoveAll(s.cfg.dataDir)
	}
	return err
}

// runEndToEnd measures what a user of the product would see of one
// workload, with no spans and no wrappers between the harness and the
// product.
func runEndToEnd(ctx context.Context, cfg config, wl workload) (*runResult, error) {
	res := &runResult{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: map[string]metric{}}
	streams := wl.streams(cfg)
	sc := wl.stackCfg(cfg)

	var s *stack
	var setups []float64
	phases := rand.New(rand.NewSource(cfg.seed))
	for total := 0.0; cfg.moreSetUps(len(setups), total); total += setups[len(setups)-1] {
		if s != nil {
			if err := s.tearDown(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if s, took, err = setUpStack(ctx, sc, time.Duration(phases.Float64()*float64(gossipEvery))); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer s.tearDown()
	runtime.GC() // the discarded set-ups' garbage is the harness's, not the workload's

	plan := wl.plan(cfg.seconds/measuredSlices, measuredSlices, 1)
	plan.warmOps = plan.sliceOps
	load := runLoad(ctx, s, streams, wl.mix, plan)
	if load.measured() < measuredSlices {
		return nil, fmt.Errorf("%s: %d of %d slices done after %v: this box is too slow for the work --seconds asks for",
			wl.name, load.measured(), measuredSlices, plan.limit)
	}
	rss := peakRSSMB()
	t := load.tally()
	checks, _, _ := s.verify(ctx, t, load.lastReply)

	var opsS, cpu []float64
	done := 0.0
	var p50, p99 [numClasses][]float64
	for k := 1; k <= measuredSlices; k++ {
		a, b := load.snaps[k-1], load.snaps[k]
		n := float64(load.completed(k))
		opsS = append(opsS, load.opsPerSec(k))
		cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/n)
		done += n
		for c := class(0); c < numClasses; c++ {
			lat := load.sorted(c, k, k)
			p50[c] = append(p50[c], quantile(lat, 0.50)/1e3/s.callsPerOp(c))
			p99[c] = append(p99[c], quantile(lat, 0.99)/1e3)
		}
	}
	res.setN("setup_s", median(setups), spread(setups), len(setups))
	res.setN("ops_s", median(opsS), spread(opsS), 0)
	res.setN("cpu_us_per_op", median(cpu), spread(cpu), 0)
	// Allocations are a count, not a time: the whole measured run's.
	res.set("allocs_per_op", float64(load.snaps[measuredSlices].mem.Mallocs-load.snaps[0].mem.Mallocs)/done)
	for c, name := range map[class]string{classGuess: "ack_p50_us", classSync: "sync_p50_us", classRead: "read_p50_us"} {
		lat := load.sorted(c, 1, measuredSlices) // p50s pool the five slices
		res.setN(name, quantile(lat, 0.50)/1e3/s.callsPerOp(c), spread(p50[c]), len(lat))
	}
	// The tail is the median of the slice tails; N is the samples per slice.
	tails := p99[classGuess]
	res.setN("ack_p99_us", median(tails), spread(tails), res.Metrics["ack_p50_us"].N/measuredSlices)
	truth := stats.HistDiff(load.snaps[measuredSlices].truth, load.snaps[0].truth)
	res.setN("truth_lag_p50_ms", histQuantile(truth, 0.50)/1e6, 0, int(stats.HistCount(truth)))
	res.set("peak_rss_mb", rss)
	res.finish(t, checks)
	return res, nil
}
