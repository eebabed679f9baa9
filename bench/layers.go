package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/store"
)

// The layer pass: the same seeded stream, one worker, spans on. It never
// feeds the end-to-end numbers, which come from runs with none of this in
// the way.
//
// An in-process workload is passed over once, on its own stack with the
// transport and FS probes in the seams. A daemon workload is passed over
// twice: on the daemons, where the SDK, the HTTP edge and netx can be
// seen, and on an in-process engine twin with the same options, because
// quicksandd exposes neither the transport nor the FS seam — so the
// seam-based core.*, store.* and faultfs.* numbers of the two daemon
// workloads are the twin's.

// pass is one instrumented load over one stack.
type pass struct {
	s    *stack
	rec  *recorder
	tp   *transportProbe // engine stacks
	fp   *fsProbe        // durable engine stacks
	rt   *rtProbe        // daemon stacks
	load *load
	at   []probeSnap // aligned with load.snaps
	// The pass has one worker, which runs the hooks and the boundary
	// callback alike, so these need no lock.
	modes  []sliceMode
	mode   sliceMode // of the slice under way
	spanAt []int     // spans recorded at each boundary, aligned with load.snaps
	on     int       // the traced slice (0 = none)
	direct int       // the slice with direct calls beside the SDK's (0 = none)

	backlog []float64 // ingest-ring depth, sampled beside the ops
}

// probeSnap is what the probes and the product's own counters read at a
// slice boundary.
type probeSnap struct {
	foldSteps, foldRewinds, foldCheckpoints int64
	dur                                     store.Stats
	fsync, snapCut                          []int64
	apologies                               int
	gcCPU                                   float64
	heapLive                                uint64

	calls, pushes, pushEntries, pushNs int64
	pushIdx                            int
	writes, writeBytes, syncs          int64
	syncIdx                            int

	trips, shed, submits, reqBytes, respBytes  int64
	frames, netBytes, dropped, reconn, corrupt int64
}

var runtimeSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/live:bytes"}}

func (p *pass) snap() probeSnap {
	var ps probeSnap
	for _, c := range p.s.clusters {
		m := c.ShardMetrics(0)
		ps.foldSteps += m.FoldSteps.Value()
		ps.foldRewinds += m.FoldRewinds.Value()
		ps.foldCheckpoints += m.FoldCheckpoints.Value()
		d := c.DurabilityStats()
		ps.dur.Fsyncs += d.Fsyncs
		ps.dur.Appended += d.Appended
		ps.dur.Snapshots += d.Snapshots
		ps.dur.Recycled += d.Recycled
		ps.dur.MaxStallNs = max(ps.dur.MaxStallNs, d.MaxStallNs)
		fsync, cut := c.ShardDurabilityHists(0)
		ps.fsync = addCounts(ps.fsync, fsync.Snapshot())
		ps.snapCut = addCounts(ps.snapCut, cut.Snapshot())
		ps.apologies += c.Apologies.Total()
	}
	metrics.Read(runtimeSamples)
	ps.gcCPU, ps.heapLive = runtimeSamples[0].Value.Float64(), runtimeSamples[1].Value.Uint64()
	if tp := p.tp; tp != nil {
		ps.calls, ps.pushes, ps.pushEntries, ps.pushNs = tp.calls.Load(), tp.pushes.Load(), tp.pushEntries.Load(), tp.pushNs.Load()
		tp.mu.Lock()
		ps.pushIdx = len(tp.pushLat)
		tp.mu.Unlock()
	}
	if fp := p.fp; fp != nil {
		ps.writes, ps.writeBytes, ps.syncs = fp.writes.Load(), fp.writeBytes.Load(), fp.syncs.Load()
		fp.mu.Lock()
		ps.syncIdx = len(fp.syncLat)
		fp.mu.Unlock()
	}
	if rt := p.rt; rt != nil {
		ps.trips, ps.shed, ps.submits = rt.trips.Load(), rt.shed.Load(), rt.submits.Load()
		ps.reqBytes, ps.respBytes = rt.reqBytes.Load(), rt.respBytes.Load()
	}
	for _, d := range p.s.daemons {
		for _, st := range d.PeerTransport().PeerStats() {
			ps.frames += st.FramesSent
			ps.netBytes += st.BytesSent
			ps.dropped += st.FramesDropped
			ps.reconn += st.Reconnects
		}
		ps.corrupt += d.PeerTransport().CorruptFrames()
	}
	return ps
}

var classNames = [numClasses]string{classGuess: "submit", classSync: "sync", classRead: "read"}

// sliceMode is what the layer pass does beside the workload's ops in one
// measured slice.
type sliceMode uint8

const (
	plain  sliceMode = iota // nothing: the baseline span overhead is measured against
	traced                  // spans on; every per-layer count and time is this slice's
	// directly is a daemon pass's last slice: spans on, and every
	// directEvery-th guess through the SDK is followed by one made straight
	// on the daemon's cluster, every read by a direct State(). The two
	// interleave, so both see the same heap and the same gossip, and the
	// traced slice carries the workload's ops alone.
	directly
)

const directEvery = 4

// oneWorkerShare is what one worker gets through of the two-worker rate.
const oneWorkerShare = 0.7

// run drives one worker over st, one measured slice per mode.
func (p *pass) run(ctx context.Context, st stream, wl workload, sliceSeconds float64, modes ...sliceMode) error {
	p.modes = modes
	p.on = slices.Index(modes, traced) + 1
	p.direct = slices.Index(modes, directly) + 1
	layer := "core"
	if p.rt != nil {
		layer = "client"
	}
	entry := st.route
	cluster, rep := p.s.clusters[0], p.s.reps[entry]
	if len(p.s.daemons) > 0 {
		cluster = p.s.clusters[entry]
	}
	var top int32
	plan := wl.plan(sliceSeconds, len(modes), oneWorkerShare)
	plan.instrument = func(w *worker) {
		w.before = func(i int, o op) {
			top = p.rec.open(i, layer, classNames[o.kind.class()])
			p.rec.cur.Store(int64(top)<<32 | int64(uint32(i)))
		}
		w.after = func(i int, o op, start time.Time, d time.Duration, out outcome) {
			p.rec.cur.Store(0)
			p.rec.close(top, 0, start, d)
			if i%16 == 0 {
				depth, _ := cluster.IngestBacklog(entry)
				p.backlog = append(p.backlog, float64(depth))
			}
			if p.mode != directly {
				return
			}
			switch cl := o.kind.class(); {
			case cl == classGuess && i%directEvery == 0:
				t0 := time.Now()
				res, err := cluster.Submit(ctx, entry, core.NewOp("deposit", keyNames[o.key], int64(o.amt)))
				p.rec.add(0, i, "core", "submit_direct", t0, time.Since(t0))
				w.tally.record(op{kind: opDeposit, amt: o.amt}, classify(res.Accepted, res.Retryable, res.Reason, err))
			case cl == classRead:
				t0 := time.Now()
				rep.State()
				p.rec.add(0, i, "core", "read_direct", t0, time.Since(t0))
			}
		}
	}
	plan.onSnap = func(k int) {
		p.at = append(p.at, p.snap())
		p.spanAt = append(p.spanAt, p.rec.len())
		p.mode = plain
		if k < len(modes) {
			p.mode = modes[k]
		}
		p.rec.on.Store(p.mode != plain)
	}
	if p.tp != nil {
		p.tp.capturing.Store(true)
		defer p.tp.capturing.Store(false)
	}
	p.backlog = make([]float64, 0, len(st.ops)/16+1)
	p.load = runLoad(ctx, p.s, []stream{st}, wl.mix, plan)
	p.rec.on.Store(false)
	if p.load.measured() < len(modes) {
		return fmt.Errorf("%s: layer pass did %d of %d slices in %v", wl.name, p.load.measured(), len(modes), plan.limit)
	}
	return nil
}

// spans digests what slice k recorded.
func (p *pass) spans(k int, top string) map[string][]float64 {
	return spanTimes(p.rec.all(), p.spanAt[k-1], p.spanAt[k], top)
}

// spanOverhead compares the traced slice with the plain ones either side.
func (p *pass) spanOverhead() float64 {
	var off []float64
	for _, k := range []int{p.on - 1, p.on + 1} {
		if k >= 1 && k <= len(p.modes) && p.modes[k-1] == plain {
			off = append(off, p.load.opsPerSec(k))
		}
	}
	return 1 - p.load.opsPerSec(p.on)/mean(off)
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// spanTimes digests the spans numbered from..to. A top span is an op's
// own call into the layer named top. Keys are "top/<class>" (a top span's
// duration), "self/<class>" (that minus what its children cover),
// "child/<class>/<layer>.<name>" (the children of one kind, summed per
// op, zero when an op had none) and "<layer>.<name>" for every other
// span. Values are microseconds.
func spanTimes(all []span, from, to int, top string) map[string][]float64 {
	out := map[string][]float64{}
	kids := map[int32]map[string]float64{}
	kinds := map[string]map[string]bool{} // class → child kinds seen
	isTop := func(s span) bool { return s.Parent == 0 && s.Op >= 0 && s.Layer == top }
	spans := all[from:min(to, len(all))]
	for _, s := range spans {
		if s.End == 0 || isTop(s) {
			continue
		}
		kind := s.Layer + "." + s.Name
		if s.Parent == 0 {
			out[kind] = append(out[kind], float64(s.End-s.Start)/1e3)
			continue
		}
		// Only the part inside the parent is time the op waited.
		p := all[s.Parent]
		us := float64(min(s.End, p.End)-max(s.Start, p.Start)) / 1e3
		if us <= 0 {
			continue
		}
		if kids[s.Parent] == nil {
			kids[s.Parent] = map[string]float64{}
		}
		kids[s.Parent][kind] += us
		if kinds[p.Name] == nil {
			kinds[p.Name] = map[string]bool{}
		}
		kinds[p.Name][kind] = true
	}
	for _, s := range spans {
		if s.End == 0 || !isTop(s) {
			continue
		}
		us := float64(s.End-s.Start) / 1e3
		self := us
		for kind := range kinds[s.Name] {
			k := kids[s.ID][kind]
			self -= k
			out["child/"+s.Name+"/"+kind] = append(out["child/"+s.Name+"/"+kind], k)
		}
		out["top/"+s.Name] = append(out["top/"+s.Name], us)
		out["self/"+s.Name] = append(out["self/"+s.Name], max(self, 0))
	}
	return out
}

// layersSumErr is ROADMAP's "the hops must sum to the whole": how far the
// layers' median self times, added up, land from the median guess.
func layersSumErr(t map[string][]float64) float64 {
	whole := median(t["top/submit"])
	if whole == 0 {
		return 0
	}
	sum := median(t["self/submit"])
	for key, v := range t {
		if strings.HasPrefix(key, "child/submit/") {
			sum += median(v)
		}
	}
	return math.Abs(sum-whole) / whole
}

func p50us(lat []uint32) float64 {
	slices.Sort(lat)
	return quantile(lat, 0.5) / 1e3
}

func per(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// engineMetrics fills in what the transport and FS seams, the cluster's
// own counters and the tracer say about the traced slice of an
// in-process pass.
func (p *pass) engineMetrics(r *runResult, t map[string][]float64) {
	a, b := p.at[p.on-1], p.at[p.on]
	ops := float64(p.load.completed(p.on))
	ta := p.load.tally()

	r.set("core.submit_us", median(t["top/submit"]))
	r.set("core.sync_us", median(t["top/sync"]))
	r.set("core.read_us", median(t["top/read"])/p.s.callsPerOp(classRead))
	r.set("core.push_handle_us", p50us(p.tp.pushLatencies(a.pushIdx, b.pushIdx)))
	r.set("core.absorb_ns_per_entry", per(float64(b.pushNs-a.pushNs), float64(b.pushEntries-a.pushEntries)))
	r.set("core.entries_per_push", per(float64(b.pushEntries-a.pushEntries), float64(b.pushes-a.pushes)))
	r.set("core.msgs_per_op", per(float64(b.calls-a.calls), ops))
	r.set("core.fold_steps_per_op", per(float64(b.foldSteps-a.foldSteps), ops))
	r.set("core.fold_rewinds_per_kop", per(1e3*float64(b.foldRewinds-a.foldRewinds), ops))
	r.set("core.fold_checkpoints_per_kop", per(1e3*float64(b.foldCheckpoints-a.foldCheckpoints), ops))
	r.set("core.ingest_backlog_p50", median(p.backlog))
	r.set("core.declined_frac", per(float64(ta.declines[classGuess]), float64(ta.submits[classGuess])))
	r.set("core.sync_declined_frac", per(float64(ta.declines[classSync]), float64(ta.submits[classSync])))
	r.set("core.apologies_per_kop", per(1e3*float64(b.apologies-a.apologies), ops))

	appended := float64(b.dur.Appended - a.dur.Appended)
	r.set("store.ops_per_fsync", per(appended, float64(b.dur.Fsyncs-a.dur.Fsyncs)))
	fsync, cut := stats.HistDiff(b.fsync, a.fsync), stats.HistDiff(b.snapCut, a.snapCut)
	r.set("store.fsync_p50_us", histQuantile(fsync, 0.50)/1e3)
	r.set("store.fsync_p99_us", histQuantile(fsync, 0.99)/1e3)
	r.set("store.max_stall_us", float64(b.dur.MaxStallNs)/1e3)
	r.set("store.snapshots_per_kop", per(1e3*float64(b.dur.Snapshots-a.dur.Snapshots), ops))
	r.set("store.snapshot_cut_p50_us", histQuantile(cut, 0.50)/1e3)
	r.set("store.recycled", float64(b.dur.Recycled-a.dur.Recycled))

	r.set("faultfs.writes_per_op", per(float64(b.writes-a.writes), ops))
	r.set("faultfs.write_bytes_per_op", per(float64(b.writeBytes-a.writeBytes), ops))
	r.set("faultfs.syncs_per_op", per(float64(b.syncs-a.syncs), ops))
	if p.fp != nil {
		r.set("faultfs.sync_p50_us", p50us(p.fp.syncLatencies(a.syncIdx, b.syncIdx)))
	}
	// Write amplification needs the mean entry size, which the oplog
	// micro-pass measures; runLayers divides once it is known.
	r.set("faultfs.write_amp", per(float64(b.writeBytes-a.writeBytes), appended))

	sa, sb := p.load.snaps[p.on-1], p.load.snaps[p.on]
	r.set("trace.durable_lag_p50_us", histQuantile(stats.HistDiff(sb.durable, sa.durable), 0.5)/1e3)
	r.set("trace.gossip_lag_p50_ms", histQuantile(stats.HistDiff(sb.gossip, sa.gossip), 0.5)/1e6)
}

// processMetrics reports, for the pass that has the workload's own
// process shape, the runtime's share of the traced slice and what the
// tracing itself cost.
func (p *pass) processMetrics(r *runResult, t map[string][]float64) {
	r.set("bench.span_overhead_frac", p.spanOverhead())
	r.set("bench.layers_sum_err", layersSumErr(t))
	a, b := p.at[p.on-1], p.at[p.on]
	sa, sb := p.load.snaps[p.on-1], p.load.snaps[p.on]
	r.set("go.gc_cpu_frac", per(b.gcCPU-a.gcCPU, (sb.cpu-sa.cpu).Seconds()))
	r.set("go.gc_cycles", float64(sb.mem.NumGC-sa.mem.NumGC))
	r.set("go.heap_live_mb_end", float64(b.heapLive)/1e6)
}

// daemonMetrics fills in what the round-tripper under the SDK and netx's
// own counters say about the traced slice of a daemon pass, and what the
// last slice's direct calls leave of a round trip for the HTTP edge.
func (p *pass) daemonMetrics(r *runResult, t map[string][]float64) {
	a, b := p.at[p.on-1], p.at[p.on]
	ops := float64(p.load.completed(p.on))
	r.set("client.self_us", median(t["self/submit"]))
	submits := float64(b.submits - a.submits)
	r.set("client.req_bytes", per(float64(b.reqBytes-a.reqBytes), submits))
	r.set("client.resp_bytes", per(float64(b.respBytes-a.respBytes), submits))
	r.set("client.retries_per_kop", per(1e3*(float64(b.trips-a.trips)-ops), ops))
	d := p.spans(p.direct, "client")
	r.set("daemon.self_us", median(d["child/submit/daemon.roundtrip"])-median(d["core.submit_direct"]))
	r.set("daemon.state_self_us", median(d["child/read/daemon.roundtrip"])-median(d["core.read_direct"]))
	r.set("daemon.shed_per_kop", per(1e3*float64(b.shed-a.shed), ops))
	r.set("netx.frames_per_op", per(float64(b.frames-a.frames), ops))
	r.set("netx.bytes_per_op", per(float64(b.netBytes-a.netBytes), ops))
	r.set("netx.frames_dropped", float64(b.dropped-a.dropped))
	r.set("netx.reconnects", float64(b.reconn-a.reconn))
	r.set("netx.corrupt_frames", float64(b.corrupt-a.corrupt))
}

// layerRun is what the passes of one traced run share.
type layerRun struct {
	cfg   config
	wl    workload
	res   *runResult
	st    stream  // worker 0's stream of the end-to-end run with this seed
	slice float64 // seconds of work per slice
	total tally
	check []check
}

// settle runs the output checks on a pass's stack and books its ops.
func (lr *layerRun) settle(ctx context.Context, s *stack, t tally, lastReply time.Time) (converge, recovery time.Duration) {
	c, converge, recovery := s.verify(ctx, t, lastReply)
	lr.total.add(t)
	lr.check = append(lr.check, c...)
	return converge, recovery
}

// daemonPass is the traced pass over the daemons of a daemon workload.
func (lr *layerRun) daemonPass(ctx context.Context, spanFile string) error {
	rec := newRecorder()
	rt := &rtProbe{rec: rec}
	sc := lr.wl.stackCfg(lr.cfg)
	sc.wrapRT = rt.wrap
	s, _, err := setUpStack(ctx, sc, 0)
	if err != nil {
		return err
	}
	defer s.tearDown()
	p := &pass{s: s, rec: rec, rt: rt}
	if err := p.run(ctx, lr.st, lr.wl, lr.slice, plain, traced, plain, directly); err != nil {
		return err
	}
	times := p.spans(p.on, "client")
	p.daemonMetrics(lr.res, times)
	p.processMetrics(lr.res, times)
	t := p.load.tally()
	if err := p.edgeAllocs(ctx, lr.res, &t); err != nil {
		return err
	}
	converge, recovery := lr.settle(ctx, s, t, time.Now())
	lr.res.set("core.converge_ms", float64(converge)/1e6)
	lr.res.set("store.recover_ms", float64(recovery)/1e6)
	return rec.write(spanFile)
}

// enginePass is the traced pass over an in-process stack — the
// workload's own, or a daemon workload's twin — followed by the slice
// with the tracer off and the micro-pass on what was captured.
func (lr *layerRun) enginePass(ctx context.Context, spanFile string) error {
	rec := newRecorder()
	sc := lr.wl.stackCfg(lr.cfg)
	sc.daemons = false
	tp := &transportProbe{rec: rec}
	sc.wrapTransport = tp.wrap
	var fp *fsProbe
	if lr.wl.durable {
		fp = newFSProbe(rec)
		sc.fs = fp
	}
	withTracer, err := lr.engineSlices(ctx, sc, &pass{rec: rec, tp: tp, fp: fp}, plain, traced, plain)
	if err != nil {
		return err
	}
	// Tracing's own cost: a fresh stack with the tracer off against the
	// first slice above, which recorded no spans and saw the same heap.
	sc.noTracer = true
	bare, err := lr.engineSlices(ctx, sc, &pass{rec: rec, tp: tp, fp: fp}, plain)
	if err != nil {
		return err
	}
	lr.res.set("trace.overhead_frac", 1-withTracer.load.opsPerSec(1)/bare.load.opsPerSec(1))
	if err := microPass(lr.cfg, lr.wl, lr.res, rec, tp); err != nil {
		return err
	}
	if rec.dropped > 0 {
		lr.res.Notes = append(lr.res.Notes, fmt.Sprintf("%d spans did not fit the recorder", rec.dropped))
	}
	return rec.write(spanFile)
}

func (lr *layerRun) engineSlices(ctx context.Context, sc stackCfg, p *pass, modes ...sliceMode) (*pass, error) {
	s, _, err := setUpStack(ctx, sc, 0)
	if err != nil {
		return nil, err
	}
	defer s.tearDown()
	p.s = s
	if err := p.run(ctx, lr.st, lr.wl, lr.slice, modes...); err != nil {
		return nil, err
	}
	if p.on > 0 {
		times := p.spans(p.on, "core")
		p.engineMetrics(lr.res, times)
		if !lr.wl.daemons {
			p.processMetrics(lr.res, times)
		}
	}
	converge, recovery := lr.settle(ctx, s, p.load.tally(), p.load.lastReply)
	if p.on > 0 && !lr.wl.daemons {
		lr.res.set("core.converge_ms", float64(converge)/1e6)
		lr.res.set("store.recover_ms", float64(recovery)/1e6)
	}
	return p, nil
}

// runLayers adds the per-layer metrics of one workload to res, which
// holds its end-to-end run.
func runLayers(ctx context.Context, cfg config, wl workload, res *runResult) error {
	res.Traced = true
	for _, d := range cfg.spec.PerLayer {
		if _, measured := res.Metrics[d.Name]; !measured {
			res.set(d.Name, 0) // a layer the workload does not use did no work
		}
	}
	lr := &layerRun{cfg: cfg, wl: wl, res: res, st: wl.streams(cfg)[0]}
	// --seconds is shared out over the slices: plain/traced/plain after
	// half a slice of warm-up on an in-process stack (3.5) and one slice
	// with the tracer off (1.5); a daemon workload first does
	// plain/traced/plain/directly on its daemons (4.5).
	spanFile := filepath.Join(cfg.outDir, "spans-"+wl.name+".jsonl")
	lr.slice = cfg.seconds / 5
	if wl.daemons {
		lr.slice = cfg.seconds / 9.5
		if err := lr.daemonPass(ctx, spanFile); err != nil {
			return err
		}
		res.Notes = append(res.Notes, "core.*, store.* and faultfs.* (but converge_ms, recover_ms) come from an in-process engine twin: quicksandd exposes no transport or FS seam")
		spanFile = filepath.Join(cfg.outDir, "spans-"+wl.name+"-twin.jsonl")
	}
	if err := lr.enginePass(ctx, spanFile); err != nil {
		return err
	}
	res.finish(lr.total, lr.check)
	return nil
}
