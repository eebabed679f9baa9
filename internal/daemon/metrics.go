package daemon

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// handleMetrics renders the daemon's observability surface in the
// Prometheus text exposition format — hand-rolled (no client library
// dependency). Counters and gauges are one line each; the latency
// families are full histograms: the engine's log-bucketed LatHist
// counts are coarsened onto power-of-two "le" bounds, which align
// exactly with LatHist octave boundaries so no sample is misattributed.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p promWriter
	m := d.cluster.Metrics()

	p.counter("quicksand_submits_accepted_total", "Operations accepted (guessed or coordinated).", m.Accepted.Value())
	p.counter("quicksand_submits_declined_total", "Operations declined by a local admission guess.", m.Declined.Value())
	p.counter("quicksand_sync_accepted_total", "Coordinated submits accepted by every replica.", m.SyncAccepted.Value())
	p.counter("quicksand_sync_declined_total", "Coordinated submits refused or failed by coordination.", m.SyncDeclined.Value())
	p.counter("quicksand_gossip_rounds_total", "Anti-entropy rounds run.", m.GossipRounds.Value())
	p.counter("quicksand_gossip_ops_total", "Entries moved by gossip.", m.OpsTransferred.Value())
	p.counter("quicksand_fold_steps_total", "App.Step invocations (state derivation cost).", m.FoldSteps.Value())
	p.counter("quicksand_fold_rewinds_total", "Checkpoint rewinds forced by out-of-order merges.", m.FoldRewinds.Value())
	p.counter("quicksand_fold_checkpoints_total", "Periodic fold checkpoints taken.", m.FoldCheckpoints.Value())
	p.counter("quicksand_fold_clones_total", "Whole-state clones a write paid because a reader had taken the fold (State) since the previous write.", m.FoldClones.Value())

	// Per-shard views of the same engine counters: the cluster-wide
	// aggregates above hide load imbalance; these expose it.
	shards := d.cluster.Shards()
	shardMetrics := make([]*core.Metrics, shards)
	for s := 0; s < shards; s++ {
		shardMetrics[s] = d.cluster.ShardMetrics(s)
	}
	perShard := func(name, help string, pick func(*core.Metrics) int64) {
		p.family(name, "counter", help)
		for s := 0; s < shards; s++ {
			p.sample(name, shardLabel(s), float64(pick(shardMetrics[s])))
		}
	}
	perShard("quicksand_shard_submits_accepted_total", "Operations accepted, by shard.",
		func(m *core.Metrics) int64 { return m.Accepted.Value() })
	perShard("quicksand_shard_submits_declined_total", "Operations declined, by shard.",
		func(m *core.Metrics) int64 { return m.Declined.Value() })
	perShard("quicksand_shard_gossip_ops_total", "Entries moved by gossip, by shard.",
		func(m *core.Metrics) int64 { return m.OpsTransferred.Value() })
	perShard("quicksand_shard_fold_steps_total", "App.Step invocations, by shard.",
		func(m *core.Metrics) int64 { return m.FoldSteps.Value() })
	perShard("quicksand_shard_fold_rewinds_total", "Checkpoint rewinds, by shard.",
		func(m *core.Metrics) int64 { return m.FoldRewinds.Value() })
	perShard("quicksand_shard_fold_clones_total", "Whole-state clones paid by writes after a State read, by shard.",
		func(m *core.Metrics) int64 { return m.FoldClones.Value() })

	// Fault posture: which shards are read-only right now, how many
	// degradation events ever, and how loaded the ingest ring is (the
	// 429 load-shedding signal).
	p.counter("quicksand_degraded_total", "Times a replica entered degraded read-only mode (recoverable disk failure).", m.Degraded.Value())
	p.family("quicksand_shard_degraded", "gauge", "1 while any local replica of the shard is degraded (read-only, disk unwritable).")
	for s := 0; s < shards; s++ {
		v := 0.0
		if _, deg := d.cluster.ShardDegraded(s); deg {
			v = 1
		}
		p.sample("quicksand_shard_degraded", shardLabel(s), v)
	}
	depth, capacity := d.backlog()
	p.gauge("quicksand_ingest_backlog", "Submits queued on the ingest rings of the local shards.", float64(depth))
	p.gauge("quicksand_ingest_capacity", "Nominal ingest-ring capacity across local shards (the shed denominator).", float64(capacity))

	// Submit-latency histograms, per shard and path.
	p.family("quicksand_submit_duration_seconds", "histogram", "Submit latency distribution, by shard and path (async = guess, sync = coordinated).")
	for s := 0; s < shards; s++ {
		p.histogram("quicksand_submit_duration_seconds", `path="async",`+shardLabel(s), &shardMetrics[s].AsyncLat)
		p.histogram("quicksand_submit_duration_seconds", `path="sync",`+shardLabel(s), &shardMetrics[s].SyncLat)
	}

	st := d.cluster.DurabilityStats()
	p.counter("quicksand_journal_fsyncs_total", "Journal fsyncs completed (group commit).", st.Fsyncs)
	p.counter("quicksand_journal_appends_total", "Entries staged for the journal.", st.Appended)
	p.counter("quicksand_torn_bytes_total", "Bytes truncated from torn journal tails at recovery.", st.TornBytes)
	p.gauge("quicksand_journal_max_stall_seconds", "Worst single journal flush (write+fsync) since start.",
		time.Duration(st.MaxStallNs).Seconds())

	// What one fsync costs, per shard.
	p.family("quicksand_fsync_duration_seconds", "histogram", "Journal fsync duration, by shard.")
	for s := 0; s < shards; s++ {
		fsync, _ := d.cluster.ShardDurabilityHists(s)
		p.histogram("quicksand_fsync_duration_seconds", shardLabel(s), fsync)
	}

	// Op-lifecycle lags derived by the tracer (absent when tracing is
	// off). These are the paper's headline operator numbers: how long a
	// guess stays volatile, how long until it is globally known, and how
	// long a wrong guess lived before its apology.
	if tr := d.cluster.Tracer(); tr != nil {
		durable, truth, apology, gossip := tr.LagHists()
		p.family("quicksand_guess_to_durable_seconds", "histogram", "Sampled lag from submit to covering journal fsync.")
		p.histogram("quicksand_guess_to_durable_seconds", "", durable)
		p.family("quicksand_guess_to_truth_seconds", "histogram", "Sampled lag from submit until every replica holds the op.")
		p.histogram("quicksand_guess_to_truth_seconds", "", truth)
		p.family("quicksand_guess_to_apology_seconds", "histogram", "Sampled lifetime of a guess until a rule violation apologized for it.")
		p.histogram("quicksand_guess_to_apology_seconds", "", apology)
		p.family("quicksand_gossip_propagation_seconds", "histogram", "Sampled lag from submit to each peer's first gossip ack of the op: one sample per op and acking peer.")
		p.histogram("quicksand_gossip_propagation_seconds", "", gossip)
		p.gauge("quicksand_trace_sample_every", "Tracing rate: 1-in-N ops by ID hash (0 = tracing off).", float64(tr.SampleEvery()))
	} else {
		p.gauge("quicksand_trace_sample_every", "Tracing rate: 1-in-N ops by ID hash (0 = tracing off).", 0)
	}

	// Peer link health, from the TCP transport.
	peers := d.tr.PeerStats()
	p.family("quicksand_peer_up", "gauge", "1 when the peer link is connected, 0 while down or redialing.")
	for _, ps := range peers {
		v := 0.0
		if ps.Up {
			v = 1
		}
		p.sample("quicksand_peer_up", peerLabel(ps.Addr), v)
	}
	p.family("quicksand_peer_frames_sent_total", "counter", "Frames written to the peer link.")
	for _, ps := range peers {
		p.sample("quicksand_peer_frames_sent_total", peerLabel(ps.Addr), float64(ps.FramesSent))
	}
	p.family("quicksand_peer_bytes_sent_total", "counter", "Payload bytes written to the peer link.")
	for _, ps := range peers {
		p.sample("quicksand_peer_bytes_sent_total", peerLabel(ps.Addr), float64(ps.BytesSent))
	}
	p.family("quicksand_peer_frames_dropped_total", "counter", "Frames dropped: queue full, link down, or write failure.")
	for _, ps := range peers {
		p.sample("quicksand_peer_frames_dropped_total", peerLabel(ps.Addr), float64(ps.FramesDropped))
	}
	p.family("quicksand_peer_reconnects_total", "counter", "Successful redials after a link drop.")
	for _, ps := range peers {
		p.sample("quicksand_peer_reconnects_total", peerLabel(ps.Addr), float64(ps.Reconnects))
	}
	p.family("quicksand_peer_frames_mangled_total", "counter", "Outbound frames the fault injector dropped, duplicated, reordered, or bit-flipped (0 unless faults are enabled).")
	for _, ps := range peers {
		p.sample("quicksand_peer_frames_mangled_total", peerLabel(ps.Addr), float64(ps.FramesMangled))
	}
	p.counter("quicksand_corrupt_frames_total", "Inbound frames rejected by the checksum; each one also closed its connection.", d.tr.CorruptFrames())

	q := d.cluster.Apologies
	p.counter("quicksand_apologies_total", "Business-rule violations discovered (deduplicated).", int64(q.Total()))
	p.counter("quicksand_apologies_human_total", "Apologies escalated to humans.", int64(len(q.Human())))

	p.gauge("quicksand_uptime_seconds", "Seconds since the daemon started.", time.Since(d.started).Seconds())
	p.gauge("quicksand_node_index", "Replica index this daemon hosts.", float64(d.cfg.Node))
	p.gauge("quicksand_shards", "Shard count.", float64(shards))

	// Process runtime health.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gauge("quicksand_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	p.gauge("quicksand_heap_alloc_bytes", "Bytes of live heap objects.", float64(ms.HeapAlloc))
	p.gauge("quicksand_gc_pause_total_seconds", "Cumulative stop-the-world GC pause.", float64(ms.PauseTotalNs)/1e9)
	p.gauge("quicksand_gomaxprocs", "GOMAXPROCS.", float64(runtime.GOMAXPROCS(0)))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(p.b.String()))
}

func shardLabel(s int) string { return `shard="` + strconv.Itoa(s) + `"` }

func peerLabel(addr string) string { return `peer="` + addr + `"` }

// promWriter accumulates Prometheus text-format output. family emits
// the one HELP/TYPE header a metric may carry; sample/histogram emit
// the series lines under it.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) family(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) counter(name, help string, v int64) {
	p.family(name, "counter", help)
	fmt.Fprintf(&p.b, "%s %d\n", name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.family(name, "gauge", help)
	fmt.Fprintf(&p.b, "%s %s\n", name, formatFloat(v))
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(&p.b, "%s %s\n", name, formatFloat(v))
		return
	}
	fmt.Fprintf(&p.b, "%s{%s} %s\n", name, labels, formatFloat(v))
}

// histLeBoundsNs are the exported histogram bucket bounds: powers of two
// from 1.024µs to ~17.2s. Each is an exact LatHist octave boundary, so
// coarsening the ~1000 engine buckets onto these 25 loses no samples to
// the wrong side of a bound.
var histLeBoundsNs = func() []int64 {
	out := make([]int64, 0, 25)
	for e := 10; e <= 34; e++ {
		out = append(out, int64(1)<<uint(e))
	}
	return out
}()

// histogram renders one labeled histogram series from a LatHist: the
// cumulative _bucket lines on the shared le bounds, then +Inf, _sum and
// _count. labels is either empty or `k="v",...` without braces; a
// trailing comma is tolerated.
func (p *promWriter) histogram(name, labels string, h *stats.LatHist) {
	labels = strings.TrimSuffix(labels, ",")
	counts := h.Snapshot()
	var total, cum int64
	for _, c := range counts {
		total += c
	}
	idx := 0
	for _, leNs := range histLeBoundsNs {
		// Bucket idx spans [BucketBound(idx), BucketBound(idx+1)); it is
		// wholly ≤ le once its exclusive upper bound reaches le.
		for idx < len(counts) && idx+1 < stats.HistBuckets && stats.BucketBound(idx+1) <= leNs {
			cum += counts[idx]
			idx++
		}
		p.sample(name+"_bucket", joinLabels(labels, fmt.Sprintf(`le="%s"`, formatFloat(float64(leNs)/1e9))), float64(cum))
	}
	p.sample(name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(total))
	p.sample(name+"_sum", labels, float64(h.Sum())/1e9)
	// _count comes from the same snapshot as the buckets so that the
	// +Inf bucket always equals it, even while samples land concurrently.
	fmt.Fprintf(&p.b, "%s_count", name)
	if labels != "" {
		fmt.Fprintf(&p.b, "{%s}", labels)
	}
	fmt.Fprintf(&p.b, " %d\n", total)
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// formatFloat renders a value the way Prometheus expects: shortest
// round-trip representation, no exponent surprises for integers.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
