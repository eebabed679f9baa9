package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/netx"
	"repro/internal/oplog"
	"repro/internal/store"
)

// The micro-pass times single calls into oplog, the wire codec, store,
// netx and the SDK, replaying the gossip pushes the traced slice
// captured, so the inputs are the workload's own. Each figure is the
// median of a few repeats. A module the workload does not use is skipped
// and reports zero.

const microRepeats = 5

// timed runs fn microRepeats times and returns the median nanoseconds
// per unit of work, recording one span per repeat.
func timed(rec *recorder, layer, name string, units int, fn func()) float64 {
	var ns []float64
	for i := 0; i < microRepeats; i++ {
		start := time.Now()
		fn()
		d := time.Since(start)
		rec.add(0, -1, layer, name, start, d)
		ns = append(ns, float64(d)/float64(max(units, 1)))
	}
	return median(ns)
}

// mallocs counts heap allocations made while fn runs.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// cycle returns n entries, repeating the captured ones if there are fewer.
func cycle(entries []oplog.Entry, n int) []oplog.Entry {
	out := make([]oplog.Entry, n)
	for i := range out {
		out[i] = entries[i%len(entries)]
	}
	return out
}

func microPass(cfg config, wl workload, r *runResult, rec *recorder, tp *transportProbe) error {
	wire, ack := tp.capture()
	var pushes []any
	var batches [][]oplog.Entry
	var offered []oplog.Entry
	for _, w := range wire {
		m, err := core.DecodeMessage(w)
		if err != nil {
			return err
		}
		b, err := pushEntries(w)
		if err != nil {
			return err
		}
		pushes = append(pushes, m)
		batches = append(batches, b)
		offered = append(offered, b...)
	}
	if len(offered) == 0 {
		return fmt.Errorf("%s: the traced slice captured no gossip push", wl.name)
	}
	rec.on.Store(true)
	defer rec.on.Store(false)

	// oplog: the absorb pattern is AddAll of batches from two origins as
	// they arrived, duplicates included; Add is the local append.
	var set *oplog.Set
	r.set("oplog.addall_ns", timed(rec, "oplog", "addall", len(offered), func() {
		set = oplog.NewSet()
		for _, b := range batches {
			set.AddAll(b)
		}
	}))
	distinct := set.Entries()
	r.set("oplog.add_ns", timed(rec, "oplog", "add", len(distinct), func() {
		s := oplog.NewSet()
		for _, e := range distinct {
			s.Add(e)
		}
	}))
	var buf []byte
	var encoded [][]byte
	size := 0
	for _, e := range distinct {
		size += oplog.EntrySize(e)
		encoded = append(encoded, oplog.AppendEntry(nil, e))
	}
	entryBytes := float64(size) / float64(len(distinct))
	r.set("oplog.entry_bytes", entryBytes)
	r.set("oplog.encode_ns", timed(rec, "oplog", "encode", len(distinct), func() {
		for _, e := range distinct {
			buf = oplog.AppendEntry(buf[:0], e)
		}
	}))
	var decodeErr error
	r.set("oplog.decode_ns", timed(rec, "oplog", "decode", len(distinct), func() {
		for _, b := range encoded {
			if _, err := oplog.DecodeEntry(b); err != nil {
				decodeErr = err
			}
		}
	}))
	if decodeErr != nil {
		return fmt.Errorf("oplog decode: %w", decodeErr)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := oplog.NewSet(distinct...)
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.set("oplog.set_bytes_per_entry", float64(after.HeapAlloc-before.HeapAlloc)/float64(s.Len()))
	// engineMetrics left bytes written per journaled entry here.
	r.set("faultfs.write_amp", r.Metrics["faultfs.write_amp"].Value/entryBytes)

	// core's wire codec, on the captured pushes.
	r.set("core.wire_encode_ns_per_entry", timed(rec, "core", "wire_encode", len(offered), func() {
		for _, m := range pushes {
			buf, _ = core.AppendMessage(buf[:0], m)
		}
	}))
	r.set("core.wire_decode_ns_per_entry", timed(rec, "core", "wire_decode", len(offered), func() {
		for _, b := range wire {
			if _, err := core.DecodeMessage(b); err != nil {
				decodeErr = err
			}
		}
	}))
	if decodeErr != nil {
		return fmt.Errorf("wire decode: %w", decodeErr)
	}

	calls := min(max(int(cfg.seconds*15), 10), 300)
	if wl.durable {
		if err := storeMicro(cfg, r, rec, distinct, calls); err != nil {
			return err
		}
	}
	if wl.daemons {
		if err := netxMicro(r, rec, ack, distinct, calls); err != nil {
			return err
		}
		clientMicro(r, calls*10)
	}
	return nil
}

// storeMicro times Stage+Commit to the durability callback, for a batch
// of one and of 256, on a store opened as the live engine opens it.
func storeMicro(cfg config, r *runResult, rec *recorder, entries []oplog.Entry, calls int) error {
	dir := filepath.Join(cfg.outDir, "data", fmt.Sprintf("micro-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{Mode: store.ModeAdaptive, Preallocate: true, SnapshotChain: 8})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, c := range []struct {
		name     string
		batch, n int
	}{{"store.commit_us_b1", 1, calls}, {"store.commit_us_b256", 256, max(calls/5, 5)}} {
		batch := cycle(entries, c.batch)
		done := make(chan bool, 1)
		var us []float64
		for i := 0; i < c.n; i++ {
			start := time.Now()
			st.Commit(st.Stage(batch), func(ok bool) { done <- ok })
			if !<-done {
				return fmt.Errorf("%s: commit failed: %v", c.name, st.FailErr())
			}
			d := time.Since(start)
			rec.add(0, -1, "store", c.name[len("store."):], start, d)
			us = append(us, float64(d)/1e3)
		}
		r.set(c.name, median(us))
	}
	return nil
}

// netxMicro times Node.Call between two netx transports on loopback,
// replaying a captured push cut to 1 and to 256 entries.
func netxMicro(r *runResult, rec *recorder, ack any, entries []oplog.Entry, calls int) error {
	var ends [2]*netx.Transport
	for i := range ends {
		t, err := netx.New(netx.Config{Listen: "127.0.0.1:0"})
		if err != nil {
			return err
		}
		defer t.Close()
		ends[i] = t
	}
	ends[0].AddPeer("b", ends[1].Addr())
	ends[1].AddPeer("a", ends[0].Addr())
	a := ends[0].Node("a", time.Second)
	ends[1].Node("b", time.Second).Handle("push", func(_ string, _ any, reply func(any)) { reply(ack) })
	for _, c := range []struct {
		name     string
		batch, n int
	}{{"netx.call_rtt_us_e1", 1, calls}, {"netx.call_rtt_us_e256", 256, max(calls/3, 5)}} {
		msg, err := pushOf(cycle(entries, c.batch))
		if err != nil {
			return err
		}
		done := make(chan bool, 1)
		var us []float64
		for i := -10; i < c.n; i++ { // the first calls dial and warm the link
			start := time.Now()
			a.Call("b", "push", msg, func(_ any, ok bool) { done <- ok })
			if !<-done {
				return fmt.Errorf("%s: call timed out", c.name)
			}
			if d := time.Since(start); i >= 0 {
				rec.add(0, -1, "netx", c.name[len("netx."):], start, d)
				us = append(us, float64(d)/1e3)
			}
		}
		r.set(c.name, median(us))
	}
	return nil
}

// cannedRT answers every request with one fixed 200, so client.Submit's
// allocations are the SDK's alone.
type cannedRT struct{}

var cannedBody = []byte(`{"accepted":true,"id":"cli-0123456789abcdef01234567","lamport":123456,"latency_ns":45678}` + "\n")

func (cannedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(cannedBody)), Request: req}, nil
}

func clientMicro(r *runResult, calls int) {
	ctx := context.Background()
	cl := client.New("http://stub", client.WithHTTPClient(&http.Client{Transport: cannedRT{}}))
	op := client.Op{Kind: "deposit", Key: keyNames[0], Arg: 1}
	sdk := mallocs(func() {
		for i := 0; i < calls; i++ {
			cl.Submit(ctx, op, false)
		}
	})
	req, _ := http.NewRequest(http.MethodPost, "http://stub/v1/submit", nil)
	stub := mallocs(func() {
		for i := 0; i < calls; i++ {
			resp, _ := cannedRT{}.RoundTrip(req)
			resp.Body.Close()
		}
	})
	r.set("client.allocs_per_op", (sdk-stub)/float64(calls))
}

// edgeAllocs counts what the HTTP edge allocates per submit: a raw POST
// to the daemon minus the same op made straight on its cluster.
func (p *pass) edgeAllocs(ctx context.Context, r *runResult, t *tally) error {
	calls := min(max(int(r.Seconds*100), 50), 2000)
	d := p.s.daemons[0]
	cluster := d.Cluster()
	url := "http://" + d.HTTPAddr() + "/v1/submit"
	body := []byte(`{"kind":"deposit","key":"` + keyNames[0] + `","arg":1}`)
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	one := op{kind: opDeposit, amt: 1}
	var reply bytes.Buffer
	var firstErr error
	raw := mallocs(func() {
		for i := 0; i < calls; i++ {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				firstErr = err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := hc.Do(req)
			out := failed
			if err == nil {
				reply.Reset()
				io.Copy(&reply, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && bytes.Contains(reply.Bytes(), []byte(`"accepted":true`)) {
					out = accepted
				}
			}
			t.record(one, out)
		}
	})
	if firstErr != nil {
		return firstErr
	}
	direct := mallocs(func() {
		for i := 0; i < calls; i++ {
			res, err := cluster.Submit(ctx, 0, core.NewOp("deposit", keyNames[0], 1))
			t.record(one, classify(res.Accepted, res.Retryable, res.Reason, err))
		}
	})
	r.set("daemon.allocs_per_op", (raw-direct)/float64(calls))
	return nil
}
