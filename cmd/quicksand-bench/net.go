package main

// The -net mode: wall-clock throughput of the full networked stack —
// client SDK → HTTP API → daemon → engine, with anti-entropy between
// two daemons crossing real loopback TCP. Where -live isolates the
// engine, -net prices the whole deployment: JSON envelopes, bearer
// auth, socket hops, and gossip frames included. Latencies here are
// client-observed round trips, not engine-internal submit times.

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/daemon"
	"repro/internal/stats"
)

// netFreePorts reserves n loopback ports by binding and releasing them.
func netFreePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func runNetBench(duration time.Duration, report *benchReport) error {
	workers := 2 * runtime.NumCPU() // HTTP round trips wait more than they compute
	fmt.Println("\nNET: client SDK → HTTP → daemon → TCP gossip, two daemons on loopback (wall clock, this machine)")
	tab := stats.NewTable(
		fmt.Sprintf("net — SDK submits against daemon A for %v per row, %d workers, 2 daemons gossiping every 1ms over TCP", duration, workers),
		"Every worker loops the Go SDK against daemon A's /v1 API over 256 keys while daemon B receives the stream through anti-entropy frames on a second process's worth of stack (same process here, full sockets in between). submit posts one op per request; batch=256 posts 256 per request. Latency is the client-observed round trip. converged reports whether both daemons' /v1/state maps matched after quiesce.",
		"arm", "accepted", "ops/sec", "allocs/op", "rtt p50", "rtt p99", "converged after quiesce")

	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}

	for _, arm := range []struct {
		label string
		batch int // ops per request; 0 = single-op submits
	}{
		{"net submit", 0},
		{"net batch=256", 256},
	} {
		res, err := runNetArm(arm.label, arm.batch, duration, workers, keys, tab)
		if err != nil {
			return err
		}
		res.Table = "net"
		report.add(res)
	}
	fmt.Print(tab.String())
	return nil
}

// runNetArm boots a fresh two-daemon loopback cluster, drives it through
// the SDK for the window, checks cross-daemon convergence, and tears it
// down.
func runNetArm(label string, batch int, duration time.Duration, workers int, keys []string, tab *stats.Table) (benchResult, error) {
	ports, err := netFreePorts(2)
	if err != nil {
		return benchResult{}, err
	}
	peers := map[int]string{0: ports[0], 1: ports[1]}
	daemons := make([]*daemon.Daemon, 2)
	for i := range daemons {
		d, err := daemon.New(daemon.Config{
			Node:        i,
			Replicas:    2,
			HTTPListen:  "127.0.0.1:0",
			PeerListen:  ports[i],
			Peers:       peers,
			GossipEvery: time.Millisecond,
		})
		if err != nil {
			return benchResult{}, err
		}
		defer d.Close()
		daemons[i] = d
	}
	ca := client.New("http://" + daemons[0].HTTPAddr())
	cb := client.New("http://" + daemons[1].HTTPAddr())

	var total atomic.Int64
	var lat stats.LatHist
	var wg sync.WaitGroup
	m0 := mallocs()
	stop := time.Now().Add(duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			ops := make([]client.Op, max(batch, 1))
			for i := w * 7919; time.Now().Before(stop); {
				for j := range ops {
					ops[j] = client.Op{Kind: "deposit", Key: keys[i%len(keys)], Arg: 1}
					i++
				}
				t0 := time.Now()
				var accepted int64
				if batch > 0 {
					results, err := ca.SubmitBatch(ctx, ops, false)
					if err != nil {
						return
					}
					for _, r := range results {
						if r.Accepted {
							accepted++
						}
					}
				} else {
					r, err := ca.Submit(ctx, ops[0], false)
					if err != nil {
						return
					}
					if r.Accepted {
						accepted = 1
					}
				}
				lat.AddDur(time.Since(t0))
				total.Add(accepted)
			}
		}(w)
	}
	wg.Wait()
	allocs := mallocs() - m0

	// Quiesce: background gossip spreads the tail; converged when the
	// two daemons' derived states agree through the public API.
	converged := false
	ctx := context.Background()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		sa, errA := ca.State(ctx)
		sb, errB := cb.State(ctx)
		if errA == nil && errB == nil && reflect.DeepEqual(sa.Keys, sb.Keys) {
			converged = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	accepted := total.Load()
	res := benchResult{
		Arm:       label,
		Accepted:  accepted,
		OpsPerSec: float64(accepted) / duration.Seconds(),
		P50Ns:     lat.P50(),
		P99Ns:     lat.P99(),
		Converged: converged,
	}
	if accepted > 0 {
		res.NsPerOp = float64(duration.Nanoseconds()) / float64(accepted)
		res.AllocsPerOp = float64(allocs) / float64(accepted)
	}
	tab.AddRow(label, fmt.Sprint(accepted),
		fmt.Sprintf("%.0f", res.OpsPerSec),
		fmt.Sprintf("%.1f", res.AllocsPerOp),
		stats.Dur(res.P50Ns), stats.Dur(res.P99Ns),
		fmt.Sprint(res.Converged))
	return res, nil
}
