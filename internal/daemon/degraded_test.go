package daemon

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/faultfs"
)

// fullDiskFS fails every write under the given replica's store dir with
// ENOSPC while the flag is set — the daemon-level "this disk is full".
func fullDiskFS(rep string, flag *atomic.Bool) faultfs.FS {
	marker := string(os.PathSeparator) + rep + string(os.PathSeparator)
	return faultfs.New(faultfs.OS, 1, func(op faultfs.Op) faultfs.Decision {
		if flag.Load() && strings.Contains(op.Path, marker) {
			switch op.Kind {
			case faultfs.OpWrite, faultfs.OpWriteAt, faultfs.OpCreate, faultfs.OpSync:
				return faultfs.Decision{Err: syscall.ENOSPC}
			}
		}
		return faultfs.Decision{}
	})
}

// TestDaemonDegradedSurface: when the disk under a daemon fills, the
// whole operator surface must say so — submits shed with 503 +
// Retry-After (not fail-fast, not a hang), /healthz carries the
// per-shard detail, /metrics exports the degraded gauge — and the
// daemon heals itself once space returns.
func TestDaemonDegradedSurface(t *testing.T) {
	var full atomic.Bool
	d := soloDaemon(t, func(c *Config) {
		c.DataDir = t.TempDir()
		c.storeFS = fullDiskFS("r0", &full)
	})
	c := client.New("http://"+d.HTTPAddr(), client.WithRetries(0))
	ctx := context.Background()

	if res, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 100}, false); err != nil || !res.Accepted {
		t.Fatalf("healthy submit: %+v, %v", res, err)
	}

	full.Store(true)
	_, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 100}, false)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != "degraded" {
		t.Fatalf("submit on a full disk: err = %v, want 503 degraded", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("503 without a Retry-After hint: %+v", ae)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.OK || len(h.Degraded) == 0 || !strings.Contains(h.Degraded[0], "r0") {
		t.Fatalf("healthz while degraded = %+v, want OK=false with r0 detail", h)
	}

	resp, err := http.Get("http://" + d.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`quicksand_shard_degraded{shard="0"} 1`,
		"quicksand_degraded_total 1",
		"quicksand_ingest_capacity",
		"quicksand_corrupt_frames_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Reads still answer while the shard is read-only.
	if st, err := c.State(ctx); err != nil || st.Keys["acct"] < 100 {
		t.Fatalf("degraded read: %+v, %v", st, err)
	}

	// Space returns; the replica re-probes and recovers on its own, and
	// the surface flips back.
	full.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 1}, false)
		if err == nil && res.Accepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never healed: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if h, err := c.Health(ctx); err != nil || !h.OK || len(h.Degraded) != 0 {
		t.Fatalf("healthz after heal = %+v, %v", h, err)
	}
}

// TestDaemonShedsOnSaturatedIngestRing: a default-config daemon has an
// ingest ring, so the overload surface is live — while the ring reports
// saturation past shedBacklog, POST /v1/submit and /v1/batch answer 429
// with a Retry-After hint and touch nothing, reads keep serving, and the
// moment the ring drains the same requests are admitted.
func TestDaemonShedsOnSaturatedIngestRing(t *testing.T) {
	d := soloDaemon(t, nil)
	c := client.New("http://"+d.HTTPAddr(), client.WithRetries(0))
	ctx := context.Background()

	// The real signal on an idle default daemon: an empty ring with a
	// non-zero nominal capacity (capacity 0 would mean "never shed").
	depth, capacity := d.backlog()
	if depth != 0 || capacity == 0 {
		t.Fatalf("idle default daemon backlog = %d/%d, want 0 of a non-zero capacity", depth, capacity)
	}
	if res, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 100}, false); err != nil || !res.Accepted {
		t.Fatalf("submit on an idle ring: %+v, %v", res, err)
	}

	// Saturate: one op short of the threshold still admits, at it sheds.
	drained := d.backlog
	threshold := int(shedBacklog * float64(capacity))
	queued := threshold - 1
	d.backlog = func() (int, int) { return queued, capacity }
	if res, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 1}, false); err != nil || !res.Accepted {
		t.Fatalf("submit just under the shed threshold: %+v, %v", res, err)
	}
	queued = capacity
	wantShed := func(what string, err error) {
		t.Helper()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != "overloaded" {
			t.Fatalf("%s on a saturated ring: err = %v, want 429 overloaded", what, err)
		}
		if ae.RetryAfter <= 0 {
			t.Fatalf("%s: 429 without a Retry-After hint: %+v", what, ae)
		}
	}
	_, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 1000}, false)
	wantShed("submit", err)
	_, err = c.SubmitBatch(ctx, []client.Op{{Kind: "deposit", Key: "acct", Arg: 1000}}, false)
	wantShed("batch", err)
	if st, err := c.State(ctx); err != nil || st.Keys["acct"] != 101 {
		t.Fatalf("read while shedding: %+v, %v — want acct=101 (shed submits must not apply)", st, err)
	}

	// Drained: the real, empty ring admits again.
	d.backlog = drained
	if res, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 1}, false); err != nil || !res.Accepted {
		t.Fatalf("submit after the ring drained: %+v, %v", res, err)
	}
	if _, err := c.SubmitBatch(ctx, []client.Op{{Kind: "deposit", Key: "acct", Arg: 1}}, false); err != nil {
		t.Fatalf("batch after the ring drained: %v", err)
	}
}
