package daemon

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/promtext"
)

// TestMetricsScrapeStrict boots a real daemon (durable, two shards,
// tracing every op), pushes traffic through it, and runs the scraped
// /metrics text through the strict exposition-format parser — every
// family well-formed, every histogram monotone with +Inf == _count,
// and the families the dashboards and CI depend on present with
// samples.
func TestMetricsScrapeStrict(t *testing.T) {
	d := soloDaemon(t, func(c *Config) {
		c.DataDir = t.TempDir() // journals on: fsync histograms populate
		c.Shards = 2
		c.TraceSample = 1 // trace every op: lag histograms populate
	})
	c := client.New("http://" + d.HTTPAddr())
	ctx := context.Background()

	var ops []client.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, client.Op{Kind: "deposit", Key: fmt.Sprintf("acct-%d", i), Arg: 10})
	}
	if _, err := c.SubmitBatch(ctx, ops, false); err != nil {
		t.Fatal(err)
	}
	// One sync submit so the sync-path histogram has a sample too.
	if _, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct-0", Arg: 1}, true); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + d.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	fams, err := promtext.Parse(string(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if err := promtext.Validate(fams); err != nil {
		t.Fatalf("scrape is not valid exposition text: %v", err)
	}

	// Families with at least one sample that the dashboard and the CI
	// scrape step rely on.
	mustHaveSamples := []string{
		"quicksand_submits_accepted_total",
		"quicksand_shard_submits_accepted_total",
		"quicksand_submit_duration_seconds",
		"quicksand_fsync_duration_seconds",
		"quicksand_guess_to_durable_seconds",
		"quicksand_guess_to_truth_seconds",
		"quicksand_trace_sample_every",
		"quicksand_goroutines",
		"quicksand_heap_alloc_bytes",
		"quicksand_gomaxprocs",
	}
	for _, name := range mustHaveSamples {
		f := promtext.Find(fams, name)
		if f == nil {
			t.Errorf("family %s missing from scrape", name)
			continue
		}
		if len(f.Samples) == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}

	// Shard labels: both shards must report their own submit counters.
	shard := promtext.Find(fams, "quicksand_shard_submits_accepted_total")
	seen := map[string]bool{}
	if shard != nil {
		for _, s := range shard.Samples {
			seen[s.Labels["shard"]] = true
		}
	}
	if !seen["0"] || !seen["1"] {
		t.Errorf("per-shard counters cover shards %v, want both 0 and 1", seen)
	}

	// The submit histogram carries both path and shard labels, and at
	// least one async series actually observed our batch.
	sub := promtext.Find(fams, "quicksand_submit_duration_seconds")
	var asyncCount float64
	if sub != nil {
		for _, s := range sub.Samples {
			if strings.HasSuffix(s.Name, "_count") && s.Labels["path"] == "async" {
				asyncCount += s.Value
			}
		}
	}
	if asyncCount < 64 {
		t.Errorf("async submit histogram counted %v ops, want >= 64", asyncCount)
	}

	// Replicas=1: truth lands at admission, so every traced op has a
	// guess-to-truth sample.
	truth := promtext.Find(fams, "quicksand_guess_to_truth_seconds")
	var truthCount float64
	if truth != nil {
		for _, s := range truth.Samples {
			if strings.HasSuffix(s.Name, "_count") {
				truthCount += s.Value
			}
		}
	}
	if truthCount == 0 {
		t.Error("guess-to-truth histogram empty with trace_sample=1")
	}
}

// TestTraceEndpointAndDash exercises the observability HTTP surface:
// /v1/trace (recent stream and per-op timeline), /v1/annotate, and the
// embedded /dash page.
func TestTraceEndpointAndDash(t *testing.T) {
	d := soloDaemon(t, func(c *Config) { c.TraceSample = 1 })
	c := client.New("http://" + d.HTTPAddr())
	ctx := context.Background()

	res, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 5}, false)
	if err != nil || !res.Accepted {
		t.Fatalf("submit: %+v, %v", res, err)
	}
	if err := c.Annotate(ctx, "test marker"); err != nil {
		t.Fatalf("annotate: %v", err)
	}

	recent, err := c.TraceRecent(ctx)
	if err != nil {
		t.Fatalf("trace recent: %v", err)
	}
	if recent.SampleEvery != 1 || len(recent.Events) == 0 {
		t.Fatalf("recent trace = %+v, want sampled events", recent)
	}
	var sawAnnotation bool
	for _, e := range recent.Events {
		if e.Kind == "annotation" && e.Note == "test marker" {
			sawAnnotation = true
		}
	}
	if !sawAnnotation {
		t.Error("annotation missing from recent trace stream")
	}

	tl, err := c.Trace(ctx, res.ID)
	if err != nil {
		t.Fatalf("trace op: %v", err)
	}
	if len(tl.Events) < 2 || tl.Events[0].Kind != "submitted" {
		t.Fatalf("op timeline = %+v, want submitted-first lifecycle", tl.Events)
	}

	// A rule decline ends its timeline with the reason the caller was given.
	dec, err := c.Submit(ctx, client.Op{Kind: "withdraw", Key: "acct", Arg: 900}, false)
	if err != nil || dec.Accepted || dec.Reason == "" {
		t.Fatalf("overdraft: %+v, %v; want a rule decline", dec, err)
	}
	tl, err = c.Trace(ctx, dec.ID)
	if err != nil {
		t.Fatalf("trace declined op: %v", err)
	}
	if last := tl.Events[len(tl.Events)-1]; last.Kind != "declined" || last.Note != dec.Reason {
		t.Fatalf("declined op's timeline ends %+v, want a declined event noting %q", last, dec.Reason)
	}

	if _, err := c.Trace(ctx, "no-such-op"); err == nil {
		t.Error("unknown op id did not 404")
	}

	resp, err := http.Get("http://" + d.HTTPAddr() + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dash status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("/dash content-type %q", ct)
	}
	page, _ := io.ReadAll(resp.Body)
	if !strings.Contains(strings.ToLower(string(page)), "quicksand") {
		t.Error("/dash page does not mention quicksand")
	}
}

// TestTraceDisabled pins the off switch: trace_sample < 0 leaves the
// daemon with no tracer, /v1/trace answers 404, and /metrics still
// parses (the lag families simply absent, the sample gauge zero).
func TestTraceDisabled(t *testing.T) {
	d := soloDaemon(t, func(c *Config) { c.TraceSample = -1 })
	c := client.New("http://"+d.HTTPAddr(), client.WithRetries(0))
	ctx := context.Background()

	if _, err := c.TraceRecent(ctx); err == nil {
		t.Error("trace endpoint answered with tracing disabled")
	}

	resp, err := http.Get("http://" + d.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fams, err := promtext.Parse(string(body))
	if err != nil {
		t.Fatalf("scrape does not parse with tracing off: %v", err)
	}
	if err := promtext.Validate(fams); err != nil {
		t.Fatalf("invalid exposition with tracing off: %v", err)
	}
	if f := promtext.Find(fams, "quicksand_guess_to_truth_seconds"); f != nil {
		t.Error("lag histogram exported with tracing disabled")
	}
	gauge := promtext.Find(fams, "quicksand_trace_sample_every")
	if gauge == nil || len(gauge.Samples) == 0 || gauge.Samples[0].Value != 0 {
		t.Errorf("trace_sample_every gauge = %+v, want 0", gauge)
	}
}

// TestDoctorMetricsProbeLive pins doctor's live half: against a
// running daemon the metrics probe hard-verifies the scrape (strict
// parse) and reports its size and duration, instead of the advisory
// "no daemon answering" it gives preflight.
func TestDoctorMetricsProbeLive(t *testing.T) {
	d := soloDaemon(t, nil)
	c := client.New("http://" + d.HTTPAddr())
	if _, err := c.Submit(context.Background(), client.Op{Kind: "deposit", Key: "k", Arg: 1}, false); err != nil {
		t.Fatal(err)
	}
	check := checkMetricsScrape(d.HTTPAddr())
	if !check.OK || check.Advisory {
		t.Fatalf("live metrics probe = %+v, want hard OK", check)
	}
	if !strings.Contains(check.Detail, "families") || !strings.Contains(check.Detail, "bytes") {
		t.Errorf("probe detail %q does not report scrape size", check.Detail)
	}
}

// TestDebugListener pins the pprof surface: off by default, and when
// configured it serves the profile index on its own listener, never on
// the API port.
func TestDebugListener(t *testing.T) {
	plain := soloDaemon(t, nil)
	resp, err := http.Get("http://" + plain.HTTPAddr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable on API listener: %d", resp.StatusCode)
	}

	dbg := soloDaemon(t, func(c *Config) { c.DebugAddr = "127.0.0.1:0" })
	if dbg.DebugAddr() == "" {
		t.Fatal("debug listener not started")
	}
	resp, err = http.Get("http://" + dbg.DebugAddr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list profiles")
	}

	// The API listener still refuses pprof even when debugging is on.
	resp, err = http.Get("http://" + dbg.HTTPAddr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof leaked onto API listener: %d", resp.StatusCode)
	}
}
