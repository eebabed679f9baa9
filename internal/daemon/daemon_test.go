package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/testenv"
)

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(`
# node zero of a two-daemon cluster
node: 0
replicas: 2
shards: 4
http_listen: 127.0.0.1:8080
peer_listen: 127.0.0.1:7000
peers: 0=127.0.0.1:7000, 1=127.0.0.1:7001
peer_token: s3cret
api_token: hunter2
data_dir: /var/lib/quicksand/n0
gossip_every: 25ms
call_timeout: 250ms
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Node != 0 || cfg.Replicas != 2 || cfg.Shards != 4 {
		t.Fatalf("topology misparsed: %+v", cfg)
	}
	if cfg.Peers[1] != "127.0.0.1:7001" {
		t.Fatalf("peers misparsed: %v", cfg.Peers)
	}
	if cfg.GossipEvery != 25*time.Millisecond || cfg.CallTimeout != 250*time.Millisecond {
		t.Fatalf("durations misparsed: %+v", cfg)
	}
	if cfg.APIToken != "hunter2" || cfg.PeerToken != "s3cret" {
		t.Fatalf("tokens misparsed: %+v", cfg)
	}
	if err := cfg.withDefaults().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	// As in YAML, '#' opens a comment only after whitespace, so a token
	// keeps its '#' as the -peer-token flag does.
	cfg, err = ParseConfig("node: 0 # zero\nreplicas: 3\t# three\npeer_token: abc#123\n")
	if err != nil || cfg.Node != 0 || cfg.Replicas != 3 || cfg.PeerToken != "abc#123" {
		t.Fatalf("comments misparsed: %+v, %v", cfg, err)
	}
}

func TestParseConfigRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"node 0",               // missing colon
		"nodes: 0",             // unknown key
		"node: zero",           // not an int
		"gossip_every: fast",   // not a duration
		"snapshot_every: 2048", // no snapshots are cut any more: an unknown key
		"shed_backlog: 0.5",    // a constant now: an unknown key
		"min_free_disk: 1G",    // a constant now: an unknown key
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) succeeded", bad)
		}
	}
}

func TestValidateCatchesBadTopology(t *testing.T) {
	if err := (Config{Node: 2, Replicas: 2}).withDefaults().Validate(); err == nil {
		t.Error("node out of range accepted")
	}
	if err := (Config{Node: 0, Replicas: 2}).withDefaults().Validate(); err == nil {
		t.Error("missing peer address accepted")
	}
	if err := (Config{Node: 0, Replicas: 2, Peers: map[int]string{1: "x:1", 7: "y:2"}}).withDefaults().Validate(); err == nil {
		t.Error("out-of-range peer index accepted")
	}
	// WithGossipEvery takes a non-positive interval to mean "no schedule":
	// a daemon must refuse one rather than run silently gossip-free.
	if err := (Config{Node: 0, Replicas: 1, GossipEvery: -time.Second}).withDefaults().Validate(); err == nil {
		t.Error("negative gossip_every accepted")
	}
	// A call that expires at once would decline every coordinated submit.
	if err := (Config{Node: 0, Replicas: 1, CallTimeout: -time.Second}).withDefaults().Validate(); err == nil {
		t.Error("negative call_timeout accepted")
	}
}

// soloDaemon boots a single-replica daemon on ephemeral ports.
func soloDaemon(t *testing.T, mutate func(*Config)) *Daemon {
	t.Helper()
	cfg := Config{
		Node:       0,
		Replicas:   1,
		HTTPListen: "127.0.0.1:0",
		PeerListen: "127.0.0.1:0",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDaemonHTTPRoundTrip(t *testing.T) {
	d := soloDaemon(t, nil)
	c := client.New("http://" + d.HTTPAddr())
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil || !h.OK {
		t.Fatalf("health: %+v, %v", h, err)
	}

	res, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 500}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.ID == "" {
		t.Fatalf("deposit not accepted: %+v", res)
	}

	// Idempotent re-submit: same ID, no double-apply.
	res2, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 500, ID: res.ID}, false)
	if err != nil || !res2.Accepted {
		t.Fatalf("idempotent retry declined: %+v, %v", res2, err)
	}

	// Overdraft declined by the local guess.
	res3, err := c.Submit(ctx, client.Op{Kind: "withdraw", Key: "acct", Arg: 900}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Accepted || !strings.Contains(res3.Reason, "no-overdraft") {
		t.Fatalf("overdraft not declined by rule: %+v", res3)
	}

	st, err := c.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys["acct"] != 500 {
		t.Fatalf("state = %v, want acct=500 (dedup must not double-apply)", st.Keys)
	}

	// The keyed read answers for one key and sends no other.
	if v, ok, err := c.StateOf(ctx, "acct"); err != nil || !ok || v != 500 {
		t.Fatalf("StateOf(acct) = %d, %v, %v; want 500, true", v, ok, err)
	}
	if v, ok, err := c.StateOf(ctx, "no such key & co"); err != nil || ok || v != 0 {
		t.Fatalf("StateOf(absent) = %d, %v, %v; want 0, false", v, ok, err)
	}
	resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/state?key=nobody")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != `{"node":0,"shards":1,"keys":{}}`+"\n" {
		t.Fatalf("absent key: %d %s, want 200 with empty keys", resp.StatusCode, raw)
	}

	batch := []client.Op{
		{Kind: "deposit", Key: "a", Arg: 1},
		{Kind: "deposit", Key: "b", Arg: 2},
		{Kind: "withdraw", Key: "a", Arg: 1},
	}
	results, err := c.SubmitBatch(ctx, batch, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("batch results = %d, want 3", len(results))
	}
	for i, r := range results {
		if !r.Accepted {
			t.Fatalf("batch op %d declined: %+v", i, r)
		}
	}

	ap, err := c.Apologies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Total != 0 {
		t.Fatalf("apologies = %+v, want none (nothing went negative)", ap)
	}
}

func TestDaemonBearerAuth(t *testing.T) {
	d := soloDaemon(t, func(c *Config) { c.APIToken = "hunter2" })
	ctx := context.Background()

	// Wrong token: uniform 401 with the error envelope.
	bad := client.New("http://"+d.HTTPAddr(), client.WithToken("wrong"), client.WithRetries(0))
	_, err := bad.State(ctx)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusUnauthorized || apiErr.Code != "unauthorized" {
		t.Fatalf("want 401 unauthorized envelope, got %v", err)
	}
	if _, err := bad.Health(ctx); err != nil {
		t.Fatalf("healthz must stay tokenless: %v", err)
	}

	good := client.New("http://"+d.HTTPAddr(), client.WithToken("hunter2"))
	if _, err := good.State(ctx); err != nil {
		t.Fatalf("right token rejected: %v", err)
	}
}

func TestDaemonRejectsUnknownFieldsAndBadOps(t *testing.T) {
	d := soloDaemon(t, nil)
	c := client.New("http://"+d.HTTPAddr(), client.WithRetries(0))
	ctx := context.Background()

	resp, err := http.Post("http://"+d.HTTPAddr()+"/v1/submit", "application/json",
		strings.NewReader(`{"kind":"deposit","key":"k","arg":1,"typo_field":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field got %d, want 400", resp.StatusCode)
	}

	// One value per body: a second value, or garbage, after the first
	// used to be ignored (json.Decoder stops where the value ends). The
	// cold endpoints' decoder checks the same.
	for _, tc := range []struct{ path, body string }{
		{"/v1/submit", `{"kind":"deposit","key":"a","arg":1}{"kind":"withdraw","key":"a","arg":1}`},
		{"/v1/submit", `{"kind":"deposit","key":"a","arg":1} garbage`},
		{"/v1/batch", `{"ops":[{"kind":"deposit","key":"a","arg":1}]}]`},
		{"/v1/annotate", `{"note":"n"}{"note":"m"}`},
	} {
		resp, err := http.Post("http://"+d.HTTPAddr()+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var env client.ErrorEnvelope
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || client.ScanErrorEnvelope(raw, &env) != nil || env.Error.Code != "bad_request" {
			t.Errorf("%s with trailing data got %d %s, want 400 bad_request", tc.path, resp.StatusCode, raw)
		}
	}
	if st, err := c.State(ctx); err != nil || len(st.Keys) != 0 {
		t.Fatalf("a refused body left state behind: %v, %v", st.Keys, err)
	}
	// The 8 MiB cap holds whatever the body is made of.
	resp, err = http.Post("http://"+d.HTTPAddr()+"/v1/submit", "application/json",
		io.MultiReader(strings.NewReader(`{"kind":"deposit","key":"k","arg":1}`), strings.NewReader(strings.Repeat(" ", maxBody))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a body over the cap got %d, want 400", resp.StatusCode)
	}
	// Trailing whitespace is not data.
	resp, err = http.Post("http://"+d.HTTPAddr()+"/v1/submit", "application/json",
		strings.NewReader(`{"kind":"deposit","key":"k","arg":1}`+" \r\n\t"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace got %d, want 200", resp.StatusCode)
	}

	if _, err := c.Submit(ctx, client.Op{Key: "k", Arg: 1}, false); err == nil {
		t.Fatal("op without kind accepted")
	}
	if _, err := c.SubmitBatch(ctx, nil, false); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestDaemonMetricsExposition(t *testing.T) {
	d := soloDaemon(t, nil)
	c := client.New("http://" + d.HTTPAddr())
	if _, err := c.Submit(context.Background(), client.Op{Kind: "deposit", Key: "k", Arg: 1}, false); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + d.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{
		"quicksand_submits_accepted_total 1",
		"# TYPE quicksand_submit_duration_seconds histogram",
		"quicksand_journal_fsyncs_total",
		"quicksand_apologies_total 0",
		"quicksand_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestKeyedReadNeverMakesAWriteClone: GET /v1/state?key= looks the key
// up in place, so polling it between writes costs the writes nothing;
// the whole-state read takes a snapshot, which the next write pays one
// clone for — and /metrics says so.
func TestKeyedReadNeverMakesAWriteClone(t *testing.T) {
	d := soloDaemon(t, nil)
	c := client.New("http://" + d.HTTPAddr())
	ctx := context.Background()
	deposit := func() {
		t.Helper()
		if res, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: "acct", Arg: 1}, false); err != nil || !res.Accepted {
			t.Fatalf("deposit: %+v, %v", res, err)
		}
	}
	for i := int64(1); i <= 20; i++ {
		deposit()
		if v, ok, err := c.StateOf(ctx, "acct"); err != nil || !ok || v != i {
			t.Fatalf("StateOf after %d acknowledged deposits = %d, %v, %v", i, v, ok, err)
		}
	}
	if n := d.cluster.Metrics().FoldClones.Value(); n != 0 {
		t.Fatalf("keyed reads between writes made the fold clone %d times", n)
	}
	if _, err := c.State(ctx); err != nil {
		t.Fatal(err)
	}
	deposit()
	deposit()
	resp, err := http.Get("http://" + d.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"quicksand_fold_clones_total 1\n", "quicksand_shard_fold_clones_total{shard=\"0\"} 1\n"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q after one whole-state read between writes", want)
		}
	}
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them — the usual racy-but-reliable trick for wiring two daemons that
// must know each other's address before either starts.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestTwoDaemonsConvergeInProcess wires two Daemon values (full HTTP +
// TCP stacks, same process) into one cluster and drives them to
// convergence through the public API only.
func TestTwoDaemonsConvergeInProcess(t *testing.T) {
	ports := freePorts(t, 2)
	peers := map[int]string{0: ports[0], 1: ports[1]}
	mk := func(node int) *Daemon {
		d, err := New(Config{
			Node:        node,
			Replicas:    2,
			HTTPListen:  "127.0.0.1:0",
			PeerListen:  ports[node],
			Peers:       peers,
			PeerToken:   "mesh",
			GossipEvery: time.Hour, // manual rounds via /v1/gossip
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	da, db := mk(0), mk(1)
	ca := client.New("http://" + da.HTTPAddr())
	cb := client.New("http://" + db.HTTPAddr())
	ctx := context.Background()

	if _, err := ca.Submit(ctx, client.Op{Kind: "deposit", Key: "x", Arg: 10}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Submit(ctx, client.Op{Kind: "deposit", Key: "x", Arg: 20}, false); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := ca.Gossip(ctx); err != nil {
			t.Fatal(err)
		}
		if err := cb.Gossip(ctx); err != nil {
			t.Fatal(err)
		}
		sa, errA := ca.State(ctx)
		sb, errB := cb.State(ctx)
		if errA == nil && errB == nil && sa.Keys["x"] == 30 && sb.Keys["x"] == 30 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: A=%v B=%v", sa.Keys, sb.Keys)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonIngestNudgesGossip: a daemon's cluster is built with
// WithGossipEvery, so ingest that leaves a peer a full batch (256
// entries) of unacknowledged suffix pushes it at once instead of waiting
// for the ticker — here an hour away, so the nudge is the only thing that
// can deliver. A batch is re-offered while the peer link is still coming
// up: a push sent before it is may be lost, and only more ingest re-arms
// the nudge.
func TestDaemonIngestNudgesGossip(t *testing.T) {
	ports := freePorts(t, 2)
	peers := map[int]string{0: ports[0], 1: ports[1]}
	mk := func(node int) *Daemon {
		d, err := New(Config{
			Node:        node,
			Replicas:    2,
			HTTPListen:  "127.0.0.1:0",
			PeerListen:  ports[node],
			Peers:       peers,
			PeerToken:   "mesh",
			GossipEvery: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	da, db := mk(0), mk(1)
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; db.cluster.Replica(1).OpCount() == 0; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("peer holds nothing after %d full batches and no tick: the ingest-side gossip nudge is off in daemons", round)
		}
		batch := make([]core.Op, 256)
		for i := range batch {
			batch[i] = core.NewOp("deposit", fmt.Sprintf("acct-%d", i%16), 1)
		}
		if _, err := da.cluster.SubmitBatch(ctx, 0, batch); err != nil {
			t.Fatal(err)
		}
		for wait := 0; wait < 100 && db.cluster.Replica(1).OpCount() == 0; wait++ {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestDoctorOnHealthyConfig(t *testing.T) {
	checks := Doctor(Config{
		Node:       0,
		Replicas:   1,
		HTTPListen: "127.0.0.1:0",
		PeerListen: "127.0.0.1:0",
		DataDir:    t.TempDir(),
	})
	for _, c := range checks {
		// Advisory findings (an unreachable peer, no daemon up yet for the
		// metrics probe) do not fail the doctor — same contract as the CLI.
		if !c.OK && !c.Advisory {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	// Expect the durability checks to have actually run.
	names := make(map[string]bool)
	for _, c := range checks {
		names[c.Name] = true
	}
	for _, want := range []string{"config", "data-dir-writable", "fsync", "http-port", "peer-port"} {
		if !names[want] {
			t.Errorf("doctor skipped check %s (got %v)", want, names)
		}
	}
}

func TestDoctorFlagsUnreachablePeer(t *testing.T) {
	checks := Doctor(Config{
		Node:       0,
		Replicas:   2,
		HTTPListen: "127.0.0.1:0",
		PeerListen: "127.0.0.1:0",
		// A port from the reserved-but-released pool: nothing listens.
		Peers: map[int]string{1: freePorts(t, 1)[0]},
	})
	found := false
	for _, c := range checks {
		if c.Name == "peer-1" {
			found = true
			if c.OK {
				t.Errorf("unreachable peer reported healthy: %+v", c)
			}
			if !c.Advisory {
				t.Errorf("unreachable peer should be advisory, not fatal: %+v", c)
			}
		}
	}
	if !found {
		t.Error("doctor never probed peer-1")
	}
}

// TestDaemonGracefulRestartKeepsState: Close flushes; a new daemon on
// the same data dir cold-starts with the accepted state.
func TestDaemonGracefulRestartKeepsState(t *testing.T) {
	dir := t.TempDir()
	ports := freePorts(t, 1)
	mk := func() *Daemon {
		d, err := New(Config{
			Node:       0,
			Replicas:   1,
			HTTPListen: "127.0.0.1:0",
			PeerListen: ports[0],
			DataDir:    dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := mk()
	c := client.New("http://" + d.HTTPAddr())
	if _, err := c.Submit(context.Background(), client.Op{Kind: "deposit", Key: "k", Arg: 41}, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}

	d2 := mk()
	defer d2.Close()
	c2 := client.New("http://" + d2.HTTPAddr())
	st, err := c2.State(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys["k"] != 41 {
		t.Fatalf("state after restart = %v, want k=41", st.Keys)
	}
}

// quietWriter is an in-memory ResponseWriter that keeps nothing but the
// status, so what a handler allocates through it is the handler's own.
type quietWriter struct {
	h      http.Header
	status int
}

func (w *quietWriter) Header() http.Header         { return w.h }
func (w *quietWriter) WriteHeader(status int)      { w.status = status }
func (w *quietWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestHandleSubmitAllocations pins what the HTTP edge adds to a guess
// inside the daemon — handleSubmit through a reused ResponseWriter, minus
// the same op made straight on the cluster. With json.NewDecoder,
// MaxBytesReader and json.NewEncoder it was 13; scanning and appending
// through one pooled buffer leaves 1 (the copy of the body the scanner
// cuts the op's strings from — the op set copies them into its arena, so
// the edge no longer does), and the pin allows 3.
func TestHandleSubmitAllocations(t *testing.T) {
	testenv.SkipUnderRace(t)
	d := soloDaemon(t, func(c *Config) { c.TraceSample = -1 })
	ctx := context.Background()
	body := strings.NewReader("")
	req := httptest.NewRequest(http.MethodPost, "/v1/submit", nil)
	req.Body = io.NopCloser(body)
	w := &quietWriter{h: http.Header{}}
	edge := func() {
		body.Reset(`{"kind":"deposit","key":"acct-0001","arg":1}`)
		w.status = 0
		d.handleSubmit(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	direct := func() {
		if res, err := d.cluster.Submit(ctx, 0, core.NewOp("deposit", "acct-0001", 1)); err != nil || !res.Accepted {
			t.Fatalf("direct submit = %+v, %v", res, err)
		}
	}
	for i := 0; i < 2048; i++ { // grow the op set, the ring and the pooled buffers first
		edge()
		direct()
	}
	got := testing.AllocsPerRun(1000, edge) - testing.AllocsPerRun(1000, direct)
	t.Logf("handleSubmit adds %.1f allocations to a guess", got)
	if got > 3 {
		t.Errorf("handleSubmit adds %.1f allocations to a guess, want at most 3", got)
	}
}

// TestDaemonStateAcrossShards: the state reply is assembled from the
// shards' folds without merging them, so with several shards it must
// still be the bytes encoding/json writes for the merged map, and a keyed
// read must find its key in whichever shard owns it.
func TestDaemonStateAcrossShards(t *testing.T) {
	d := soloDaemon(t, func(c *Config) { c.Shards = 4 })
	c := client.New("http://" + d.HTTPAddr())
	ctx := context.Background()
	want := client.StateResponse{Node: 0, Shards: 4, Keys: map[string]int64{}}
	for i := 0; i < 200; i++ { // enough for a reply net/http would chunk if its length went undeclared
		key := fmt.Sprintf("k<%d>&", i) // HTML characters: escaped on the wire
		if _, err := c.Submit(ctx, client.Op{Kind: "deposit", Key: key, Arg: int64(i)}, false); err != nil {
			t.Fatal(err)
		}
		want.Keys[key] = int64(i)
	}
	resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantRaw, _ := json.Marshal(want)
	if string(raw) != string(wantRaw)+"\n" {
		t.Fatalf("state over 4 shards:\n got %s\nwant %s", raw, wantRaw)
	}
	if resp.ContentLength != int64(len(raw)) || len(raw) <= selfDeclared {
		t.Fatalf("a %d-byte state declared Content-Length %d", len(raw), resp.ContentLength)
	}
	if got, err := c.State(ctx); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("State = %+v, %v", got, err)
	}
	for key, v := range want.Keys {
		if got, ok, err := c.StateOf(ctx, key); err != nil || !ok || got != v {
			t.Fatalf("StateOf(%q) = %d, %v, %v; want %d", key, got, ok, err, v)
		}
	}
}

// TestSubmitRoundTripAllocations pins one SDK Submit against a live
// daemon over loopback HTTP: the client, net/http on both ends, the edge
// and the guess, everything the process allocates for one acknowledged op.
// The SDK's own request — a body net/http knows is in memory, shared
// header sets that ask for no gzip and send no User-Agent — costs 87.
func TestSubmitRoundTripAllocations(t *testing.T) {
	testenv.SkipUnderRace(t)
	d := soloDaemon(t, func(c *Config) { c.TraceSample = -1 })
	c := client.New("http://" + d.HTTPAddr())
	ctx := context.Background()
	op := client.Op{Kind: "deposit", Key: "acct-0001", Arg: 1}
	submit := func() {
		if res, err := c.Submit(ctx, op, false); err != nil || !res.Accepted {
			t.Fatalf("Submit = %+v, %v", res, err)
		}
	}
	for i := 0; i < 2000; i++ { // grow the op set and warm the pools and the connection
		submit()
	}
	got := testing.AllocsPerRun(1000, submit)
	t.Logf("one SDK Submit round trip: %.0f allocations", got)
	if got > 88 {
		t.Errorf("one SDK Submit round trip allocates %.0f times, want at most 88", got)
	}
}
