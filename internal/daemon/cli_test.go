package daemon

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
)

// TestServeDrainsOnInterrupt runs serve as quicksandd does, on free
// ports and a data dir of its own: it takes the HTTP address from the
// "serving http on" line, submits one op through the SDK, and sends an
// interrupt. serve must log that it drains, return nil, and leave the op
// on disk for a daemon reopened on the same data dir.
func TestServeDrainsOnInterrupt(t *testing.T) {
	cfg := Config{Node: 0, Replicas: 1, HTTPListen: "127.0.0.1:0", PeerListen: "127.0.0.1:0", DataDir: t.TempDir()}
	var mu sync.Mutex
	var lines []string
	addr := make(chan string, 1)
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
		if _, rest, ok := strings.Cut(line, "serving http on "); ok {
			addr <- strings.TrimSuffix(strings.Fields(rest)[0], ",")
		}
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serve(cfg, logf, stop) }()
	var httpAddr string
	select {
	case httpAddr = <-addr:
	case err := <-done:
		t.Fatalf("serve returned before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve logged no \"serving http on\" line")
	}
	ctx := context.Background()
	if _, err := client.New("http://"+httpAddr).Submit(ctx, client.Op{Kind: "deposit", Key: "k", Arg: 41}, false); err != nil {
		t.Fatal(err)
	}
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after an interrupt, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after an interrupt")
	}
	mu.Lock()
	drained := slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, "caught interrupt, draining") })
	mu.Unlock()
	if !drained {
		t.Errorf("serve logged %q, no \"caught interrupt, draining\"", lines)
	}

	cfg.Logf = nil
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st, err := client.New("http://" + d.HTTPAddr()).State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys["k"] != 41 {
		t.Fatalf("a daemon reopened on the data dir holds %v, want k=41", st.Keys)
	}
}

// TestServeFlagsOverrideConfigFile pins the precedence of every daemon
// setting: a value set in the -config file only, by flag only, by both
// (the flag wins), and by neither (the default New and Doctor fill in).
// Two more rows set a flag to its zero value over a file value; the
// flag still wins.
func TestServeFlagsOverrideConfigFile(t *testing.T) {
	peers := func(c Config) any {
		var parts []string
		for i, a := range c.Peers {
			parts = append(parts, fmt.Sprintf("%d=%s", i, a))
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	for _, s := range []struct {
		flag, key, file, byFlag, def string
		get                          func(Config) any
	}{
		{"node", "node", "1", "2", "0", func(c Config) any { return c.Node }},
		{"replicas", "replicas", "3", "4", "2", func(c Config) any { return c.Replicas }},
		{"shards", "shards", "5", "6", "1", func(c Config) any { return c.Shards }},
		{"http", "http_listen", "127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:8080", func(c Config) any { return c.HTTPListen }},
		{"peer-listen", "peer_listen", "127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7000", func(c Config) any { return c.PeerListen }},
		{"peers", "peers", "0=a:1,1=b:2", "1=c:3", "", peers},
		{"peer-token", "peer_token", "file-peer", "flag-peer", "", func(c Config) any { return c.PeerToken }},
		{"api-token", "api_token", "file-api", "flag-api", "", func(c Config) any { return c.APIToken }},
		{"data", "data_dir", "/file/dir", "/flag/dir", "", func(c Config) any { return c.DataDir }},
		{"gossip-every", "gossip_every", "25ms", "75ms", "50ms", func(c Config) any { return c.GossipEvery }},
		{"call-timeout", "call_timeout", "250ms", "1s", "500ms", func(c Config) any { return c.CallTimeout }},
		{"trace-sample", "trace_sample", "8", "-1", "64", func(c Config) any { return c.TraceSample }},
		{"debug-addr", "debug_addr", "127.0.0.1:6061", "127.0.0.1:6062", "", func(c Config) any { return c.DebugAddr }},
	} {
		path := filepath.Join(t.TempDir(), "d.yaml")
		if err := os.WriteFile(path, []byte(s.key+": "+s.file+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, row := range []struct {
			name string
			args []string
			want string
		}{
			{"file", []string{"-config", path}, s.file},
			{"flag", []string{"-" + s.flag, s.byFlag}, s.byFlag},
			{"both", []string{"-config", path, "-" + s.flag, s.byFlag}, s.byFlag},
			{"neither", nil, s.def},
		} {
			cfg, err := ParseServeFlags(row.args, io.Discard)
			if err != nil {
				t.Errorf("%s/%s: %v", s.flag, row.name, err)
				continue
			}
			if got := fmt.Sprint(s.get(cfg.withDefaults())); got != row.want {
				t.Errorf("%s/%s %q: got %s, want %s", s.flag, row.name, row.args, got, row.want)
			}
		}
	}

	// A zero-valued flag still overrides the file.
	path := filepath.Join(t.TempDir(), "d.yaml")
	if err := os.WriteFile(path, []byte("data_dir: /file/dir\ntrace_sample: 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		args []string
		get  func(Config) any
		want string
	}{
		{[]string{"-config", path, "-data", ""}, func(c Config) any { return c.DataDir }, ""},
		{[]string{"-config", path, "-trace-sample", "0"}, func(c Config) any { return c.TraceSample }, "64"},
	} {
		cfg, err := ParseServeFlags(row.args, io.Discard)
		if err != nil {
			t.Errorf("%q: %v", row.args, err)
			continue
		}
		if got := fmt.Sprint(row.get(cfg.withDefaults())); got != row.want {
			t.Errorf("%q: got %s, want %s", row.args, got, row.want)
		}
	}
}
