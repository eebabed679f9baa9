// Command quicksand is the ops CLI for quicksandd daemons.
//
//	quicksand doctor -config node0.yaml           # preflight: dirs, fsync, ports, peers
//	quicksand ps     -addr http://127.0.0.1:8080,http://127.0.0.1:8081
//	quicksand submit -addr http://127.0.0.1:8080 deposit acct-1 500
//	quicksand submit -addr http://127.0.0.1:8080 -sync withdraw acct-1 200
//	quicksand state  -addr http://127.0.0.1:8080 acct-1   # one key; no key prints the whole map
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/daemon"
	"repro/internal/promtext"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command and returns the process's exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, ok := map[string]func(cli, []string) error{
		"doctor": cli.doctor, "ps": cli.ps, "submit": cli.submit, "state": cli.state, "scrape": cli.scrape,
	}[args[0]]
	switch {
	case slices.Contains([]string{"-h", "-help", "--help", "help"}, args[0]):
		usage(stderr)
		return 0
	case !ok:
		fmt.Fprintf(stderr, "quicksand: unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
	switch err := cmd(cli{stdout, stderr}, args[1:]); {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 2
	default:
		fmt.Fprintln(stderr, "quicksand:", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `quicksand — ops CLI for quicksandd daemons

commands:
  doctor   preflight a config: data dir, fsync, ports, peer reachability
  ps       show status of running daemons over their HTTP APIs
  submit   submit one operation through a daemon
  state    print a daemon's derived state: the whole map, or one key's value
  scrape   fetch /metrics, strictly validate the exposition format

run "quicksand <command> -h" for the command's flags.
`)
}

// cli is where a command writes: its output, and its errors and usage.
type cli struct{ out, errOut io.Writer }

func (c cli) doctor(args []string) error {
	cfg, err := daemon.ParseServeFlags(args, c.errOut)
	if err != nil {
		return err
	}
	checks := daemon.Doctor(cfg)
	failed := 0
	for _, ch := range checks {
		mark := "ok  "
		switch {
		case ch.OK:
		case ch.Advisory:
			mark = "warn"
		default:
			mark = "FAIL"
			failed++
		}
		fmt.Fprintf(c.out, "%s  %-18s %s\n", mark, ch.Name, ch.Detail)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d checks failed", failed, len(checks))
	}
	fmt.Fprintf(c.out, "all %d checks passed\n", len(checks))
	return nil
}

func (c cli) ps(args []string) error {
	fs := flag.NewFlagSet("ps", flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	addrs := fs.String("addr", "http://127.0.0.1:8080", "comma-separated daemon base URLs")
	token := fs.String("token", "", "API bearer token (enables the keys/apologies columns)")
	timeout := fs.Duration("timeout", 3*time.Second, "per-daemon probe timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-28s %-8s %-5s %-7s %-7s %-6s %-10s\n", "ADDR", "STATE", "NODE", "SHARDS", "REPLICAS", "KEYS", "APOLOGIES")
	var down int
	for _, addr := range strings.Split(*addrs, ",") {
		if addr = strings.TrimSpace(addr); addr != "" && !c.psRow(addr, *token, *timeout) {
			down++
		}
	}
	if down > 0 {
		return fmt.Errorf("%d daemon(s) unreachable", down)
	}
	return nil
}

// psRow prints one daemon's row, and a line per degraded shard, within
// a timeout of its own; it reports whether the daemon answered.
func (c cli) psRow(addr, token string, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cl := client.New(addr, client.WithToken(token), client.WithRetries(0))
	h, err := cl.Health(ctx)
	if err != nil {
		fmt.Fprintf(c.out, "%-28s %-8s %v\n", addr, "down", err)
		return false
	}
	// The /v1 columns need a valid token (or a tokenless daemon);
	// degrade to "-" rather than failing the whole row.
	keys, apologies := "-", "-"
	if st, err := cl.State(ctx); err == nil {
		keys = strconv.Itoa(len(st.Keys))
	}
	if ap, err := cl.Apologies(ctx); err == nil {
		apologies = strconv.Itoa(ap.Total)
	}
	state := "up"
	if !h.OK {
		state = "degraded"
	}
	fmt.Fprintf(c.out, "%-28s %-8s %-5d %-7d %-7d %-6s %-10s\n", addr, state, h.Node, h.Shards, h.Replicas, keys, apologies)
	for _, reason := range h.Degraded {
		fmt.Fprintf(c.out, "  %s\n", reason)
	}
	return true
}

// scrape is the CI/ops metrics audit: fetch one daemon's /metrics,
// run it through the strict exposition parser and the semantic
// validator (histogram bucket monotonicity, +Inf vs _count, ...), and
// report scrape size and duration. -require fails unless the named
// families are present with at least one sample.
func (c cli) scrape(args []string) error {
	fs := flag.NewFlagSet("scrape", flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	require := fs.String("require", "", "comma-separated metric families that must be present")
	timeout := fs.Duration("timeout", 5*time.Second, "scrape timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	hc := &http.Client{Timeout: *timeout}
	start := time.Now()
	resp, err := hc.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	took := time.Since(start)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics returned %s", resp.Status)
	}
	fams, err := promtext.Parse(string(body))
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if err := promtext.Validate(fams); err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	samples := 0
	for _, f := range fams {
		samples += len(f.Samples)
	}
	for _, name := range strings.Split(*require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		f := promtext.Find(fams, name)
		if f == nil {
			return fmt.Errorf("required family %s missing", name)
		}
		if len(f.Samples) == 0 {
			return fmt.Errorf("required family %s has no samples", name)
		}
	}
	fmt.Fprintf(c.out, "ok: %d families, %d samples, %d bytes in %v\n", len(fams), samples, len(body), took.Round(time.Microsecond))
	return nil
}

func (c cli) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	token := fs.String("token", "", "API bearer token")
	sync := fs.Bool("sync", false, "require classic coordination across replicas")
	id := fs.String("id", "", "idempotency key (defaults to a random one)")
	note := fs.String("note", "", "free-form annotation carried with the op")
	fs.Usage = func() {
		fmt.Fprintln(c.errOut, "usage: quicksand submit [flags] <kind> <key> <arg>\nexample: quicksand submit -sync withdraw acct-1 200")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 3 {
		fs.Usage()
		return fmt.Errorf("want <kind> <key> <arg>, got %d arguments", len(rest))
	}
	arg, err := strconv.ParseInt(rest[2], 10, 64)
	if err != nil {
		return fmt.Errorf("arg %q is not an integer: %v", rest[2], err)
	}
	cl := client.New(*addr, client.WithToken(*token))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := cl.Submit(ctx, client.Op{Kind: rest[0], Key: rest[1], Arg: arg, ID: *id, Note: *note}, *sync)
	if err != nil {
		return err
	}
	out, _ := json.MarshalIndent(res, "", "  ")
	fmt.Fprintln(c.out, string(out))
	if !res.Accepted {
		return fmt.Errorf("declined: %s", res.Reason)
	}
	return nil
}

// state prints the daemon's locally derived state — a guess, not a
// global truth. With a key it asks for that key alone, which costs the
// same however large the state is.
func (c cli) state(args []string) error {
	fs := flag.NewFlagSet("state", flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	token := fs.String("token", "", "API bearer token")
	fs.Usage = func() {
		fmt.Fprintln(c.errOut, "usage: quicksand state [flags] [key]\nexample: quicksand state acct-1")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) > 1 {
		fs.Usage()
		return fmt.Errorf("want at most one key, got %d arguments", len(rest))
	}
	cl := client.New(*addr, client.WithToken(*token))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if len(rest) == 1 {
		v, ok, err := cl.StateOf(ctx, rest[0])
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no key %q at this replica", rest[0])
		}
		fmt.Fprintln(c.out, v)
		return nil
	}
	st, err := cl.State(ctx)
	if err != nil {
		return err
	}
	out, _ := json.MarshalIndent(st, "", "  ")
	fmt.Fprintln(c.out, string(out))
	return nil
}
