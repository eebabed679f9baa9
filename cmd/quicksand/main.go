// Command quicksand is the ops CLI for quicksandd daemons.
//
//	quicksand serve  -config node0.yaml           # run a daemon (same flags as quicksandd)
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
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/daemon"
	"repro/internal/promtext"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "doctor":
		err = cmdDoctor(os.Args[2:])
	case "ps":
		err = cmdPS(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "state":
		err = cmdState(os.Args[2:])
	case "scrape":
		err = cmdScrape(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "quicksand: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "quicksand:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `quicksand — ops CLI for quicksandd daemons

commands:
  serve    run a daemon in the foreground (same flags as quicksandd)
  doctor   preflight a config: data dir, fsync, ports, peer reachability
  ps       show status of running daemons over their HTTP APIs
  submit   submit one operation through a daemon
  state    print a daemon's derived state: the whole map, or one key's value
  scrape   fetch /metrics, strictly validate the exposition format

run "quicksand <command> -h" for the command's flags.
`)
}

func cmdServe(args []string) error {
	cfg, err := daemon.ParseServeFlags(args)
	if err != nil {
		return err
	}
	return daemon.Serve(cfg, log.New(os.Stderr, "", log.LstdFlags).Printf)
}

func cmdDoctor(args []string) error {
	cfg, err := daemon.ParseServeFlags(args)
	if err != nil {
		return err
	}
	checks := daemon.Doctor(cfg)
	failed := 0
	for _, c := range checks {
		mark := "ok  "
		switch {
		case c.OK:
		case c.Advisory:
			mark = "warn"
		default:
			mark = "FAIL"
			failed++
		}
		fmt.Printf("%s  %-18s %s\n", mark, c.Name, c.Detail)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d checks failed", failed, len(checks))
	}
	fmt.Printf("all %d checks passed\n", len(checks))
	return nil
}

func cmdPS(args []string) error {
	fs := flag.NewFlagSet("ps", flag.ContinueOnError)
	addrs := fs.String("addr", "http://127.0.0.1:8080", "comma-separated daemon base URLs")
	token := fs.String("token", "", "API bearer token (enables the keys/apologies columns)")
	timeout := fs.Duration("timeout", 3*time.Second, "per-daemon probe timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	fmt.Printf("%-28s %-6s %-5s %-7s %-7s %-6s %-10s\n", "ADDR", "STATE", "NODE", "SHARDS", "REPLICAS", "KEYS", "APOLOGIES")
	var down int
	for _, addr := range strings.Split(*addrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		c := client.New(addr, client.WithToken(*token), client.WithRetries(0))
		h, err := c.Health(ctx)
		if err != nil {
			fmt.Printf("%-28s %-6s %v\n", addr, "down", err)
			down++
			continue
		}
		// The /v1 columns need a valid token (or a tokenless daemon);
		// degrade to "-" rather than failing the whole row.
		keys, apologies := "-", "-"
		if st, err := c.State(ctx); err == nil {
			keys = strconv.Itoa(len(st.Keys))
		}
		if ap, err := c.Apologies(ctx); err == nil {
			apologies = strconv.Itoa(ap.Total)
		}
		fmt.Printf("%-28s %-6s %-5d %-7d %-7d %-6s %-10s\n", addr, "up", h.Node, h.Shards, h.Replicas, keys, apologies)
	}
	if down > 0 {
		return fmt.Errorf("%d daemon(s) unreachable", down)
	}
	return nil
}

// cmdScrape is the CI/ops metrics audit: fetch one daemon's /metrics,
// run it through the strict exposition parser and the semantic
// validator (histogram bucket monotonicity, +Inf vs _count, ...), and
// report scrape size and duration. -require fails unless the named
// families are present with at least one sample.
func cmdScrape(args []string) error {
	fs := flag.NewFlagSet("scrape", flag.ContinueOnError)
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
	fmt.Printf("ok: %d families, %d samples, %d bytes in %v\n", len(fams), samples, len(body), took.Round(time.Microsecond))
	return nil
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	token := fs.String("token", "", "API bearer token")
	sync := fs.Bool("sync", false, "require classic coordination across replicas")
	id := fs.String("id", "", "idempotency key (defaults to a random one)")
	note := fs.String("note", "", "free-form annotation carried with the op")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: quicksand submit [flags] <kind> <key> <arg>\nexample: quicksand submit -sync withdraw acct-1 200")
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
	c := client.New(*addr, client.WithToken(*token))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Submit(ctx, client.Op{Kind: rest[0], Key: rest[1], Arg: arg, ID: *id, Note: *note}, *sync)
	if err != nil {
		return err
	}
	out, _ := json.MarshalIndent(res, "", "  ")
	fmt.Println(string(out))
	if !res.Accepted {
		return fmt.Errorf("declined: %s", res.Reason)
	}
	return nil
}

// cmdState prints the daemon's locally derived state — a guess, not a
// global truth. With a key it asks for that key alone, which costs the
// same however large the state is.
func cmdState(args []string) error {
	fs := flag.NewFlagSet("state", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	token := fs.String("token", "", "API bearer token")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: quicksand state [flags] [key]\nexample: quicksand state acct-1")
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
	c := client.New(*addr, client.WithToken(*token))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if len(rest) == 1 {
		v, ok, err := c.StateOf(ctx, rest[0])
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no key %q at this replica", rest[0])
		}
		fmt.Println(v)
		return nil
	}
	st, err := c.State(ctx)
	if err != nil {
		return err
	}
	out, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(out))
	return nil
}
