package daemon

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/promtext"
)

// Check is one doctor finding.
type Check struct {
	Name   string // short slug, e.g. "data-dir-writable"
	OK     bool
	Detail string // what was verified, or what is wrong and how to fix it
	// Advisory marks a failure that should not fail the doctor's exit
	// status: the daemon would still run correctly, just degraded.
	Advisory bool
}

// Doctor runs preflight checks for a daemon config without starting
// one: directory permissions, real fsync capability on the data dir's
// filesystem, and whether the configured ports can be bound. It returns
// every check (pass and fail) so `quicksand doctor` can print a full
// bill of health; the caller fails if any Check.OK is false.
func Doctor(cfg Config) []Check {
	cfg = cfg.withDefaults()
	var out []Check

	if err := cfg.Validate(); err != nil {
		out = append(out, Check{Name: "config", OK: false, Detail: err.Error()})
	} else {
		out = append(out, Check{Name: "config", OK: true, Detail: fmt.Sprintf("node %d of %d replicas, %d shard(s)", cfg.Node, cfg.Replicas, cfg.Shards)})
	}

	if cfg.DataDir == "" {
		out = append(out, Check{Name: "data-dir", OK: true, Detail: "no data_dir configured: running memory-only (no durability)"})
	} else {
		out = append(out, checkDataDir(cfg.DataDir), checkFsync(cfg.DataDir),
			checkFreeDisk(cfg.DataDir, minFreeDisk))
	}

	out = append(out, checkBind("http-port", cfg.HTTPListen))
	out = append(out, checkBind("peer-port", cfg.PeerListen))

	for i, addr := range cfg.Peers {
		if i == cfg.Node {
			continue
		}
		out = append(out, checkPeerReachable(i, addr))
	}
	out = append(out, checkMetricsScrape(cfg.HTTPListen))
	return out
}

// checkMetricsScrape probes a running daemon's /metrics on the
// configured HTTP address: scrape duration, payload size, and a strict
// parse of the exposition format. No daemon listening is advisory —
// doctor usually runs preflight, before the daemon is up — but a
// daemon that answers with an unparsable /metrics is a hard failure:
// every scraper pointed at it is quietly broken.
func checkMetricsScrape(addr string) Check {
	const name = "metrics-scrape"
	hc := &http.Client{Timeout: 3 * time.Second}
	start := time.Now()
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return Check{Name: name, Advisory: true, Detail: fmt.Sprintf("no daemon answering on %s (fine preflight; rerun with one up to audit its metrics)", addr)}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	took := time.Since(start).Round(time.Microsecond)
	if err != nil {
		return Check{Name: name, Detail: fmt.Sprintf("reading /metrics from %s: %v", addr, err)}
	}
	if resp.StatusCode != http.StatusOK {
		return Check{Name: name, Detail: fmt.Sprintf("/metrics on %s returned %s", addr, resp.Status)}
	}
	fams, err := promtext.Parse(string(body))
	if err != nil {
		return Check{Name: name, Detail: fmt.Sprintf("/metrics on %s is not valid exposition text: %v", addr, err)}
	}
	if err := promtext.Validate(fams); err != nil {
		return Check{Name: name, Detail: fmt.Sprintf("/metrics on %s failed validation: %v", addr, err)}
	}
	return Check{Name: name, OK: true, Detail: fmt.Sprintf("%d families, %d bytes in %v", len(fams), len(body), took)}
}

// checkDataDir verifies the directory exists (creating it if needed) and
// is writable.
func checkDataDir(dir string) Check {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Check{Name: "data-dir-writable", Detail: fmt.Sprintf("cannot create %s: %v", dir, err)}
	}
	probe := filepath.Join(dir, ".doctor-probe")
	if err := os.WriteFile(probe, []byte("probe"), 0o644); err != nil {
		return Check{Name: "data-dir-writable", Detail: fmt.Sprintf("cannot write in %s: %v", dir, err)}
	}
	os.Remove(probe)
	return Check{Name: "data-dir-writable", OK: true, Detail: dir}
}

// checkFsync verifies the filesystem under dir honors fsync — the
// operation every durability guarantee in the engine reduces to.
func checkFsync(dir string) Check {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Check{Name: "fsync", Detail: fmt.Sprintf("cannot create %s: %v", dir, err)}
	}
	probe := filepath.Join(dir, ".doctor-fsync")
	defer os.Remove(probe)
	f, err := os.Create(probe)
	if err != nil {
		return Check{Name: "fsync", Detail: fmt.Sprintf("cannot create probe file: %v", err)}
	}
	defer f.Close()
	if _, err := f.WriteString("probe"); err != nil {
		return Check{Name: "fsync", Detail: fmt.Sprintf("cannot write probe file: %v", err)}
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		return Check{Name: "fsync", Detail: fmt.Sprintf("fsync failed on %s: %v (durability would be a lie here)", dir, err)}
	}
	return Check{Name: "fsync", OK: true, Detail: fmt.Sprintf("fsync on %s took %v", dir, time.Since(start).Round(time.Microsecond))}
}

// minFreeDisk is the free-space floor the doctor requires on the data
// dir's filesystem.
const minFreeDisk = 256 << 20

// checkFreeDisk verifies the data dir's filesystem has at least min
// bytes available. Starting a daemon on a nearly full disk just defers
// the ENOSPC to the first busy minute — the shard then degrades to
// read-only (by design), but preflight is the cheaper place to hear
// about it.
func checkFreeDisk(dir string, min int64) Check {
	const name = "free-disk"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Check{Name: name, Detail: fmt.Sprintf("cannot create %s: %v", dir, err)}
	}
	free, total, err := diskFree(dir)
	if err != nil {
		return Check{Name: name, Advisory: true, Detail: fmt.Sprintf("probe failed on %s: %v", dir, err)}
	}
	detail := fmt.Sprintf("%s free of %s on %s (floor %s)",
		fmtBytes(int64(free)), fmtBytes(int64(total)), dir, fmtBytes(min))
	if free < uint64(min) {
		return Check{Name: name, Detail: detail + " — journals will hit ENOSPC and degrade the shard to read-only; free space first"}
	}
	return Check{Name: name, OK: true, Detail: detail}
}

// fmtBytes renders a byte count with a binary suffix, one decimal.
func fmtBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// checkBind verifies the address can be bound right now (then releases
// it — a daemon started immediately after may still race another
// process, but the common misconfigurations are caught).
func checkBind(name, addr string) Check {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return Check{Name: name, Detail: fmt.Sprintf("cannot bind %s: %v", addr, err)}
	}
	bound := ln.Addr().String()
	ln.Close()
	return Check{Name: name, OK: true, Detail: "can bind " + bound}
}

// checkPeerReachable dials a configured peer. An unreachable peer is
// not fatal to a daemon (it degrades to a partitioned replica) but the
// doctor should say so before an operator wonders why nothing
// converges — hence Advisory: reported, but it does not fail the exit
// status, so preflighting the first daemon of a cluster passes.
func checkPeerReachable(idx int, addr string) Check {
	name := fmt.Sprintf("peer-%d", idx)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return Check{Name: name, Advisory: true, Detail: fmt.Sprintf("%s unreachable: %v (the daemon still starts; it will gossip when the peer appears)", addr, err)}
	}
	conn.Close()
	return Check{Name: name, OK: true, Detail: addr + " accepts connections"}
}
