// Command quicksandd runs one node of a quicksand cluster: replica
// index -node of every shard, serving clients over a versioned HTTP API
// and peers over the binary TCP transport.
//
// Usage:
//
//	quicksandd -config node0.yaml
//	quicksandd -node 0 -replicas 2 \
//	    -http 127.0.0.1:8080 -peer-listen 127.0.0.1:7000 \
//	    -peers 0=127.0.0.1:7000,1=127.0.0.1:7001 \
//	    -data /var/lib/quicksand/n0
//
// Flags override config-file keys of the same meaning. SIGINT/SIGTERM
// trigger a graceful shutdown: HTTP drains, the ingest ring empties, and
// every journal is flushed and fsynced before exit; a failed flush is a
// non-zero exit status.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/daemon"
)

func main() {
	cfg, err := daemon.ParseServeFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "quicksandd:", err)
		os.Exit(2)
	}
	if err := daemon.Serve(cfg, log.New(os.Stderr, "", log.LstdFlags).Printf); err != nil {
		fmt.Fprintln(os.Stderr, "quicksandd:", err)
		os.Exit(1)
	}
}
