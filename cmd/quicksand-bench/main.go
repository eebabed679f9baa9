// Command quicksand-bench runs the full experiment suite — the derived
// evaluation section of the Building on Quicksand reproduction — and
// prints every table. The tables are deterministic per seed; wall-clock
// measurement is `go run ./bench`, not this command.
//
// Usage:
//
//	quicksand-bench              # run everything
//	quicksand-bench -run E6      # one experiment
//	quicksand-bench -list        # list experiments and claims
//	quicksand-bench -seed 7      # change the deterministic seed
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiment"
)

type options struct {
	run  string
	list bool
	seed int64
}

// newFlagSet declares every flag the command accepts, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("quicksand-bench", flag.ContinueOnError)
	fs.StringVar(&o.run, "run", "", "run only the experiment with this ID (e.g. E6, A1)")
	fs.BoolVar(&o.list, "list", false, "list experiments without running")
	fs.Int64Var(&o.seed, "seed", 1, "deterministic seed for every experiment")
	return fs
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := newFlagSet(&o)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	exps := experiment.All()
	if o.run != "" {
		e, err := experiment.ByID(o.run)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		exps = []experiment.Experiment{e}
	}

	if o.list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}

	for _, e := range exps {
		fmt.Fprintf(stdout, "\n%s: %s\n", e.ID, e.Title)
		fmt.Fprintf(stdout, "claim — %s\n\n", e.Claim)
		start := time.Now()
		tab := e.Run(o.seed)
		fmt.Fprint(stdout, tab.String())
		fmt.Fprintf(stdout, "(%s in %v wall time)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
