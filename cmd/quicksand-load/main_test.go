package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/loadgen/scenario"
)

// runCLI runs the command in-process and returns its exit code and streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlagsPinned makes the next quicksand-load flag a conscious diff.
// The command drives load and asserts invariants; it has no flag that
// names an output file.
func TestFlagsPinned(t *testing.T) {
	want := []string{"addrs", "batch", "data", "deposit", "dist", "duration", "hotfrac", "keys", "list",
		"q", "rate", "replicas", "scenario", "seed", "shards", "stack", "sync", "token", "workers", "zipf"}
	var got []string
	newFlagSet(new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("quicksand-load flags changed:\n got %v\nwant %v", got, want)
	}
}

// The benchmarking flags are gone, and asking for one is a usage error,
// not a silently ignored request.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, name := range []string{"matrix", "json"} {
		code, _, stderr := runCLI("-" + name)
		if code != 2 {
			t.Errorf("-%s: exit %d, want 2", name, code)
		}
		if want := "flag provided but not defined: -" + name; !strings.Contains(stderr, want) {
			t.Errorf("-%s: stderr %q lacks %q", name, stderr, want)
		}
	}
}

func TestListPrintsEveryScenario(t *testing.T) {
	code, stdout, stderr := runCLI("-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr)
	}
	if got := strings.Count(stdout, "\n"); got != 7 {
		t.Fatalf("-list printed %d scenarios, want 7:\n%s", got, stdout)
	}
}

// -deposit 0 used to run at the 0.8 default without saying so. A mix the
// driver cannot offer is a usage error; every mix it can is accepted.
func TestDepositOutOfRangeIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		value string
		code  int
	}{
		{"0", 2}, {"-0.1", 2}, {"1.5", 2}, {"NaN", 2},
		{"0.01", 0}, {"0.8", 0}, {"1", 0},
	} {
		// -list returns before any traffic, so an accepted value exits 0.
		code, _, stderr := runCLI("-deposit", tc.value, "-list")
		if code != tc.code {
			t.Errorf("-deposit %s: exit %d, want %d (stderr %q)", tc.value, code, tc.code, stderr)
		}
		if tc.code == 2 && !strings.Contains(stderr, "-deposit") {
			t.Errorf("-deposit %s: stderr %q does not name the flag", tc.value, stderr)
		}
	}
}

// TestScenarioRunPrintsReadableRow drives one short scenario through the
// CLI: the row carries latencies a reader can use (the live stack's
// sub-millisecond p50 once printed as 0.00ms), the verdict, exit 0.
func TestScenarioRunPrintsReadableRow(t *testing.T) {
	code, stdout, stderr := runCLI("-scenario", "zipf-millions", "-keys", "512", "-duration", "300ms", "-q")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "zipf-millions/live: ") || !strings.Contains(stdout, "passed=true") {
		t.Fatalf("row missing name/stack or verdict:\n%s", stdout)
	}
	if strings.Contains(stdout, "p50 0.00ms") || !regexp.MustCompile(`p50 \d+(\.\d+)?(ns|µs|ms|s) `).MatchString(stdout) {
		t.Fatalf("p50 is not printed in a readable unit:\n%s", stdout)
	}
}

// A failed invariant is named on stderr, the row says passed=false, and
// the exit code is 1: a slow-disk window too short to offer a single op
// never exercises the disk.
func TestFailedInvariantExitsOne(t *testing.T) {
	code, stdout, stderr := runCLI("-scenario", "slow-disk", "-duration", "1ns", "-q")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "passed=false") || !strings.Contains(stderr, "INVARIANT FAILED disk-was-exercised") {
		t.Fatalf("verdict not reported\nstdout: %s\nstderr: %s", stdout, stderr)
	}
}

// TestDocumentedCommandsParse extracts every `go run ./cmd/quicksand-load …`
// line from the repository's prose and parses it against the real
// FlagSet, so a recipe that names a removed flag or scenario fails here
// instead of in a reader's terminal.
func TestDocumentedCommandsParse(t *testing.T) {
	invocation := regexp.MustCompile("go run (?:-race )?\\./cmd/quicksand-load((?:[ \\t]+[^\\s#`]+)*)")
	root := filepath.Join("..", "..")
	found := 0
	for _, pattern := range []string{"README.md", "DESIGN.md", "docs/*.md", ".claude/skills/verify/SKILL.md"} {
		files, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil || len(files) == 0 {
			t.Fatalf("no files match %s (err %v)", pattern, err)
		}
		for _, file := range files {
			text, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range invocation.FindAllStringSubmatch(string(text), -1) {
				found++
				var o options
				fs := newFlagSet(&o)
				fs.SetOutput(io.Discard)
				if err := fs.Parse(strings.Fields(m[1])); err != nil {
					t.Errorf("%s: `%s`: %v", file, m[0], err)
				} else if fs.NArg() > 0 {
					t.Errorf("%s: `%s`: stray arguments %v", file, m[0], fs.Args())
				} else if _, err := scenario.ByName(o.scenario); o.scenario != "" && err != nil {
					t.Errorf("%s: `%s`: %v", file, m[0], err)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("found no documented quicksand-load invocation; the extraction pattern has rotted")
	}
}
