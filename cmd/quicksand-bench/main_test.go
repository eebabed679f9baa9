package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestFlagsPinned makes the next quicksand-bench flag a conscious diff.
// The command prints the deterministic paper tables; anything that
// measures a wall clock belongs in `go run ./bench`.
func TestFlagsPinned(t *testing.T) {
	want := []string{"list", "run", "seed", "shards"}
	var got []string
	newFlagSet(new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("quicksand-bench flags changed:\n got %v\nwant %v", got, want)
	}
}

// The measurement flags are gone, and asking for one is a usage error,
// not a silently ignored request.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, name := range []string{"live", "liveduration", "durable", "net", "json"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-" + name}, &stdout, &stderr); code != 2 {
			t.Errorf("-%s: exit %d, want 2", name, code)
		}
		if want := "flag provided but not defined: -" + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s: stderr %q lacks %q", name, stderr.String(), want)
		}
	}
}

func TestListPrintsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr.String())
	}
	if got := strings.Count(stdout.String(), "claim: "); got != 19 {
		t.Fatalf("-list printed %d experiments, want 19:\n%s", got, stdout.String())
	}
}

// TestDocumentedCommandsParse extracts every `go run ./cmd/quicksand-bench …`
// line from the repository's prose and parses it against the real
// FlagSet, so a recipe that names a removed flag or experiment fails
// here instead of in a reader's terminal.
func TestDocumentedCommandsParse(t *testing.T) {
	invocation := regexp.MustCompile("go run (?:-race )?\\./cmd/quicksand-bench((?:[ \\t]+[^\\s#`]+)*)")
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
				} else if _, err := experiment.ByID(o.run); o.run != "" && err != nil {
					t.Errorf("%s: `%s`: %v", file, m[0], err)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("found no documented quicksand-bench invocation; the extraction pattern has rotted")
	}
}
