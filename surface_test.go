package quicksand_test

// Two rules about the shape of the repository itself, checked from its
// source: what the live product may import, and what the public option
// list may contain.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPaperSubstrateStaysBehindTheWall pins two one-way import rules.
// The live product — both daemons' commands, the load driver, the SDK,
// the benchmark and the public package — reaches none of the packages
// that reproduce the paper's older systems: those keep their own WAL
// and ring (their RPC is the simulator's rpc.Endpoint, a transport.Node
// like every engine node), and the experiments may import the product,
// never the reverse. And the engine world — the daemon, the CLI, the SDK and
// the benchmark, and the engine's own imports — links none of the
// simulator (sim, simnet, and rpc, where SimTransport lives). The root
// package, which re-exports the simulator for the examples, and the load
// driver, whose workloads run on it, stay off that second list.
func TestPaperSubstrateStaysBehindTheWall(t *testing.T) {
	product := []string{"./cmd/quicksandd", "./cmd/quicksand", "./cmd/quicksand-load", "./client", "./bench", "."}
	forbid(t, "reachable from the live product", listed(t, "repro/internal/core", append([]string{"-deps"}, product...)...),
		"tandem dynamo logship cart escrow wal resource seats vclock merkle failure twopc bank experiment")
	engine := []string{"./cmd/quicksandd", "./cmd/quicksand", "./client", "./bench"}
	forbid(t, "reachable from the engine world", listed(t, "repro/internal/core", append([]string{"-deps"}, engine...)...),
		"sim simnet rpc")
	forbid(t, "imported by the engine", listed(t, "repro/internal/oplog", "-f", "{{join .Imports \" \"}}",
		"./internal/core", "./internal/oplog", "./internal/apology", "./internal/netx"), "sim simnet rpc")
}

// listed runs go list with args and returns the package paths it prints,
// failing unless sentinel is among them — the check against a list that
// has silently gone empty.
func listed(t *testing.T, sentinel string, args ...string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", args, err)
	}
	pkgs := make(map[string]bool)
	for _, pkg := range strings.Fields(string(out)) {
		pkgs[pkg] = true
	}
	if !pkgs[sentinel] {
		t.Fatalf("go list %v did not even name %s; the check has rotted:\n%s", args, sentinel, out)
	}
	return pkgs
}

// forbid reports every repro/internal package in names that pkgs holds.
func forbid(t *testing.T, what string, pkgs map[string]bool, names string) {
	t.Helper()
	for _, name := range strings.Fields(names) {
		if pkg := "repro/internal/" + name; pkgs[pkg] {
			t.Errorf("%s is %s", pkg, what)
		}
	}
}

// declaredOptions parses one Go file and returns its exported With*
// functions.
func declaredOptions(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
			names = append(names, fn.Name.Name)
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s declares no With* option; the extraction has rotted", file)
	}
	return names
}

// TestOptionsEarnTheirKeep holds the public option list to ROADMAP aim
// 2: every With* that api.go exports is called, as quicksand.With* or
// core.With*, by some non-test Go file — a command, the daemon, an
// experiment, an example, the benchmark. An option only tests set is a
// second code path nobody runs. The prose is held to the same list: every
// With… that README.md, DESIGN.md or docs/*.md spells must be declared
// (by the engine or by the SDK), so a deleted option cannot live on in a
// recipe.
func TestOptionsEarnTheirKeep(t *testing.T) {
	var source strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		// api.go's own wrappers call core.With*; they are the declaration,
		// not a use.
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == "api.go" {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		source.Write(text)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, name := range declaredOptions(t, "api.go") {
		declared[name] = true
		call := regexp.MustCompile(`\b(?:core|quicksand)\.` + name + `\(`)
		if !call.MatchString(source.String()) {
			t.Errorf("quicksand.%s has no call site outside _test.go files: delete it, or show the caller that needs it", name)
		}
	}
	for _, file := range []string{"internal/core/core.go", "client/client.go"} {
		for _, name := range declaredOptions(t, file) {
			declared[name] = true
		}
	}
	// The counts make the next option a conscious diff.
	if root, eng := len(declaredOptions(t, "api.go")), len(declaredOptions(t, "internal/core/core.go")); root != 9 || eng != 11 {
		t.Errorf("%d With* options at the root and %d in core, want 9 and 11", root, eng)
	}

	mention := regexp.MustCompile(`\bWith[A-Z][A-Za-z]*`)
	found := 0
	for _, pattern := range []string{"README.md", "DESIGN.md", "docs/*.md"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no files match %s (err %v)", pattern, err)
		}
		for _, file := range files {
			text, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range mention.FindAllString(string(text), -1) {
				found++
				if !declared[name] {
					t.Errorf("%s names %s, which no package declares", file, name)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("found no With… option in the docs; the extraction pattern has rotted")
	}
}
