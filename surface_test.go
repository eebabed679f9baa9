package quicksand_test

// Three rules about the shape of the repository itself, checked from its
// source: what the live product may import, what the public option list
// may contain, and that every test the CI workflow names exists.

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

// TestPaperSubstrateStaysBehindTheWall pins the one-way import rule
// before any file moves: the live product — both daemons' commands, the
// load driver, the SDK, the benchmark and the public package — reaches
// none of the packages that reproduce the paper's older systems. Those
// keep their own WAL, ring and RPC world; the experiments may import the
// product, never the reverse.
func TestPaperSubstrateStaysBehindTheWall(t *testing.T) {
	product := []string{"./cmd/quicksandd", "./cmd/quicksand", "./cmd/quicksand-load", "./client", "./bench", "."}
	out, err := exec.Command("go", append([]string{"list", "-deps"}, product...)...).Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	reached := make(map[string]bool)
	for _, pkg := range strings.Fields(string(out)) {
		reached[pkg] = true
	}
	if !reached["repro/internal/core"] {
		t.Fatalf("go list -deps did not even reach internal/core; the check has rotted:\n%s", out)
	}
	for _, name := range strings.Fields("tandem dynamo logship btree cart escrow wal resource seats vclock merkle failure twopc bank experiment") {
		if pkg := "repro/internal/" + name; reached[pkg] {
			t.Errorf("%s is reachable from the live product (%v)", pkg, product)
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

var testFuncName = regexp.MustCompile(`^(Test|Fuzz|Example)`)

// testFuncs returns the names of the top-level Test, Fuzz and Example
// functions in one package directory's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Recv == nil && testFuncName.MatchString(fn.Name.Name) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// TestCIRunNamesResolve reads .github/workflows/ci.yml the way the runner's
// shell would and holds every `go test` line's -run and -fuzz names to the
// source: each alternative of the pattern must match a Test, Fuzz or
// Example function in one of the packages the line names. `go test -run`
// of a name that matches nothing prints "no tests to run" and exits 0, so
// a renamed or deleted test would otherwise leave its CI line green and
// empty. Shell loops of the form `for v in A B; do` are expanded.
func TestCIRunNamesResolve(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	forLoop := regexp.MustCompile(`\bfor (\w+) in ([^;]+); do`)
	loops := map[string][]string{}
	funcs := map[string][]string{} // package dir -> its test functions
	checked := 0
	for n, line := range strings.Split(string(raw), "\n") {
		if m := forLoop.FindStringSubmatch(line); m != nil {
			loops["$"+m[1]] = strings.Fields(m[2])
		}
		// Quotes only group here: no pattern in the file holds a space.
		args := strings.Fields(strings.NewReplacer("'", "", `"`, "").Replace(line))
		for len(args) >= 2 && (args[0] != "go" || args[1] != "test") {
			args = args[1:]
		}
		var names, pkgs []string
		for i, a := range args {
			switch {
			case (a == "-run" || a == "-fuzz") && i+1 < len(args):
				if vals, ok := loops[args[i+1]]; ok {
					names = append(names, vals...)
				} else if args[i+1] != "^$" {
					names = append(names, strings.Split(args[i+1], "|")...)
				}
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		for _, name := range names {
			re, err := regexp.Compile(name)
			if err != nil {
				t.Errorf("ci.yml:%d: -run %q: %v", n+1, name, err)
				continue
			}
			found := false
			for _, pkg := range pkgs {
				if _, ok := funcs[pkg]; !ok {
					funcs[pkg] = testFuncs(t, pkg)
				}
				for _, fn := range funcs[pkg] {
					found = found || re.MatchString(fn)
				}
			}
			if !found {
				t.Errorf("ci.yml:%d: %q matches no Test, Fuzz or Example function in %v", n+1, name, pkgs)
			}
			checked++
		}
	}
	if checked < 60 {
		t.Fatalf("only %d names found in ci.yml's go test lines; the reader has rotted", checked)
	}
}
