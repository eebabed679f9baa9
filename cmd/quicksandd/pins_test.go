package main

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/testenv"
)

// hotPaths are the functions that run for every op, or every sampled
// one, in quicksandd: the fold, the ingest segment, the gossip absorb,
// the op set's mint, and — every function of internal/trace — the
// tracer's record path with its three readers.
var hotPaths = map[string]bool{
	"core.(*Replica).foldLocked":    true,
	"core.(*Replica).ingestSegment": true,
	"core.(*Replica).absorb":        true,
	"oplog.(*Set).Mint":             true,
}

// hotDirs are the directories whose functions TestHotPathsStayOnStack
// resolves, and, for internal/trace, whose every function is hot.
var hotDirs = []string{"internal/core", "internal/oplog", "internal/trace"}

// diagnostic is one line of the compiler's -m output: file, line, message.
var diagnostic = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (.+)$`)

// TestHotPathsStayOnStack gates the build shape quicksandd ships. It
// builds the daemon with the compiler's escape diagnostics on for every
// package of the module, maps each "moved to heap" to the function that
// declares the variable, and fails if one falls in a hot path. A moved
// variable is a heap object per call, and escape analysis runs per
// generic instantiation, so only the daemon's own build can show it:
// the engine's package tests compile other instantiations.
func TestHotPathsStayOnStack(t *testing.T) {
	testenv.SkipUnderRace(t)
	out, err := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=repro/...=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	funcs, err := funcSpans(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, spans := range funcs {
		for _, s := range spans {
			found[s.name] = true
		}
	}
	for name := range hotPaths {
		if !found[name] {
			t.Errorf("hot path %s is not declared in %v: rename it here too", name, hotDirs)
		}
	}
	diags := 0
	for _, line := range strings.Split(string(out), "\n") {
		m := diagnostic.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		diags++
		v, moved := strings.CutPrefix(m[3], "moved to heap: ")
		if !moved {
			continue
		}
		// The path is relative to wherever the build that filled the
		// cache ran ("internal/…", "../../internal/…"), or absolute.
		file := filepath.ToSlash(m[1])
		n, _ := strconv.Atoi(m[2])
		for rel, spans := range funcs {
			if file != rel && !strings.HasSuffix(file, "/"+rel) {
				continue
			}
			for _, s := range spans {
				if n >= s.from && n <= s.to && (hotPaths[s.name] || strings.HasPrefix(s.name, "trace.")) {
					t.Errorf("%s:%d: %s moved to heap in hot path %s", rel, n, v, s.name)
				}
			}
		}
	}
	if diags == 0 {
		t.Fatalf("no diagnostic in the build's output — has its form changed?\n%s", out)
	}
}

// funcSpan is a function declaration's name and line range.
type funcSpan struct {
	name     string
	from, to int
}

// funcSpans parses the non-test files of hotDirs and returns, by path
// relative to root, the span of every function declared in each, named
// as the compiler names it: pkg.Func, pkg.Recv.Method or
// pkg.(*Recv).Method, type parameters dropped.
func funcSpans(root string) (map[string][]funcSpan, error) {
	spans := map[string][]funcSpan{}
	fset := token.NewFileSet()
	for _, dir := range hotDirs {
		paths, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, err
			}
			rel := dir + "/" + filepath.Base(path)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				spans[rel] = append(spans[rel], funcSpan{
					name: f.Name.Name + "." + recvPrefix(fd) + fd.Name.Name,
					from: fset.Position(fd.Pos()).Line,
					to:   fset.Position(fd.End()).Line,
				})
			}
		}
	}
	return spans, nil
}

// recvPrefix is "(*T)." or "T." for a method, "" for a function.
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ, ptr := fd.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := fmt.Sprint(typ)
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

// TestPinGuessAllocsInDaemonBuild pins what one blocking guess costs in
// the engine as quicksandd instantiates it — three live replicas of
// daemon.AccountsApp under NoOverdraft, no tracer — measured from a test
// compiled into this package, so the generic code is the daemon's own
// instantiation. A budget pinned only from the engine's packages cannot
// see what escapes here: escape analysis runs per instantiation, and
// while the fold ranged over an iterator, its loop-body closure (with the
// fold's watermark) moved to the heap in this build and not in theirs —
// five allocations a guess here against one there, with oplog's
// TestFoldIterationAllocatesNothing green throughout, because the escape
// belonged to the consumer's instantiation, not to oplog's. The guess
// itself mints its ID into the op set, so it should cost nothing; the
// budget leaves one to spare.
func TestPinGuessAllocsInDaemonBuild(t *testing.T) {
	testenv.SkipUnderRace(t)
	c := core.New[daemon.Accounts](daemon.AccountsApp{}, []core.Rule[daemon.Accounts]{daemon.NoOverdraft()},
		core.WithReplicas(3), core.WithCallTimeout(500*time.Millisecond))
	defer c.Close()
	ctx := context.Background()
	op := core.NewOp("deposit", "acct-17", 1)
	submit := func() {
		if res, err := c.Submit(ctx, 0, op); err != nil || !res.Accepted {
			t.Fatalf("submit: %+v, %v", res, err)
		}
	}
	for i := 0; i < 4096; i++ {
		submit() // grow the set, ring, scratch buffers and pools first
	}
	got := testing.AllocsPerRun(4000, submit)
	t.Logf("%.2f allocs per blocking guess", got)
	if got > 1 {
		t.Fatalf("one blocking guess in the daemon's build allocates %.2f times, want at most 1", got)
	}
}
