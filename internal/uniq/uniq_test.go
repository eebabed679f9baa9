package uniq

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestGenSequentialAndScoped(t *testing.T) {
	g := NewGen("n1")
	a, b := g.Next(), g.Next()
	if a == b {
		t.Fatal("generator repeated an ID")
	}
	if a != "n1-000001" || b != "n1-000002" {
		t.Fatalf("unexpected IDs %q, %q", a, b)
	}
	if g.Count() != 2 {
		t.Fatalf("Count = %d", g.Count())
	}
}

func TestGenDifferentNodesNeverCollide(t *testing.T) {
	g1, g2 := NewGen("a"), NewGen("b")
	seen := map[ID]bool{}
	for i := 0; i < 100; i++ {
		for _, id := range []ID{g1.Next(), g2.Next()} {
			if seen[id] {
				t.Fatalf("collision on %q", id)
			}
			seen[id] = true
		}
	}
}

func TestContentIDStableOnRetry(t *testing.T) {
	req := []byte(`{"op":"buy","book":"Harry Potter"}`)
	if ContentID(req) != ContentID(req) {
		t.Fatal("identical requests produced different content IDs")
	}
}

func TestContentIDDistinguishesRequests(t *testing.T) {
	if ContentID([]byte("a")) == ContentID([]byte("b")) {
		t.Fatal("different requests collided")
	}
}

func TestContentIDProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		same := string(a) == string(b)
		return (ContentID(a) == ContentID(b)) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNumber(t *testing.T) {
	id := CheckNumber("chase", "acct-9", 101)
	if id != "chase/acct-9/chk-000101" {
		t.Fatalf("CheckNumber = %q", id)
	}
	if CheckNumber("chase", "acct-9", 101) != id {
		t.Fatal("check numbers must be deterministic")
	}
	if CheckNumber("chase", "acct-9", 102) == id {
		t.Fatal("different check numbers collided")
	}
}

func TestDedupSuppressesDuplicates(t *testing.T) {
	d := NewDedup()
	if d.Seen("x") {
		t.Fatal("fresh filter claims to have seen x")
	}
	if !d.Record("x") {
		t.Fatal("first Record must return true")
	}
	if d.Record("x") {
		t.Fatal("duplicate Record must return false")
	}
	if !d.Seen("x") {
		t.Fatal("Seen after Record must be true")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestDedupIndependentIDs(t *testing.T) {
	d := NewDedup()
	d.Record("x")
	if !d.Record("y") {
		t.Fatal("unseen ID suppressed")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestGenNextMatchesSprintf(t *testing.T) {
	g := NewGen("s3/r1")
	for i := 1; i <= 2000; i++ {
		got := g.Next()
		want := ID(fmt.Sprintf("%s-%06d", "s3/r1", i))
		if got != want {
			t.Fatalf("Next() #%d = %q, want %q", i, got, want)
		}
	}
	// Past six digits the width grows exactly as %06d does.
	g2 := &Gen{node: "n", seq: 999_998}
	for _, want := range []ID{"n-999999", "n-1000000", "n-1000001"} {
		if got := g2.Next(); got != want {
			t.Fatalf("Next() = %q, want %q", got, want)
		}
	}
}

// TestAppendIDMatchesSprintf: the one formatter behind Next, ID and the
// op set's mint writes fmt's bytes at the six-digit boundary and at an
// incarnation base, onto an empty or a used buffer, and Take/ID split
// Next without changing what it issues.
func TestAppendIDMatchesSprintf(t *testing.T) {
	for _, node := range []string{"r0", "s3/r1"} {
		for _, seq := range []uint64{1, 999_999, 1_000_000, 1<<40 + 7} {
			want := fmt.Sprintf("%s-%06d", node, seq)
			if got := string(AppendID(nil, node, seq)); got != want {
				t.Errorf("AppendID(nil, %q, %d) = %q, want %q", node, seq, got, want)
			}
			if got := string(AppendID([]byte("x|"), node, seq)); got != "x|"+want {
				t.Errorf("AppendID onto a prefix = %q, want %q", got, "x|"+want)
			}
			if got := NewGenAfter(node, seq-1).Next(); got != ID(want) {
				t.Errorf("NewGenAfter(%q, %d).Next() = %q, want %q", node, seq-1, got, want)
			}
			g := NewGenAfter(node, seq-1)
			if n := g.Take(); n != seq || g.ID(n) != ID(want) || g.Next() == ID(want) {
				t.Errorf("Take = %d, ID(%d) = %q; want %d, %q, then a fresh Next", n, n, g.ID(n), seq, want)
			}
		}
	}
}
