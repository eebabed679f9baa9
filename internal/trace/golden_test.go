package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenTracer replays a fixed script on a fixed clock through a tracer
// that samples every op: every kind, a declined reason, an apology note,
// an apology with no sampled guess behind it, and annotations.
func goldenTracer() *Tracer {
	now := int64(5000)
	tr := New(Options{SampleEvery: 1, Replicas: 3})
	tr.SetClock(func() int64 { return now })
	tr.Annotate("phase one: load")
	tr.Submitted("r0-000001", "acct-1", "r0", 100)
	tr.Admitted("r0-000001", "acct-1", "r0", 110)
	tr.Folded("r0-000001", "r0", 120)
	tr.Durable("r0-000001", "r0", 300)
	tr.GossipAcked("r0-000001", "r0", "r1", 400)
	tr.Absorbed("r0-000001", "r1", 410)
	tr.Folded("r0-000001", "r1", 420)
	tr.GossipAcked("r0-000001", "r1", "r2", 500) // the third holder: truth
	tr.Absorbed("r0-000001", "r2", 510)
	tr.Submitted("r1-000001", "acct-2", "r1", 600)
	tr.Declined("r1-000001", "acct-2", "r1", "declined by rule no-overdraft", 610)
	now = 7000
	tr.Annotate("partition opened: r2 silenced")
	tr.Apologized("acct-1", "apology-1", "r2", 900)
	tr.Apologized("acct-9", "apology-2", "r0", 950)
	return tr
}

// TestGoldenTraceBodies holds the JSON of OpTimeline and Recent — what
// /v1/trace serves — to testdata/golden/ byte for byte. The files were
// written by the tracer that stored whole Event structs, before events
// became packed records, so a change to how events are stored cannot
// change what an operator reads. A mismatch writes what the tracer
// produced beside the golden file as NAME.got.
func TestGoldenTraceBodies(t *testing.T) {
	tr := goldenTracer()
	r0, ok0 := tr.OpTimeline("r0-000001")
	r1, ok1 := tr.OpTimeline("r1-000001")
	if !ok0 || !ok1 {
		t.Fatalf("scripted ops not held: r0-000001 %v, r1-000001 %v", ok0, ok1)
	}
	for _, c := range []struct {
		name   string
		events []Event
	}{
		{"op-r0-000001.json", r0},
		{"op-r1-000001.json", r1},
		{"recent.json", tr.Recent(100)},
	} {
		got, err := json.MarshalIndent(c.events, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "golden", c.name)
		want, err := os.ReadFile(path)
		if err == nil && bytes.Equal(got, want) {
			continue
		}
		if werr := os.WriteFile(path+".got", got, 0o644); werr != nil {
			t.Errorf("%s: writing what the tracer produced: %v", c.name, werr)
		}
		t.Errorf("%s differs from %s (read error: %v); the tracer's body is in %s.got", c.name, path, err, path)
	}
}
