package scenario

import (
	"context"
	"testing"
	"time"
)

// TestScenarioSuite runs every named scenario at reduced scale — the
// tier-1 regression harness for perf and robustness PRs. A future
// change that loses accepted ops, breaks convergence under churn, or
// floods the apology queue fails here under plain `go test`.
func TestScenarioSuite(t *testing.T) {
	for _, s := range All() {
		t.Run(s.Name, func(t *testing.T) {
			cfg := Config{
				Duration: 1200 * time.Millisecond,
				Keys:     512,
				Seed:     7,
			}
			if s.Name == "zipf-millions" {
				cfg.Keys = 5000 // "millions" at test scale: still heavily skewed
			}
			runAndCheck(t, s, cfg)
		})
	}

	// The acceptance-critical pair also runs against real daemons: TCP
	// gossip, HTTP submits, cross-process apology dedupe.
	for _, name := range []string{"flash-sale", "partition-storm"} {
		t.Run(name+"/net", func(t *testing.T) {
			s, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			runAndCheck(t, s, Config{
				Stack:    StackNet,
				Duration: 1200 * time.Millisecond,
				Keys:     256,
				Replicas: 2,
				Seed:     7,
			})
		})
	}
}

func runAndCheck(t *testing.T, s *Scenario, cfg Config) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, err := s.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Accepted == 0 {
		t.Fatalf("%s accepted no traffic: %+v", s.Name, res.Report)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("invariant %s failed: %s", c.Name, c.Detail)
		}
	}
	if !res.Passed {
		t.Fatalf("%s did not pass", s.Name)
	}
}

// Unknown names must fail loudly, listing what exists.
func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("expected an error for an unknown scenario")
	}
}

// Durability-requiring scenarios must refuse volatile stacks instead of
// silently measuring the wrong thing.
func TestDurabilityGate(t *testing.T) {
	s, err := ByName("rolling-churn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), Config{Stack: StackLive, Duration: 100 * time.Millisecond}); err == nil {
		t.Fatal("rolling-churn on a volatile stack should be rejected")
	}
}
