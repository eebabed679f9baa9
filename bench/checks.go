package main

import (
	"context"
	"fmt"
	"time"
)

// check is one verified property of a run's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// verify checks the paper's promises against what the harness itself saw
// acknowledged. funded is the set-up deposit total; t tallies every load
// run on s since. It returns the checks, the time the stack took to
// converge after the last reply, and the time one crash recovery took
// (zero on volatile stacks).
func (s *stack) verify(ctx context.Context, t tally, lastReply time.Time) (checks []check, converge, recovery time.Duration) {
	add := func(name string, ok bool, format string, args ...any) {
		c := check{Name: name, OK: ok}
		if !ok {
			c.Detail = fmt.Sprintf(format, args...)
		}
		checks = append(checks, c)
	}
	_, err := s.converge(convergeWait)
	converge = time.Since(lastReply)
	add("converged", err == nil, "%v", err)
	s.verifyState(add, t, "")

	if s.cfg.dataDir != "" {
		// Durability: the last entry dies with everything not yet on disk,
		// restarts from its store alone, and must end up where the
		// survivors are — no acknowledged op lost.
		victim := s.entries() - 1
		var err error
		recovery, err = s.crashAndRecover(ctx, victim)
		add("recovered", err == nil, "%v", err)
		if err == nil {
			_, err = s.converge(convergeWait)
			add("reconverged", err == nil, "%v", err)
			s.verifyState(add, t, "-after-crash")
		}
	}
	return checks, converge, recovery
}

func (s *stack) verifyState(add func(name string, ok bool, format string, args ...any), t tally, suffix string) {
	add("states-equal"+suffix, s.statesEqual(), "replicas disagree on derived state")

	// Σ balances = funded + Σ acked deposits − Σ acked withdrawals.
	state := s.reps[0].State()
	var sum int64
	for _, v := range state {
		sum += v
	}
	want := int64(accounts*prefund) + t.deposited - t.drawn
	add("balance-sum"+suffix, sum >= want-t.unsureOut && sum <= want+t.unsureIn,
		"sum of balances %d, acknowledged %d (-%d +%d unsure)", sum, want, t.unsureOut, t.unsureIn)

	for e, r := range s.reps {
		if n, need := int64(r.OpCount()), int64(accounts)+t.acked; n < need {
			add("no-ack-lost"+suffix, false, "entry %d holds %d ops, %d were acknowledged", e, n, need)
			return
		}
	}
	add("no-ack-lost"+suffix, true, "")

	// A negative balance is allowed only with an attributed apology for it.
	sorry := make(map[string]bool)
	for _, c := range s.clusters {
		for _, a := range append(c.Apologies.Automated(), c.Apologies.Human()...) {
			if a.Rule == "" || a.Key == "" || a.Replica == "" {
				add("apologies-attributed"+suffix, false, "apology %s lacks rule, key or replica", a.ID)
				return
			}
			sorry[a.Key] = true
		}
	}
	for k, v := range state {
		if v < 0 && !sorry[k] {
			add("apologies-attributed"+suffix, false, "%s is at %d with no apology", k, v)
			return
		}
	}
	add("apologies-attributed"+suffix, true, "")
}
