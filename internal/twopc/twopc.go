// Package twopc implements classic two-phase commit, the baseline the
// paper blames for fragility: "distributed transactions (especially using
// the Two Phase Commit protocol) result in fragile systems and reduced
// availability. For this reason, they are rarely used in production
// systems" (§2.3).
//
// The implementation is deliberately textbook — prepare to all
// participants, commit only on unanimous yes, abort on any refusal or
// silence — because the experiment (E12) measures exactly that property:
// one dead participant stops the world, where the ACID 2.0 cluster keeps
// accepting work.
package twopc

import (
	"fmt"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Config tunes a 2PC group. Zero fields take defaults.
type Config struct {
	Participants int            // default 3
	MsgLatency   simnet.Latency // default 5ms ± 2ms (same links as core)
	CallTimeout  time.Duration  // default 100ms
}

func (c Config) withDefaults() Config {
	if c.Participants == 0 {
		c.Participants = 3
	}
	if c.MsgLatency == nil {
		c.MsgLatency = simnet.Jitter{Base: 5 * time.Millisecond, Spread: 2 * time.Millisecond}
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 100 * time.Millisecond
	}
	return c
}

// Metrics tallies outcomes.
type Metrics struct {
	Committed stats.Counter
	Aborted   stats.Counter
	TxnLat    stats.Histogram
}

type (
	prepareReq struct{ Txn uint64 }
	voteResp   struct{ Yes bool }
	decideReq  struct {
		Txn    uint64
		Commit bool
	}
	decideAck struct{}
)

// participant votes yes whenever it is alive; state is out of scope — the
// experiment measures availability, not payload semantics.
type participant struct {
	ep       *rpc.Endpoint
	prepared map[uint64]bool
	decided  map[uint64]bool
}

// Group is one coordinator plus participants on a private network.
type Group struct {
	s     *sim.Sim
	net   *simnet.Network
	cfg   Config
	coord *rpc.Endpoint
	parts []*participant

	txnSeq uint64
	M      Metrics
}

// New builds a group with participants named p0, p1, ...
func New(s *sim.Sim, cfg Config) *Group {
	cfg = cfg.withDefaults()
	g := &Group{
		s:   s,
		net: simnet.New(s, simnet.WithLatency(cfg.MsgLatency)),
		cfg: cfg,
	}
	g.coord = rpc.NewEndpoint(g.net, "coord", cfg.CallTimeout)
	for i := 0; i < cfg.Participants; i++ {
		p := &participant{prepared: make(map[uint64]bool), decided: make(map[uint64]bool)}
		p.ep = rpc.NewEndpoint(g.net, fmt.Sprintf("p%d", i), cfg.CallTimeout)
		p.ep.Handle("prepare", func(_ string, req any, reply func(any)) {
			r := req.(prepareReq)
			p.prepared[r.Txn] = true
			reply(voteResp{Yes: true})
		})
		p.ep.Handle("decide", func(_ string, req any, reply func(any)) {
			r := req.(decideReq)
			p.decided[r.Txn] = r.Commit
			reply(decideAck{})
		})
		g.parts = append(g.parts, p)
	}
	return g
}

// Net exposes the network for fault injection.
func (g *Group) Net() *simnet.Network { return g.net }

// ParticipantIDs lists the participant node IDs (for fault injectors).
func (g *Group) ParticipantIDs() []string {
	out := make([]string, len(g.parts))
	for i, p := range g.parts {
		out[i] = p.ep.ID()
	}
	return out
}

// Commit runs one transaction through both phases. done reports whether
// it committed; any unreachable or refusing participant aborts it.
func (g *Group) Commit(done func(committed bool)) {
	g.txnSeq++
	txn := g.txnSeq
	start := g.s.Now()
	targets := g.ParticipantIDs()
	g.coord.Broadcast(targets, "prepare", prepareReq{Txn: txn}, func(resps []any, oks int) {
		allYes := oks == len(targets)
		for _, r := range resps {
			if !r.(voteResp).Yes {
				allYes = false
			}
		}
		g.coord.Broadcast(targets, "decide", decideReq{Txn: txn, Commit: allYes}, func([]any, int) {
			if allYes {
				g.M.Committed.Inc()
				g.M.TxnLat.AddDur(g.s.Now() - start)
			} else {
				g.M.Aborted.Inc()
			}
			done(allYes)
		})
	})
}
