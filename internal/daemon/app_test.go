package daemon

// AccountsApp declares itself order-free (core.Commutative), which lets a
// replica fold late gossip in place. These tests hold it to that
// declaration: the fuzz target on the App alone, and the differential
// test on whole clusters, against the same App with the declaration
// hidden, which takes the engine's canonical-order path.

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/uniq"
)

var _ core.Commutative = AccountsApp{}

// opBytes is the fuzz encoding of one op: a kind byte (mod 3: deposit,
// withdraw, or a kind the App does not know), a key byte (mod 4) and the
// argument as 8 little-endian bytes.
const opBytes = 10

func encodeOp(kind, key byte, arg int64) []byte {
	b := []byte{kind, key, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint64(b[2:], uint64(arg))
	return b
}

func decodeOps(data []byte) []core.Op {
	var ops []core.Op
	for ; len(data) >= opBytes; data = data[opBytes:] {
		kind := []string{"deposit", "withdraw", "audit"}[data[0]%3]
		key := []string{"a", "b", "c", "d"}[data[1]%4]
		ops = append(ops, core.NewOp(kind, key, int64(binary.LittleEndian.Uint64(data[2:]))))
	}
	return ops
}

func foldAccounts(ops []core.Op) Accounts {
	app := AccountsApp{}
	s := app.Init()
	for _, op := range ops {
		s = app.Step(s, op)
	}
	return s
}

// FuzzAccountsCommute: folding a decoded op list and a rotation of it
// gives equal ledgers — deposits, withdrawals, unknown kinds and
// arguments at the int64 extremes alike, where the arithmetic wraps and
// still commutes.
func FuzzAccountsCommute(f *testing.F) {
	seed := func(rot uint16, ops ...[]byte) {
		f.Add(slices.Concat(ops...), rot)
	}
	seed(1, encodeOp(0, 0, 5), encodeOp(1, 0, 7), encodeOp(2, 1, 9))
	seed(2, encodeOp(0, 0, math.MaxInt64), encodeOp(0, 0, 1), encodeOp(1, 0, math.MinInt64))
	seed(1, encodeOp(1, 2, math.MinInt64), encodeOp(1, 2, math.MinInt64), encodeOp(0, 3, 0))
	seed(3, encodeOp(2, 0, math.MaxInt64), encodeOp(0, 1, -1), encodeOp(1, 1, math.MaxInt64), encodeOp(0, 2, math.MinInt64))
	f.Fuzz(func(t *testing.T, data []byte, rot uint16) {
		ops := decodeOps(data)
		if len(ops) == 0 {
			return
		}
		k := int(rot) % len(ops)
		rotated := append(slices.Clone(ops[k:]), ops[:k]...)
		if a, b := foldAccounts(ops), foldAccounts(rotated); !maps.Equal(a, b) {
			t.Fatalf("%v folds to %v; rotated by %d, to %v", ops, a, k, b)
		}
	})
}

// orderedAccounts is AccountsApp with its Commutes hidden: the engine
// takes it for an App that needs canonical order, and rewinds.
type orderedAccounts struct{ app AccountsApp }

func (a orderedAccounts) Init() Accounts                       { return a.app.Init() }
func (a orderedAccounts) Step(s Accounts, op core.Op) Accounts { return a.app.Step(s, op) }
func (a orderedAccounts) Snapshot(s Accounts) Accounts         { return a.app.Snapshot(s) }

// scheduleRun is what one run of a schedule leaves: every replica's final
// state, the apologies, every submit's outcome, and the fold counters.
type scheduleRun struct {
	states    []Accounts
	apologies []string
	outcomes  []string
	rewinds   int64
	snaps     int64
}

// runSchedule plays the seed's schedule on three durable replicas under
// NoOverdraft: guesses and coordinated submits on four accounts, with
// withdrawals large enough to overdraw once partitioned replicas merge;
// retries of accepted ops; partitions and heals; Kill and Recover; and links
// slow enough that some pushes outlive their call, so a timed-out push is
// sent again and lands twice, late. Then it heals, recovers and gossips
// the cluster to convergence.
func runSchedule(t *testing.T, seed int64, app core.App[Accounts]) scheduleRun {
	t.Helper()
	const replicas, steps = 3, 250
	s := sim.New(seed)
	tr := rpc.NewSimTransport(s, simnet.WithLatency(simnet.Jitter{Base: time.Millisecond, Spread: 120 * time.Millisecond}))
	c := core.New[Accounts](app, []core.Rule[Accounts]{NoOverdraft()},
		core.WithTransport(tr), core.WithReplicas(replicas), core.WithDurability(t.TempDir()))
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	var out scheduleRun
	type retry struct {
		rep int
		op  core.Op // as stamped at ingress
	}
	var accepted []retry
	down := make([]bool, replicas)
	live := func() int {
		for {
			if i := rng.Intn(replicas); !down[i] {
				return i
			}
		}
	}
	submit := func(rep int, op core.Op, opts ...core.SubmitOption) {
		n := len(out.outcomes)
		out.outcomes = append(out.outcomes, "")
		c.SubmitAsync(rep, op, func(res core.Result) {
			out.outcomes[n] = fmt.Sprintf("%s@r%d accepted=%v %s", op.ID, rep, res.Accepted, res.Reason)
			if res.Accepted {
				accepted = append(accepted, retry{rep, res.Op})
			}
		}, opts...)
	}
	for step := 0; step < steps; step++ {
		switch x := rng.Intn(100); {
		case x < 60:
			op := core.NewOp("deposit", fmt.Sprintf("acct-%d", rng.Intn(4)), 1+rng.Int63n(100))
			if rng.Intn(2) == 0 {
				op.Kind, op.Arg = "withdraw", 1+rng.Int63n(150)
			}
			op.ID = uniq.ID(fmt.Sprintf("op-%03d", step))
			var opts []core.SubmitOption
			if rng.Intn(8) == 0 {
				opts = append(opts, core.WithPolicy(policy.AlwaysSync()))
			}
			submit(live(), op, opts...)
		case x < 66 && len(accepted) > 0:
			// A client's retry of an accepted op, where it was accepted.
			if r := accepted[rng.Intn(len(accepted))]; !down[r.rep] {
				submit(r.rep, r.op)
			}
		case x < 78:
			c.GossipRound()
		case x < 84:
			a := rng.Intn(replicas)
			var rest []string
			for i := 0; i < replicas; i++ {
				if i != a {
					rest = append(rest, core.NodeID(1, 0, i))
				}
			}
			tr.Partition([]string{core.NodeID(1, 0, a)}, rest)
		case x < 89:
			tr.Heal()
		case x < 93:
			if i := rng.Intn(replicas); !down[i] && !slices.Contains(down, true) {
				c.Kill(i)
				down[i] = true
			}
		case x < 97:
			for i := range down {
				if down[i] {
					if err := c.Recover(ctx, i); err != nil {
						t.Fatal(err)
					}
					down[i] = false
				}
			}
		default:
			s.RunFor(time.Duration(rng.Intn(200)) * time.Millisecond)
		}
		s.RunFor(time.Duration(rng.Intn(4)) * time.Millisecond)
	}
	tr.Heal()
	for i := range down {
		if down[i] {
			if err := c.Recover(ctx, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; !c.Converged(); round++ {
		if round > 200 {
			t.Fatalf("seed %d: no convergence after %d rounds", seed, round)
		}
		c.GossipRound()
		s.Run()
	}
	s.Run()
	out.states = c.States()
	for _, a := range c.Apologies.Human() {
		out.apologies = append(out.apologies, fmt.Sprintf("%s %s %s %d %s", a.ID, a.Rule, a.Key, a.Amount, a.Replica))
	}
	slices.Sort(out.apologies)
	m := c.Metrics()
	out.rewinds, out.snaps = m.FoldRewinds.Value(), m.FoldCheckpoints.Value()
	return out
}

// TestOrderFreeFoldMatchesCanonical is the differential test for the
// in-place fold: every schedule runs once with AccountsApp and once with
// orderedAccounts, and both runs end with the same state at every
// replica, the same apologies and the same outcome for every submit. The
// order-free run never rewinds and takes no checkpoint; the ordered run
// rewinds, or the schedule never delivered a late entry.
func TestOrderFreeFoldMatchesCanonical(t *testing.T) {
	apologies := 0
	for seed := int64(1); seed <= 8; seed++ {
		free := runSchedule(t, seed, AccountsApp{})
		ordered := runSchedule(t, seed, orderedAccounts{})
		for i := range ordered.states {
			if !maps.Equal(free.states[i], ordered.states[i]) {
				t.Errorf("seed %d: replica %d derived %v order-free, %v in canonical order", seed, i, free.states[i], ordered.states[i])
			}
		}
		if !slices.Equal(free.apologies, ordered.apologies) {
			t.Errorf("seed %d: apologies differ:\norder-free %q\ncanonical  %q", seed, free.apologies, ordered.apologies)
		}
		if !slices.Equal(free.outcomes, ordered.outcomes) {
			t.Errorf("seed %d: submit outcomes differ", seed)
		}
		if free.rewinds != 0 || free.snaps != 0 {
			t.Errorf("seed %d: the order-free run took %d rewinds and %d checkpoints", seed, free.rewinds, free.snaps)
		}
		if ordered.rewinds == 0 {
			t.Errorf("seed %d: the canonical-order run never rewound; the schedule delivers nothing late", seed)
		}
		apologies += len(free.apologies)
		t.Logf("seed %d: %d submits, %d apologies, canonical order rewound %d times", seed, len(free.outcomes), len(free.apologies), ordered.rewinds)
	}
	if apologies == 0 {
		t.Fatal("no schedule overdrew an account; the apology comparison compared nothing")
	}
}
