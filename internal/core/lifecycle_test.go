package core

// One life per replica. Every asynchronous continuation a replica issues
// carries the life it was issued in, and acts only in that life. These
// tables cross each continuation kind with each transition that ends or
// changes a life — Kill, Kill→Recover (a volatile replica: Kill→revive by
// SetUp), degrade, degrade→Recover — and hold every submit involved to
// three things: it resolves exactly once; declined, it is absent from
// every replica once the cluster is quiet; accepted, it is present on
// every replica. Each row also names the decline it expects.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/uniq"
)

type transition int

const (
	tKill transition = iota
	tKillRevive
	tDegrade
	tDegradeRecover
)

// lifeEnv is one row's world: two replicas on the simulator — two, so r0
// hears from r1 alone and nothing reaches it by a detour — r0's disk
// failing writes with fault while it is set, and the submits the row
// checks. A fault stays set until revive clears it: a degraded r0 stays
// degraded, its re-probe failing, until the row heals it.
type lifeEnv struct {
	t       *testing.T
	s       *sim.Sim
	c       *Cluster[counterState]
	durable bool
	fault   error
	subs    []*lifeSub
}

// lifeSub is one checked submit: the outcome it must reach (want "" for
// accepted; free for a submit whose fate the row does not pin, such as
// one a volatile replica lost with its RAM), whether it must resolve in
// place — at the simulated instant it was offered, no round trip spent —
// and every Result it got.
type lifeSub struct {
	id      uniq.ID
	want    string
	free    bool
	inPlace bool
	got     []Result
}

// newLifeEnv builds a row's world. With nudge, the ingest drain nudges
// gossip: WithGossipEvery arms the nudge, its ticker is stopped at once so
// that rounds stay the row's to run, and a batch cap of 1 makes a single
// unheld entry due.
func newLifeEnv(t *testing.T, durable, nudge bool) *lifeEnv {
	e := &lifeEnv{t: t, s: sim.New(61), durable: durable}
	opts := []Option{WithTransport(rpc.NewSimTransport(e.s)), WithReplicas(2)}
	rules := []Rule[counterState]{noOverdraft()} // only overdraw's debit meets it
	if nudge {
		opts = append(opts, WithGossipEvery(time.Hour), withIngestCap(1))
	}
	if durable {
		marker := string(os.PathSeparator) + "r0" + string(os.PathSeparator)
		fs := faultfs.New(faultfs.OS, 1, func(op faultfs.Op) faultfs.Decision {
			if e.fault != nil && strings.Contains(op.Path, marker) && (op.Kind == faultfs.OpWrite || op.Kind == faultfs.OpWriteAt) {
				return faultfs.Decision{Err: e.fault}
			}
			return faultfs.Decision{}
		})
		opts = append(opts, WithDurability(t.TempDir()), WithStoreFS(fs))
	}
	e.c = New[counterState](counterApp{}, rules, opts...)
	if nudge {
		for _, stop := range e.c.stopGossip {
			stop()
		}
	}
	t.Cleanup(func() { e.c.Close() })
	return e
}

// run runs the simulator until it is quiet — bounded, because a degraded
// r0 on a disk still full keeps a re-probe queued, so the queue never
// empties while it lasts.
func (e *lifeEnv) run() { e.s.RunFor(time.Minute) }

// resolve steps the simulator until sub has resolved: on a durable
// replica, until the flush that commits it has run.
func (e *lifeEnv) resolve(sub *lifeSub) *lifeSub {
	for len(sub.got) == 0 && e.s.Step() {
	}
	return sub
}

// submit offers a credit at replica rep — coordinated when sync — that
// must end as want; then, if set, runs inside its completion.
func (e *lifeEnv) submit(rep int, sync bool, want string, then func()) *lifeSub {
	return e.offer(rep, "credit", sync, want, then)
}

// overdraw offers r0 a debit of the credit's key, which r0 holds none
// of: the drain declines it where it sits and runs then inside the
// completion, while the drain still holds the ring — so submits then
// makes queue behind it.
func (e *lifeEnv) overdraw(then func()) *lifeSub {
	return e.offer(0, "debit", false, "declined by rule no-overdraft", then)
}

func (e *lifeEnv) offer(rep int, kind string, sync bool, want string, then func()) *lifeSub {
	sub := &lifeSub{id: uniq.ID(fmt.Sprintf("x%d", len(e.subs))), want: want}
	e.subs = append(e.subs, sub)
	op := NewOp(kind, "k", 1)
	op.ID = sub.id
	pol := policy.AlwaysAsync()
	if sync {
		pol = policy.AlwaysSync()
	}
	e.c.SubmitAsync(rep, op, func(res Result) {
		sub.got = append(sub.got, res)
		if then != nil {
			then()
		}
	}, WithPolicy(pol))
	return sub
}

// setup is submit for work the row needs but whose fate only a durable
// replica pins: a volatile r0 loses it with its RAM, and r1, which holds
// it, counts r0 as holding it too. It returns once the submit resolved.
func (e *lifeEnv) setup(rep int, then func()) {
	sub := e.resolve(e.submit(rep, false, "", then))
	sub.free = !e.durable && rep == 0
}

// revive heals r0's disk and brings r0 back: a durable r0, killed or
// degraded, by Recover; a volatile one by SetUp.
func (e *lifeEnv) revive() {
	e.fault = nil
	if !e.durable {
		e.c.Transport().SetUp("r0", true)
		return
	}
	if err := e.c.Recover(context.Background(), 0); err != nil {
		e.t.Fatal(err)
	}
}

// degradeBySubmit fills r0's disk under a submit of its own: the commit
// fails and r0 degrades at the flush, declining that submit.
func (e *lifeEnv) degradeBySubmit() {
	e.fault = syscall.ENOSPC
	e.resolve(e.submit(0, false, ReasonDegraded, nil))
	if !e.c.Replica(0).Degraded() {
		e.t.Fatal("r0 did not degrade")
	}
}

// degradeByPush fills r0's disk under a push from r1, for rows whose own
// submits queue behind the drain: r1 must hold something r0 lacks.
func (e *lifeEnv) degradeByPush() {
	e.fault = syscall.ENOSPC
	e.c.GossipRound()
	e.run()
	if !e.c.Replica(0).Degraded() {
		e.t.Fatal("r0 did not degrade")
	}
}

// apply runs the transition at r0, degrading it with degrade.
func (e *lifeEnv) apply(tr transition, degrade func()) {
	switch tr {
	case tKill, tKillRevive:
		e.c.Kill(0)
		if tr == tKillRevive {
			e.revive()
		}
	case tDegrade, tDegradeRecover:
		degrade()
		if tr == tDegradeRecover {
			e.revive()
		}
	}
}

// heal brings a down or degraded r0 back, healing its disk.
func (e *lifeEnv) heal() {
	if r0 := e.c.Replica(0); r0.node.Crashed() || r0.Degraded() {
		e.revive()
	}
}

// settle runs the cluster quiet and checks every submit. While r0 is down
// or degraded one gossip round runs first, and must move nothing: r1's
// only peer is r0, which neither takes a push nor may spread its
// phantoms. Then r0 heals and gossip runs until the replicas agree — a
// durable pair always does; a volatile r0 that lost ops r1 counts it as
// holding never gets them back (no state transfer), so there a fixed
// number of rounds is quiet enough.
func (e *lifeEnv) settle() {
	e.run()
	r0 := e.c.Replica(0)
	moved := e.c.Metrics().OpsTransferred.Value()
	e.c.GossipRound()
	e.run()
	if n := e.c.Metrics().OpsTransferred.Value() - moved; n > 0 && (r0.node.Crashed() || r0.Degraded()) {
		e.t.Errorf("a gossip round moved %d entries to or from r0 while it was down or degraded", n)
	}
	e.heal()
	if e.durable {
		convergeSim(e.t, e.s, e.c)
	}
	for i := 0; i < 16; i++ {
		e.c.GossipRound()
		e.run()
	}
	for _, sub := range e.subs {
		if len(sub.got) != 1 {
			e.t.Errorf("%s resolved %d times", sub.id, len(sub.got))
			continue
		}
		res := sub.got[0]
		if res.Op.ID != sub.id {
			e.t.Errorf("%s resolved with %s", sub.id, res.Op.ID)
		}
		if sub.free {
			continue
		}
		if res.Accepted != (sub.want == "") || res.Reason != sub.want || res.Retryable != (sub.want == ReasonDegraded) {
			e.t.Errorf("%s = accepted %v, reason %q, retryable %v; want reason %q", sub.id, res.Accepted, res.Reason, res.Retryable, sub.want)
		}
		if sub.inPlace && res.Latency != 0 {
			e.t.Errorf("%s resolved after %v: the drain should decline it where it sat, before any round", sub.id, res.Latency)
		}
		for i := 0; i < 2; i++ {
			if held := e.c.Replica(i).Ops().Contains(sub.id); held != res.Accepted {
				e.t.Errorf("%s (accepted %v) held by r%d: %v", sub.id, res.Accepted, i, held)
			}
		}
	}
}

// wantFor is the decline a transition gives work stamped before it:
// "replica down" once the life has ended or the node is down, the
// retryable ReasonDegraded while the life goes on degraded.
func wantFor(tr transition) string {
	if tr == tDegrade {
		return ReasonDegraded
	}
	return "replica down"
}

// lifeKinds are the continuations, each a scenario that issues its work
// at r0, runs the transition where the work is in flight, and leaves the
// rest to settle.
var lifeKinds = []struct {
	name    string
	durable bool // only durable rows: the kind's transitions need r0's disk
	nudge   bool // r0's drain nudges gossip (see newLifeEnv)
	run     func(e *lifeEnv, tr transition)
}{
	// r0's push is in flight when r0 transitions; its ack lands after.
	// An ack from an ended life counts positions of the dead journal, which
	// the next life reuses for ops r1 has never seen.
	{"push ack", false, false, func(e *lifeEnv, tr transition) {
		e.setup(0, nil)
		e.c.GossipRound()
		e.apply(tr, e.degradeBySubmit)
		e.run()
		if tr == tKillRevive || tr == tDegradeRecover {
			e.submit(0, false, "", nil) // must reach r1: the new life pushes from position 0
		}
	}},
	// r1's push is in flight to r0 when r0 transitions; r0 absorbs it (or
	// refuses it) in whatever life it lands in.
	{"absorb commit", false, false, func(e *lifeEnv, tr transition) {
		e.resolve(e.submit(1, false, "", nil))
		e.c.GossipRound()
		e.apply(tr, e.degradeBySubmit)
		e.run()
	}},
	// r0 coordinates a round; the admits are out when r0 transitions.
	{"sync admit", false, false, func(e *lifeEnv, tr transition) {
		e.submit(0, true, wantFor(tr), nil)
		e.apply(tr, e.degradeBySubmit)
		e.run()
	}},
	// r0's disk fails the round's own absorb: fatally (Kill) or with
	// ENOSPC (degrade). The round learns of it in the life that follows.
	{"sync absorb", true, false, func(e *lifeEnv, tr transition) {
		want := "replica down"
		e.fault = errors.New("disk on fire")
		if tr == tDegrade || tr == tDegradeRecover {
			want, e.fault = ReasonDegraded, syscall.ENOSPC
		}
		e.submit(0, true, want, nil)
		e.run()
		if tr == tKillRevive || tr == tDegradeRecover {
			e.heal()
			e.submit(0, true, "", nil)
		}
	}},
	// A submit's completion submits twice more — a guess and a coordinated
	// op, queued behind the drain that runs the completion — and then r0
	// transitions, before the drain reaches them. The completion is a
	// declined one's: a durable replica's accepted completions run in its
	// store's flush, after the drain.
	{"queued ingest item", false, false, func(e *lifeEnv, tr transition) {
		e.resolve(e.submit(1, false, "", nil)) // what r1 pushes when degradeByPush fills r0's disk
		e.overdraw(func() {
			// degradeByPush runs the simulator, so only a Kill leaves the
			// clock where the two were offered.
			inPlace := tr == tKill || tr == tKillRevive
			e.submit(0, false, wantFor(tr), nil).inPlace = inPlace
			e.submit(0, true, wantFor(tr), nil).inPlace = inPlace
			e.apply(tr, e.degradeByPush)
		})
	}},
	// r0's drain hands a segment's commit the nudge toward r1, and the
	// transition lands before the nudge: in the segment's completion for a
	// Kill, in the segment's own failed commit for a degrade — whose
	// declined guess the nudge must not ship.
	{"ingest nudge", false, true, func(e *lifeEnv, tr transition) {
		if tr == tDegrade || tr == tDegradeRecover {
			e.apply(tr, e.degradeBySubmit)
			return
		}
		e.setup(0, func() { e.apply(tr, nil) })
	}},
}

// TestLifeFencesEveryContinuation is the table: each continuation kind
// crossed with each transition, durable, and the Kill transitions on a
// volatile replica too.
func TestLifeFencesEveryContinuation(t *testing.T) {
	for _, kind := range lifeKinds {
		for _, tr := range []transition{tKill, tKillRevive, tDegrade, tDegradeRecover} {
			for _, durable := range []bool{true, false} {
				if !durable && (kind.durable || tr == tDegrade || tr == tDegradeRecover) {
					continue
				}
				name := []string{"Kill", "Kill→Recover", "degrade", "degrade→Recover"}[tr]
				if !durable {
					name = map[transition]string{tKill: "Kill (volatile)", tKillRevive: "Kill→revive"}[tr]
				}
				t.Run(kind.name+" × "+name, func(t *testing.T) {
					e := newLifeEnv(t, durable, kind.nudge)
					kind.run(e, tr)
					e.settle()
				})
			}
		}
	}
}

// TestIngestNudgeShipsNoDeclinedGuess: r0's disk is full, so the commit
// of a guess fails, r0 degrades and declines the guess. The drain then
// nudges gossip toward r1, and the push must not carry the guess: a
// degraded replica pushes nothing.
func TestIngestNudgeShipsNoDeclinedGuess(t *testing.T) {
	e := newLifeEnv(t, true, true)
	e.fault = syscall.ENOSPC
	sub := e.submit(0, false, ReasonDegraded, nil)
	e.run()
	if len(sub.got) != 1 || sub.got[0].Accepted || sub.got[0].Reason != ReasonDegraded {
		t.Fatalf("guess on a full disk resolved %+v; want one degraded decline", sub.got)
	}
	if n := e.c.Replica(1).OpCount(); n != 0 {
		t.Fatalf("r1 holds %d ops: the ingest nudge shipped the guess r0 declined", n)
	}
	if n := e.c.Metrics().OpsTransferred.Value(); n != 0 {
		t.Fatalf("gossip moved %d entries from a degraded replica", n)
	}
}

// reprobing reports whether a replica of c has a degraded re-probe armed
// or running.
func reprobing(c *Cluster[counterState]) bool {
	for i := 0; i < c.Replicas(); i++ {
		if c.Replica(i).reprobes.Load() > 0 {
			return true
		}
	}
	return false
}

// waitNoReprobe fails the test unless every re-probe ends within a few of
// its backoff steps.
func waitNoReprobe(t *testing.T, c *Cluster[counterState]) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); reprobing(c); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the re-probe outlived the degraded life it was started in")
		}
	}
}

// liveLifeFS is r0's disk on the live transport: writes fail with ENOSPC
// while full is set, and the next sync under r0 after hold is set takes
// 300 ms, announcing itself on held. denied counts the writes refused,
// and opens the store opens that got past recording their incarnation.
type liveLifeFS struct {
	full, hold    atomic.Bool
	held          chan struct{}
	denied, opens atomic.Int32
}

func (f *liveLifeFS) fs() faultfs.FS {
	marker := string(os.PathSeparator) + "r0" + string(os.PathSeparator)
	return faultfs.New(faultfs.OS, 1, func(op faultfs.Op) faultfs.Decision {
		switch {
		case !strings.Contains(op.Path, marker):
		case f.full.Load() && (op.Kind == faultfs.OpWrite || op.Kind == faultfs.OpWriteAt):
			f.denied.Add(1)
			return faultfs.Decision{Err: syscall.ENOSPC}
		case op.Kind == faultfs.OpRename && strings.HasSuffix(op.Path, "incarnation.tmp"):
			f.opens.Add(1)
		case op.Kind == faultfs.OpSync && f.hold.CompareAndSwap(true, false):
			f.held <- struct{}{}
			return faultfs.Decision{Delay: 300 * time.Millisecond}
		}
		return faultfs.Decision{}
	})
}

// TestLifeFencesTheReprobeLoop is the re-probe's row: whatever ends the
// degraded life — a Kill, a Kill and Recover that overtake the
// re-probe's own reseed mid-open, an operator's Recover — ends the
// re-probe, and its reseed never clobbers the life that overtook it: a
// killed r0 is still down, with no store, once the re-probe has ended.
// Each row runs live, and its /sim twin runs the same transition on the
// simulator, where the re-probe's timer is an event. A flush is one
// event there, so no reseed can be caught mid-open: Kill→Recover has no
// twin. In the last row the re-probe fires while an operator's Recover of
// a downed r0 is mid-open: it waits for that open, finds the store
// attached and opens nothing, so Recover brings r0 up; no /sim twin yet.
func TestLifeFencesTheReprobeLoop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		killed bool // the transition kills r0
		tr     func(t *testing.T, c *Cluster[counterState], f *liveLifeFS)
		sim    func(t *testing.T, c *Cluster[counterState])
	}{
		{"re-probe loop × Kill", true, func(t *testing.T, c *Cluster[counterState], f *liveLifeFS) {
			c.Kill(0)
			waitNoReprobe(t, c)
		}, func(t *testing.T, c *Cluster[counterState]) { c.Kill(0) }},
		{"re-probe loop × Kill→Recover", true, func(t *testing.T, c *Cluster[counterState], f *liveLifeFS) {
			f.hold.Store(true)
			f.full.Store(false)
			<-f.held // the re-probe's reseed is opening the store
			c.Kill(0)
			waitNoReprobe(t, c)
		}, nil},
		{"re-probe loop × degrade→Recover", false, func(t *testing.T, c *Cluster[counterState], f *liveLifeFS) {
			f.full.Store(false)
			if err := c.Recover(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
			waitNoReprobe(t, c)
		}, func(t *testing.T, c *Cluster[counterState]) {
			if err := c.Recover(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"re-probe loop × Recover mid-open", false, func(t *testing.T, c *Cluster[counterState], f *liveLifeFS) {
			c.Transport().SetUp("r0", false)
			// Right after a re-probe fails on the full disk its next try is
			// 200 ms away: inside the 300 ms that Recover's open is held.
			for n, deadline := f.denied.Load(), time.Now().Add(5*time.Second); f.denied.Load() == n; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the re-probe never retried")
				}
			}
			f.hold.Store(true)
			f.full.Store(false)
			opens := f.opens.Load()
			if err := c.Recover(context.Background(), 0); err != nil {
				t.Fatalf("Recover with the re-probe firing mid-open: %v", err)
			}
			waitNoReprobe(t, c)
			if _, open := c.Replica(0).StoreStats(); !open || c.Replica(0).node.Crashed() || f.opens.Load()-opens != 1 {
				t.Fatalf("after Recover: store open %v, down %v, stores opened %d; want one store, up", open, c.Replica(0).node.Crashed(), f.opens.Load()-opens)
			}
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.sim != nil {
				t.Run("sim", func(t *testing.T) { reprobeTwin(t, tc.killed, tc.sim) })
			}
			f := &liveLifeFS{held: make(chan struct{}, 1)}
			c := New[counterState](counterApp{}, nil, WithReplicas(2), WithDurability(t.TempDir()), WithStoreFS(f.fs()))
			defer c.Close()
			f.full.Store(true)
			res, err := c.Submit(context.Background(), 0, NewOp("credit", "k", 1))
			if err != nil || res.Reason != ReasonDegraded || !res.Retryable {
				t.Fatalf("submit on a full disk = %+v, %v; want the retryable degraded decline", res, err)
			}
			for deadline := time.Now().Add(5 * time.Second); !c.Replica(0).Degraded(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("r0 never degraded")
				}
			}
			tc.tr(t, c, f)
			if tc.killed {
				stillKilled(t, c)
			}
			f.full.Store(false)
			if c.Replica(0).node.Crashed() {
				if err := c.Recover(context.Background(), 0); err != nil {
					t.Fatal(err)
				}
			}
			mustSubmit(t, c, 0, NewOp("credit", "k", 1))
			if c.Replica(0).Degraded() {
				t.Fatal("r0 is still degraded")
			}
		})
	}
}

// stillKilled fails the test unless r0 is down and holds no store and no
// op: a re-probe never reseeds or revives a killed replica, and a reseed
// a Kill overtook throws away what it replayed.
func stillKilled(t *testing.T, c *Cluster[counterState]) {
	t.Helper()
	r0 := c.Replica(0)
	if _, open := r0.StoreStats(); open || !r0.node.Crashed() || r0.OpCount() != 0 {
		t.Fatalf("once the re-probe ended: r0 down %v, store open %v, %d ops; want a killed r0 down, with no store and no op, until Recover", r0.node.Crashed(), open, r0.OpCount())
	}
}

// reprobeTwin is a re-probe row on the simulator: r0 degrades on a full
// disk and keeps its re-probe armed while the disk stays full; then the
// disk heals, tr ends the degraded life before the re-probe's next step,
// and the re-probe must end with it — leaving r0 down if tr killed it.
func reprobeTwin(t *testing.T, killed bool, tr func(t *testing.T, c *Cluster[counterState])) {
	var full atomic.Bool
	s := sim.New(12)
	c := New[counterState](counterApp{}, nil, WithTransport(rpc.NewSimTransport(s)), WithReplicas(2),
		WithDurability(t.TempDir()), WithStoreFS(replicaFS("r0", &full, syscall.ENOSPC)))
	defer c.Close()
	full.Store(true)
	res, err := c.Submit(context.Background(), 0, NewOp("credit", "k", 1))
	if err != nil || res.Reason != ReasonDegraded || !res.Retryable || !c.Replica(0).Degraded() {
		t.Fatalf("submit on a full disk = %+v, %v; want the retryable degraded decline", res, err)
	}
	s.RunFor(time.Second) // the re-probe fails on the full disk, and stays armed
	if !reprobing(c) || !c.Replica(0).Degraded() {
		t.Fatalf("after a second on a full disk: re-probe armed %v, degraded %v; want both", reprobing(c), c.Replica(0).Degraded())
	}
	full.Store(false)
	tr(t, c)
	s.RunFor(5 * time.Second) // past the re-probe's next step
	if reprobing(c) {
		t.Fatal("the re-probe outlived the degraded life it was started in")
	}
	if killed {
		stillKilled(t, c)
	}
	if c.Replica(0).node.Crashed() {
		if err := c.Recover(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	mustSubmit(t, c, 0, NewOp("credit", "k", 1))
	if c.Replica(0).Degraded() {
		t.Fatal("r0 is still degraded")
	}
}

// TestLifeFencesCommitFailures: r0 is killed with commits pending behind a
// slow fsync and recovered while the dying store still holds them — the
// store fails them only once its flush lets go of the disk, after the new
// life has begun. A failure from the old life must not touch the new one: taken
// for the new store's, it would crash the replica that just recovered.
// The pending commit is a submit's segment, or an absorb of r1's push.
func TestLifeFencesCommitFailures(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pending func(t *testing.T, c *Cluster[counterState], done func(Result))
	}{
		{"ingest commit × Kill→Recover", func(t *testing.T, c *Cluster[counterState], done func(Result)) {
			c.SubmitAsync(0, NewOp("credit", "k", 1), done)
		}},
		{"absorb commit × Kill→Recover", func(t *testing.T, c *Cluster[counterState], done func(Result)) {
			done(Result{}) // r1's submit is not r0's to resolve
			mustSubmit(t, c, 1, NewOp("credit", "k", 1))
			c.GossipRound()
			for deadline := time.Now().Add(5 * time.Second); c.Replica(0).OpCount() < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("r0 never absorbed r1's push")
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &liveLifeFS{held: make(chan struct{}, 1)}
			c := New[counterState](counterApp{}, nil, WithReplicas(2), WithDurability(t.TempDir()), WithStoreFS(f.fs()))
			defer c.Close()
			var counts [2]atomic.Int32
			var resolved sync.WaitGroup
			resolved.Add(2)
			track := func(i int) func(Result) {
				return func(Result) {
					if counts[i].Add(1) == 1 {
						resolved.Done()
					}
				}
			}
			f.hold.Store(true)
			c.SubmitAsync(0, NewOp("credit", "k", 1), track(0))
			<-f.held // its flush is in the slow fsync; the next commit waits behind it
			tc.pending(t, c, track(1))
			killed := make(chan struct{})
			go func() { c.Kill(0); close(killed) }()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if c.Recover(context.Background(), 0) == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("r0 never recovered")
				}
			}
			<-killed
			resolved.Wait()
			time.Sleep(50 * time.Millisecond) // what the old life's failures set off
			for i := range counts {
				if n := counts[i].Load(); n != 1 {
					t.Fatalf("submit %d resolved %d times", i, n)
				}
			}
			if c.Replica(0).node.Crashed() {
				t.Fatal("a commit failure of the killed life crashed the recovered one")
			}
			mustSubmit(t, c, 0, NewOp("credit", "k", 1))
		})
	}
}
