package dynamo

import (
	"repro/internal/rpc"
	"repro/internal/vclock"
)

// Wire messages.
type (
	sgetReq  struct{ Key string }
	sgetResp struct {
		From     string
		Versions []Version
	}
	sputReq struct {
		Key     string
		Version Version
		HintFor string // non-empty on a sloppy write for a down home
	}
	srepairReq struct {
		Key      string
		Versions []Version
	}
	syncReq  struct{ Store map[string][]Version }
	syncResp struct{ Store map[string][]Version }
	ack      struct{ OK bool }
)

// storeNode is one Dynamo storage host. Its store survives crashes (the
// real node's disk does); a crashed node simply stops answering until
// revived.
type storeNode struct {
	c         *Cluster
	id        string
	ep        *rpc.Endpoint
	store     map[string][]Version
	hints     map[string]map[string][]Version
	armed     bool // hint-retry timer pending
	hintTries int  // consecutive unproductive retries
}

func newStoreNode(c *Cluster, id string) *storeNode {
	n := &storeNode{
		c: c, id: id,
		store: make(map[string][]Version),
		hints: make(map[string]map[string][]Version),
	}
	n.ep = rpc.NewEndpoint(c.net, id, c.cfg.CallTimeout)
	n.ep.Handle("sget", n.handleGet)
	n.ep.Handle("sput", n.handlePut)
	n.ep.Handle("srepair", n.handleRepair)
	n.ep.Handle("sync", n.handleSync)
	n.ep.Handle("mtree", n.handleMTree)
	n.ep.Handle("mpush", n.handleMPush)
	return n
}

// apply merges v into the key's sibling set, keeping only causally
// maximal versions.
func (n *storeNode) apply(key string, vs ...Version) {
	n.store[key] = mergeVersions(n.store[key], vs)
}

// mergeVersions returns the maximal (undominated) versions of old ∪ new,
// with exact duplicates collapsed.
func mergeVersions(old, add []Version) []Version {
	all := append(append([]Version(nil), old...), add...)
	var out []Version
	for i, v := range all {
		dominated := false
		for j, w := range all {
			if i == j {
				continue
			}
			switch v.Clock.Compare(w.Clock) {
			case vclock.Before:
				dominated = true
			case vclock.Equal:
				// Keep only the first of identical versions.
				if j < i {
					dominated = true
				}
			}
			if dominated {
				break
			}
		}
		if !dominated {
			out = append(out, v)
		}
	}
	return out
}

// sameVersions reports whether two sibling sets are causally identical.
func sameVersions(a, b []Version) bool {
	if len(a) != len(b) {
		return false
	}
	for _, v := range a {
		found := false
		for _, w := range b {
			if v.Clock.Compare(w.Clock) == vclock.Equal && v.Value == w.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (n *storeNode) handleGet(from string, req any, reply func(any)) {
	r := req.(sgetReq)
	reply(sgetResp{From: n.id, Versions: copyVersions(n.store[r.Key])})
}

func (n *storeNode) handlePut(from string, req any, reply func(any)) {
	r := req.(sputReq)
	n.apply(r.Key, r.Version)
	if r.HintFor != "" {
		// This write's proper home is down; remember to forward it.
		byKey := n.hints[r.HintFor]
		if byKey == nil {
			byKey = make(map[string][]Version)
			n.hints[r.HintFor] = byKey
		}
		byKey[r.Key] = mergeVersions(byKey[r.Key], []Version{r.Version})
		n.armHintFlush()
	}
	reply(ack{OK: true})
}

func (n *storeNode) handleRepair(from string, req any, reply func(any)) {
	r := req.(srepairReq)
	n.apply(r.Key, r.Versions...)
	reply(ack{OK: true})
}

func (n *storeNode) handleSync(from string, req any, reply func(any)) {
	r := req.(syncReq)
	for key, vs := range r.Store {
		n.c.M.SyncVersions.Addn(int64(len(vs)))
		n.apply(key, vs...)
	}
	snap := n.snapshot()
	for _, vs := range snap {
		n.c.M.SyncVersions.Addn(int64(len(vs)))
	}
	reply(syncResp{Store: snap})
}

// snapshot deep-copies the store for the wire (the simulator shares one
// address space; replicas must not alias each other's clocks).
func (n *storeNode) snapshot() map[string][]Version {
	out := make(map[string][]Version, len(n.store))
	for k, vs := range n.store {
		out[k] = copyVersions(vs)
	}
	return out
}

func copyVersions(vs []Version) []Version {
	out := make([]Version, len(vs))
	for i, v := range vs {
		out[i] = Version{Clock: v.Clock.Copy(), Value: v.Value}
	}
	return out
}

// coordinateGet runs the R-quorum read with read repair.
func (n *storeNode) coordinateGet(key string, done func([]Version, bool)) {
	prefs := n.c.ring.preferenceList(key, n.c.cfg.N, !n.c.cfg.StrictQuorum, n.c.net.IsUp)
	var replies []sgetResp
	quorumCall(n.ep, prefs, "sget",
		func(target) any { return sgetReq{Key: key} },
		n.c.cfg.R,
		func(resps []any, ok bool) {
			if !ok {
				done(nil, false)
				return
			}
			var merged []Version
			for _, r := range resps {
				sr := r.(sgetResp)
				replies = append(replies, sr)
				merged = mergeVersions(merged, sr.Versions)
			}
			// Read repair: push the merged truth back to any replica
			// that answered with less.
			for _, sr := range replies {
				if !sameVersions(sr.Versions, merged) {
					n.c.M.ReadRepairs.Inc()
					n.ep.Call(sr.From, "srepair", srepairReq{Key: key, Versions: copyVersions(merged)}, nil)
				}
			}
			done(copyVersions(merged), true)
		},
		func(t target, resp any) {
			// Straggler replies still get repaired via anti-entropy.
		})
}

// coordinatePut runs the W-quorum write, hinting sloppy substitutes.
func (n *storeNode) coordinatePut(key string, v Version, done func(bool)) {
	prefs := n.c.ring.preferenceList(key, n.c.cfg.N, !n.c.cfg.StrictQuorum, n.c.net.IsUp)
	for _, p := range prefs {
		if p.HintFor != "" {
			n.c.M.HintedWrites.Inc()
		}
	}
	quorumCall(n.ep, prefs, "sput",
		func(t target) any { return sputReq{Key: key, Version: v, HintFor: t.HintFor} },
		n.c.cfg.W,
		func(_ []any, ok bool) { done(ok) },
		nil)
}

// armHintFlush schedules hint delivery attempts while hints exist. After
// HintMaxTries unproductive polls the timer gives up and leaves the hints
// for anti-entropy, bounding the event load of a permanently dead home.
func (n *storeNode) armHintFlush() {
	if n.armed {
		return
	}
	n.armed = true
	n.hintTries = 0
	n.c.s.After(n.c.cfg.HintRetry, n.hintTick)
}

func (n *storeNode) hintTick() {
	n.armed = false
	before := len(n.hints)
	n.flushHints()
	if len(n.hints) == 0 {
		n.hintTries = 0
		return
	}
	if len(n.hints) < before {
		n.hintTries = 0 // progress; keep going
	} else {
		n.hintTries++
	}
	if n.hintTries < n.c.cfg.HintMaxTries {
		n.armed = true
		n.c.s.After(n.c.cfg.HintRetry, n.hintTick)
	}
}

// flushHints forwards stored hints to homes that are back up. Delivery is
// optimistic: the hint is dropped at send time, trusting the (loss-free by
// default) network; anti-entropy mops up anything that still slips.
func (n *storeNode) flushHints() {
	if n.ep.Crashed() {
		return
	}
	for home, byKey := range n.hints {
		if !n.c.net.IsUp(home) || !n.c.net.Reachable(n.id, home) {
			continue
		}
		for key, vs := range byKey {
			n.ep.Call(home, "srepair", srepairReq{Key: key, Versions: copyVersions(vs)}, nil)
			n.c.M.HintsFlushed.Inc()
		}
		delete(n.hints, home)
	}
}

// syncWith performs one pairwise anti-entropy exchange, whole-store or
// Merkle depending on configuration.
func (n *storeNode) syncWith(peer string) {
	n.c.M.AntiEntropy.Inc()
	if n.c.cfg.MerkleSync {
		n.syncWithMerkle(peer)
		return
	}
	n.ep.Call(peer, "sync", syncReq{Store: n.snapshot()}, func(resp any, ok bool) {
		if !ok {
			return
		}
		for key, vs := range resp.(syncResp).Store {
			n.apply(key, vs...)
		}
	})
}
