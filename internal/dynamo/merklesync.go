package dynamo

import (
	"sort"
	"strings"

	"repro/internal/merkle"
)

// Merkle anti-entropy wire messages.
type (
	mtreeReq  struct{ Tree *merkle.Tree }
	mtreeResp struct {
		Diff     []int // divergent leaf indexes, per the responder's walk
		Compared int   // digests the responder examined
		Store    map[string][]Version
	}
	mpushReq struct{ Store map[string][]Version }
)

// versionDigest serializes a key's sibling set deterministically; two
// replicas with causally identical sets produce identical digests.
func versionDigest(vs []Version) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.Clock.String() + "=" + v.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// merkleTree summarizes the node's whole store.
func (n *storeNode) merkleTree() *merkle.Tree {
	items := make(map[string]string, len(n.store))
	for k, vs := range n.store {
		items[k] = versionDigest(vs)
	}
	return merkle.Build(n.c.cfg.MerkleDepth, items)
}

// leafStore returns a deep copy of this node's versions for every key
// living in one of the given leaves.
func (n *storeNode) leafStore(leaves []int) map[string][]Version {
	want := make(map[int]bool, len(leaves))
	for _, l := range leaves {
		want[l] = true
	}
	out := map[string][]Version{}
	for k, vs := range n.store {
		if want[merkle.LeafIndex(n.c.cfg.MerkleDepth, k)] {
			out[k] = copyVersions(vs)
		}
	}
	return out
}

// syncWithMerkle performs one Merkle anti-entropy exchange: ship the
// tree, learn which leaves diverge, swap only those leaves' versions.
func (n *storeNode) syncWithMerkle(peer string) {
	tree := n.merkleTree()
	n.ep.Call(peer, "mtree", mtreeReq{Tree: tree}, func(resp any, ok bool) {
		if !ok {
			return
		}
		r := resp.(mtreeResp)
		n.c.M.SyncDigests.Addn(int64(r.Compared))
		for key, vs := range r.Store {
			n.c.M.SyncVersions.Addn(int64(len(vs)))
			n.apply(key, vs...)
		}
		if len(r.Diff) == 0 {
			return
		}
		// Reverse direction: hand the peer this node's copy of the
		// divergent leaves.
		mine := n.leafStore(r.Diff)
		for _, vs := range mine {
			n.c.M.SyncVersions.Addn(int64(len(vs)))
		}
		n.ep.Call(peer, "mpush", mpushReq{Store: mine}, nil)
	})
}

func (n *storeNode) handleMTree(from string, req any, reply func(any)) {
	r := req.(mtreeReq)
	mine := n.merkleTree()
	diff, compared := merkle.DiffLeaves(mine, r.Tree)
	reply(mtreeResp{Diff: diff, Compared: compared, Store: n.leafStore(diff)})
}

func (n *storeNode) handleMPush(from string, req any, reply func(any)) {
	r := req.(mpushReq)
	for key, vs := range r.Store {
		n.apply(key, vs...)
	}
	reply(ack{OK: true})
}
