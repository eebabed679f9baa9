// Package merkle implements the hash trees Dynamo uses for anti-entropy
// (Dynamo paper §4.7): replicas compare compact trees of hashes and
// transfer only the key ranges that actually differ, instead of shipping
// whole stores.
//
// The tree is a fixed-depth binary tree over the 64-bit key-hash space.
// Each leaf covers a contiguous slice of that space; its hash summarizes
// every key/value-digest pair that falls in the slice. Two replicas whose
// roots match are provably (modulo hash collisions) in sync; when roots
// differ, descending the tree pinpoints the divergent leaves.
package merkle

import (
	"crypto/md5"
	"fmt"
	"hash/fnv"
	"sort"
)

// Digest is a node or item hash.
type Digest [md5.Size]byte

// zeroDigest marks an empty leaf.
var zeroDigest Digest

// keyHash positions a key in the 64-bit ring space (mixed, like the
// dynamo ring, so similar keys spread).
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// LeafIndex returns the leaf (of 2^depth) that key belongs to.
func LeafIndex(depth int, key string) int {
	return int(keyHash(key) >> (64 - uint(depth)))
}

// Tree is a Merkle tree over a key→value-digest map. Construct with Build.
type Tree struct {
	depth int
	nodes []Digest // heap layout: nodes[1] is the root, nodes[n+i] leaf i
}

// Build constructs a tree of the given depth (1..16) over items, where
// each value is the application-level content to summarize (for a Dynamo
// store: a serialization of the key's version set).
func Build(depth int, items map[string]string) *Tree {
	if depth < 1 || depth > 16 {
		panic(fmt.Sprintf("merkle: depth %d out of range [1,16]", depth))
	}
	n := 1 << uint(depth)
	// Gather the per-leaf membership, sorted for determinism.
	type kv struct{ k, v string }
	byLeaf := make([][]kv, n)
	for k, v := range items {
		i := LeafIndex(depth, k)
		byLeaf[i] = append(byLeaf[i], kv{k, v})
	}
	t := &Tree{depth: depth, nodes: make([]Digest, 2*n)}
	for i, members := range byLeaf {
		if len(members) == 0 {
			continue // zero digest
		}
		sort.Slice(members, func(a, b int) bool { return members[a].k < members[b].k })
		h := md5.New()
		for _, m := range members {
			h.Write([]byte(m.k))
			h.Write([]byte{0})
			h.Write([]byte(m.v))
			h.Write([]byte{0})
		}
		copy(t.nodes[n+i][:], h.Sum(nil))
	}
	// Internal nodes: nodes[j] = H(nodes[2j], nodes[2j+1]).
	for j := n - 1; j >= 1; j-- {
		left, right := t.nodes[2*j], t.nodes[2*j+1]
		if left == zeroDigest && right == zeroDigest {
			continue // empty subtree stays zero
		}
		h := md5.New()
		h.Write(left[:])
		h.Write(right[:])
		copy(t.nodes[j][:], h.Sum(nil))
	}
	return t
}

// Root returns the root digest; equal roots mean equal contents.
func (t *Tree) Root() Digest { return t.nodes[1] }

// DiffLeaves compares two trees of equal depth and returns the indexes of
// leaves that differ, walking the tree so matching subtrees are skipped.
// It also reports how many node digests were examined — the "bytes on the
// wire" a real exchange would pay.
func DiffLeaves(a, b *Tree) (diff []int, nodesCompared int) {
	if a.depth != b.depth {
		panic("merkle: comparing trees of different depth")
	}
	n := 1 << uint(a.depth)
	var walk func(j int)
	walk = func(j int) {
		nodesCompared++
		if a.nodes[j] == b.nodes[j] {
			return
		}
		if j >= n { // leaf
			diff = append(diff, j-n)
			return
		}
		walk(2 * j)
		walk(2*j + 1)
	}
	walk(1)
	return diff, nodesCompared
}
