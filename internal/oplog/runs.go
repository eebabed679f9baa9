package oplog

import (
	"maps"
	"slices"
)

// runs holds a set's ingress-form IDs — those uniq.ParseID takes apart
// into the node that minted them and a sequence number — as each node's
// sorted runs of consecutive numbers. A replica mints its numbers one after
// another and gossip delivers them nearly in order, so a node's IDs are a
// handful of runs, sixteen bytes each, where the ID table would spend a
// slot on every one.
//
// A run only ever changes in place or is appended: a new number extends
// the run just below or just above it, or opens a run after its node's
// last. Anything else — a run between two others, or an origin or a run
// beyond the bounds below — is refused, and the caller keeps that ID in
// the table instead; so an update never shifts a run array, and input that
// never runs costs a bounded number of runs.
type runs struct {
	byNode map[string][]span // by origin, its runs in ascending order; a key is a substring of the arena
	n      int               // runs held, over every origin
}

// span is one run: the sequence numbers lo through hi.
type span struct{ lo, hi uint64 }

// The runs' bounds, set from the rows the set holds: a new origin is
// admitted while there are fewer than originFloor plus one per originShare
// rows, and a new run while there are fewer than runFloor plus one per
// runShare rows. An origin costs a map entry and a run array, some 70
// bytes, and a run 16: input whose IDs never run costs under a byte a row
// more than the ID table alone would. The engine's replicas open a
// run for about one ID in a hundred (a coordinated op's number arrives
// after later guesses'), well inside the bound.
const (
	originFloor = 16
	originShare = 256
	runFloor    = 256
	runShare    = 32
)

// has reports whether node's runs hold seq.
func (r *runs) has(node string, seq uint64) bool {
	sp := r.byNode[node]
	i := search(sp, seq)
	return i < len(sp) && sp[i].lo <= seq
}

// add records seq, which node's runs do not hold, if a run can take it,
// and reports whether one did. rows is the number of rows in the set. The
// runs keep node as a map key when it opens an origin, so it must be the
// arena's copy.
func (r *runs) add(node string, seq uint64, rows int) bool {
	sp, known := r.byNode[node]
	i := search(sp, seq)
	switch {
	case i > 0 && sp[i-1].hi+1 == seq:
		sp[i-1].hi = seq
	case i < len(sp) && sp[i].lo-1 == seq:
		sp[i].lo = seq
	case i < len(sp) || r.n >= runFloor+rows/runShare || !known && len(r.byNode) >= originFloor+rows/originShare:
		return false
	default:
		if r.byNode == nil {
			r.byNode = make(map[string][]span)
		}
		r.byNode[node] = append(sp, span{seq, seq})
		r.n++
	}
	return true
}

// search returns the position of the first run in sp that ends at or
// after seq, len(sp) when none does. Numbers mostly arrive in order, so
// the last run is tried first.
func search(sp []span, seq uint64) int {
	n := len(sp)
	if n == 0 || sp[n-1].hi < seq {
		return n
	}
	lo, hi := 0, n-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sp[m].hi < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (r *runs) clone() runs {
	c := runs{byNode: maps.Clone(r.byNode), n: r.n}
	for node, sp := range c.byNode {
		c.byNode[node] = slices.Clone(sp)
	}
	return c
}
