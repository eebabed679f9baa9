package oplog

import (
	"maps"
	"slices"
)

// runs holds a set's ingress-form IDs — those uniq.ParseID takes apart
// into the node that minted them and a sequence number — as each node's
// sorted runs of consecutive numbers. A replica, or an SDK session, mints
// its numbers one after another and they arrive nearly in order, so a
// node's IDs are a handful of runs, sixteen bytes each, where the ID table
// would spend a slot on every one.
//
// A node's runs are sorted, disjoint and never adjacent. A new number
// extends the run just below or just above it in place. One that closes
// the gap between two runs joins them into one, and one beside neither
// opens a run of its own where it sorts, but both only among the node's
// last runWindow runs: so callers that share a session and overtake one
// another by a few numbers leave one run once the stragglers land, and no
// update moves more than runWindow runs, whatever order hostile input
// takes. A number that would join or open a run below the window, and an
// origin or a run beyond the bounds below, is refused, and the caller
// keeps that ID in the table instead; so input that never runs costs a
// bounded number of runs.
//
// Each origin a run admits gets the next ordinal, and keeps it: a sealed
// block names a held ID by its origin's ordinal and its number.
type runs struct {
	byNode  map[string]origin // by origin name, a string of the set's kept arena
	origins []string          // the origin names by ordinal: append-only
	n       int               // runs held, over every origin
}

// origin is one origin's ordinal and its runs in ascending order.
type origin struct {
	ord   uint32
	spans []span
}

// span is one run: the sequence numbers lo through hi.
type span struct{ lo, hi uint64 }

// runWindow is how far from its node's last run a number may open a run
// or join two: at most this many runs move to make room for it or to
// close up behind it.
const runWindow = 64

// The runs' bounds, set from the rows the set holds: a new origin is
// admitted while there are fewer than originFloor plus one per originShare
// rows, and a new run while there are fewer than runFloor plus one per
// runShare rows. An origin costs a map entry, a run array, its name in
// the kept arena and its place in the origin list, some 90 bytes, and a
// run 16: input whose IDs never run costs under a byte a row
// more than the ID table alone would. The engine's replicas open a
// run for about one ID in a hundred (a coordinated op's number arrives
// after later guesses'), and it merges away when that number lands.
const (
	originFloor = 16
	originShare = 256
	runFloor    = 256
	runShare    = 32
)

// has reports whether node's runs hold seq.
func (r *runs) has(node string, seq uint64) bool {
	sp := r.byNode[node].spans
	i := search(sp, seq)
	return i < len(sp) && sp[i].lo <= seq
}

// add records seq, which node's runs do not hold, if a run can take it,
// and reports whether one did. rows is the number of rows in the set. An
// origin the runs admit is written to a, the set's kept arena, and the
// runs keep that copy, so node may be the caller's.
func (r *runs) add(a *arena, node string, seq uint64, rows int) bool {
	o, known := r.byNode[node]
	if known {
		// Storing under the caller's string would replace the map's key
		// with it, and keep alive whatever it was cut from.
		node = r.origins[o.ord]
	}
	sp := o.spans
	i := search(sp, seq)
	below, above := i > 0 && sp[i-1].hi+1 == seq, i < len(sp) && sp[i].lo-1 == seq
	switch {
	case below && !above:
		sp[i-1].hi = seq
		return true
	case above && !below:
		sp[i].lo = seq
		return true
	case len(sp)-i > runWindow:
		return false
	case below: // and above: the gap closes, and the two runs become one
		sp[i-1].hi = sp[i].hi
		o.spans = slices.Delete(sp, i, i+1)
		r.n--
	case r.n >= runFloor+rows/runShare || !known && len(r.byNode) >= originFloor+rows/originShare:
		return false
	default:
		if !known {
			if r.byNode == nil {
				r.byNode = make(map[string]origin)
			}
			node = a.id(a.put(node))
			o.ord = uint32(len(r.origins))
			r.origins = append(r.origins, node)
		}
		o.spans = slices.Insert(sp, i, span{seq, seq})
		r.n++
	}
	r.byNode[node] = o
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
	c := runs{byNode: maps.Clone(r.byNode), origins: slices.Clone(r.origins), n: r.n}
	for node, o := range c.byNode {
		o.spans = slices.Clone(o.spans)
		c.byNode[node] = o
	}
	return c
}
