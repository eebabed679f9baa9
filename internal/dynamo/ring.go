package dynamo

import (
	"repro/internal/shard"
)

// ring adapts the shared consistent-hash ring (internal/shard, lifted
// from this package so the replication engine can route keys to shards
// with the same structure) to Dynamo's preference-list semantics: data
// carved into uniquely keyed chunks that live on one node at a time
// (Helland & Campbell §2.3, Dynamo §4.2).
type ring struct {
	r *shard.Ring[string]
}

func newRing(nodes []string, vnodes int) *ring {
	return &ring{r: shard.NewRing(nodes, vnodes)}
}

// walk visits distinct physical nodes clockwise from key's hash position
// until fn returns false.
func (r *ring) walk(key string, fn func(string) bool) { r.r.Walk(key, fn) }

// preferenceList returns the first n distinct nodes for key. When sloppy
// is true, nodes reported down by isUp are skipped and substituted by the
// next nodes on the ring (each substitute paired with the down node it
// stands in for — the hinted-handoff "intended recipient"). When sloppy is
// false the list is the strict top-N, dead or alive.
func (r *ring) preferenceList(key string, n int, sloppy bool, isUp func(string) bool) []target {
	var prefs []target
	var substitutesFor []string
	r.walk(key, func(node string) bool {
		if !sloppy {
			prefs = append(prefs, target{Node: node})
			return len(prefs) < n
		}
		if isUp(node) {
			t := target{Node: node}
			if len(substitutesFor) > 0 {
				t.HintFor = substitutesFor[0]
				substitutesFor = substitutesFor[1:]
			}
			prefs = append(prefs, t)
			return len(prefs) < n
		}
		// Down: remember that a later node must carry its hint.
		substitutesFor = append(substitutesFor, node)
		return true
	})
	return prefs
}

// target is one destination for a read or write: the node to contact and,
// for sloppy writes, the down node it is substituting for.
type target struct {
	Node    string
	HintFor string // zero when writing to the proper home
}
