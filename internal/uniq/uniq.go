// Package uniq implements uniquifiers — the unique request identifiers the
// paper leans on throughout (§2.1, §5.4, §7.5).
//
// "The unique identifier of the work (the 'uniquifier') has two very
// important roles: it provides the key for partitioning the work in a
// scalable system, and it allows the system to recognize multiple
// executions of the same request" (§5.4). This package provides the two
// generation strategies the paper names — an ID assigned at ingress, and
// the "MD5 hash of the entire incoming request" trick (§2.1) — plus the
// dedup filter that turns at-least-once delivery into exactly-once
// business effect.
package uniq

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// ID is a uniquifier. IDs compare equal exactly when they identify the
// same logical request.
type ID string

// Gen assigns sequential ingress IDs scoped to one node, of the form
// "node-000042". The node prefix keeps IDs unique across replicas without
// coordination, exactly as the paper prescribes: the ID is "assigned at
// the ingress to the system (i.e. whichever replica first handles the
// work)". Gens are safe for concurrent use.
//
// An ID is a function of the node and a sequence number, so the two
// halves of Next can be taken apart: Take reserves a number, and ID — or
// AppendID, wherever the bytes are to live — renders it later. A reserved
// number is never handed out again.
type Gen struct {
	node string
	seq  uint64
}

// NewGen returns a generator scoped to node.
func NewGen(node string) *Gen { return &Gen{node: node} }

// NewGenAfter returns a generator scoped to node whose first ID follows
// sequence number seq — how a restarted node resumes above every number
// an earlier life of it could have used.
func NewGenAfter(node string, seq uint64) *Gen { return &Gen{node: node, seq: seq} }

// Next returns a fresh ID: one allocation, the string itself.
func (g *Gen) Next() ID { return g.ID(g.Take()) }

// Take reserves the next sequence number without rendering its ID.
func (g *Gen) Take() uint64 { return atomic.AddUint64(&g.seq, 1) }

// ID renders the ID of sequence number seq, as Next would have.
func (g *Gen) ID(seq uint64) ID {
	var buf [32]byte
	return ID(AppendID(buf[:0], g.node, seq))
}

// Node reports the node the generator is scoped to.
func (g *Gen) Node() string { return g.node }

// Count reports the sequence number of the last ID issued — how many IDs
// the generator has issued, when it started at zero.
func (g *Gen) Count() uint64 { return atomic.LoadUint64(&g.seq) }

// AppendID appends the ingress ID of sequence number seq at node to dst
// and returns the extended slice. The format is exactly
// fmt.Sprintf("%s-%06d", node, seq), built by hand because it sits on the
// ingest hot path: it allocates nothing beyond what dst has to grow.
func AppendID(dst []byte, node string, seq uint64) []byte {
	var tmp [20]byte
	digits := strconv.AppendUint(tmp[:0], seq, 10)
	dst = append(dst, node...)
	dst = append(dst, '-')
	for z := 6 - len(digits); z > 0; z-- {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// ParseID is the inverse of AppendID: it reports the node and sequence
// number AppendID renders as id, and ok false when there are none. The
// node is everything before the last '-'; what follows must be at least
// six decimal digits, zero-padded to six and no further, and fit a
// uint64. So an ID an ingress minted parses, to the one pair that renders
// it, and no other ID does — a client's, a content hash, a number padded
// some other way. It allocates nothing.
func ParseID(id string) (node string, seq uint64, ok bool) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return "", 0, false
	}
	digits := id[i+1:]
	if len(digits) < 6 || len(digits) > 6 && digits[0] == '0' {
		return "", 0, false
	}
	for j := 0; j < len(digits); j++ {
		d := uint64(digits[j] - '0')
		if d > 9 || seq > (math.MaxUint64-d)/10 {
			return "", 0, false
		}
		seq = seq*10 + d
	}
	return id[:i], seq, true
}

// ContentID derives an ID from the request body itself — the MD5 trick of
// §2.1. Retries of a byte-identical request map to the same ID, making the
// uniquifier "functionally dependent only on the request as seen by the
// server" (§5.4 footnote), with no client cooperation needed.
func ContentID(request []byte) ID {
	sum := md5.Sum(request)
	return ID(hex.EncodeToString(sum[:]))
}

// CheckNumber builds the banking uniquifier of §6.2: bank-id +
// account-number + check-number "provide a unique identifier" that
// predates computers.
func CheckNumber(bank, account string, number int) ID {
	return ID(fmt.Sprintf("%s/%s/chk-%06d", bank, account, number))
}

// Dedup is a set of already-seen IDs: the mechanism that lets a replica
// "detect that it has already seen that operation and, hence, not do the
// work twice" (§5.4). The zero value is not usable; construct with
// NewDedup.
type Dedup struct {
	seen map[ID]struct{}
}

// NewDedup returns an empty filter.
func NewDedup() *Dedup { return &Dedup{seen: make(map[ID]struct{})} }

// Record marks id as seen. It reports true if the id was new (the caller
// should perform the work) and false on a duplicate (the caller should
// suppress it).
func (d *Dedup) Record(id ID) bool {
	if _, ok := d.seen[id]; ok {
		return false
	}
	d.seen[id] = struct{}{}
	return true
}

// Len reports how many distinct IDs have been recorded.
func (d *Dedup) Len() int { return len(d.seen) }
