package oplog

import (
	"math/bits"
	"sort"
	"time"
)

// block is a sealed row chunk: rowChunk rows in canonical order, the first
// kept whole, for search, and each other one as the deltas of its fields
// from the row before it — Lam unsigned, since it never falls in canonical
// order, and At, Arg and the two arena handles zigzag, since they may. In
// canonical order the deltas are small, so a row packs into a few bytes
// where the tail spends 32 on it. A block is written once and never
// changed: sets copied from one another share it.
type block struct {
	first row
	data  []byte // the deltas of rows 1 through rowChunk-1
}

// hotChunks is how many full chunks of the newest rows the tail keeps
// unsealed beside its open chunk. Late gossip lands near the end of the
// canonical order, so it finds its place in the tail and moves no sealed
// row; one landing below the tail thaws blocks first (see thaw).
const hotChunks = 2

// sealed reports how many rows the blocks hold: the tail's first row is at
// that position.
func (s *Set) sealed() int { return len(s.blocks) << rowBits }

// seal packs the tail's oldest full chunk into a block while the tail holds
// more than hotChunks full chunks, so that a set with blocks always keeps
// at least hotChunks chunks of rows in its tail. The emptied chunk's array
// becomes the tail's next chunk, unless one waits there already.
func (s *Set) seal() {
	for s.n-s.sealed() >= (hotChunks+1)*rowChunk {
		ch := s.rows[0]
		s.blocks = append(s.blocks, pack(ch))
		last := len(s.rows) - 1
		copy(s.rows, s.rows[1:])
		if len(s.rows[last-1]) == 0 {
			s.rows[last] = nil
			s.rows = s.rows[:last]
		} else {
			s.rows[last] = ch[:0]
		}
	}
}

// pack encodes a full chunk as a block of exactly the bytes it needs: the
// deltas are sized first, then written into one allocation.
func pack(ch []row) block {
	size := 0
	for k := 1; k < len(ch); k++ {
		size += deltaSize(&ch[k-1], &ch[k])
	}
	data := make([]byte, 0, size)
	for k := 1; k < len(ch); k++ {
		data = appendDelta(data, &ch[k-1], &ch[k])
	}
	return block{first: ch[0], data: data}
}

// appendDelta appends r's fields as deltas from p's, the row before it in
// canonical order, each a uvarint: Lam's as it is, and the others zigzag,
// so that a small fall costs as few bytes as a small rise. A signed delta
// may wrap; rowReader.next wraps it back.
func appendDelta(b []byte, p, r *row) []byte {
	b = appendUvarint(b, r.lam-p.lam)
	b = appendUvarint(b, zig(int64(r.at-p.at)))
	b = appendUvarint(b, zig(r.arg-p.arg))
	b = appendUvarint(b, zig(int64(r.ref)-int64(p.ref)))
	return appendUvarint(b, zig(int64(r.pay)-int64(p.pay)))
}

// deltaSize is the length of what appendDelta appends.
func deltaSize(p, r *row) int {
	return uvarintLen(r.lam-p.lam) + uvarintLen(zig(int64(r.at-p.at))) + uvarintLen(zig(r.arg-p.arg)) +
		uvarintLen(zig(int64(r.ref)-int64(p.ref))) + uvarintLen(zig(int64(r.pay)-int64(p.pay)))
}

func appendUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zig is the zigzag encoding: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
func zig(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// rowReader reads a block's rows in order: r is the row last read, and the
// deltas of the next one start at data[off].
type rowReader struct {
	r    row
	data []byte
	off  int
}

// open starts a rowReader at b's first row.
func (b *block) open() rowReader { return rowReader{r: b.first, data: b.data} }

// next decodes the row after r into r.
func (d *rowReader) next() {
	var v [5]uint64
	data, k := d.data, d.off
	for f := range v {
		x := uint64(data[k])
		k++
		// While the byte last added has its high bit set, another follows.
		for shift := 7; shift < 64 && x >= 1<<shift; shift += 7 {
			x += uint64(data[k])<<shift - 1<<shift
			k++
		}
		v[f] = x
	}
	d.off = k
	d.r.lam += v[0]
	d.r.at += time.Duration(unzig(v[1]))
	d.r.arg += unzig(v[2])
	d.r.ref = uint32(int64(d.r.ref) + unzig(v[3]))
	d.r.pay = uint32(int64(d.r.pay) + unzig(v[4]))
}

// unzig undoes zig.
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// unpack decodes a block back into a full chunk.
func unpack(b *block) []row {
	ch := make([]row, rowChunk)
	d := b.open()
	ch[0] = d.r
	for k := 1; k < rowChunk; k++ {
		d.next()
		ch[k] = d.r
	}
	return ch
}

// thaw makes room in the tail for r, which sorts below the tail's first
// row: it decodes every block from the one r's place falls in through the
// last back into tail chunks, and drops those blocks. Settle then merges r
// as it would any row, and sealing packs the chunks again — into new
// blocks, so a set copied before the thaw keeps the old ones unchanged.
func (s *Set) thaw(r row) {
	b := sort.Search(len(s.blocks), func(k int) bool { return s.cmp(r, s.blocks[k].first) < 0 })
	from := max(b-1, 0)
	chunks := make([][]row, 0, len(s.blocks)-from+len(s.rows))
	for k := range s.blocks[from:] {
		chunks = append(chunks, unpack(&s.blocks[from+k]))
	}
	s.rows = append(chunks, s.rows...)
	clear(s.blocks[from:])
	s.blocks = s.blocks[:from]
}

// Cursor walks a set in canonical order from a position, decoding each
// sealed block it crosses once —
//
//	var e Entry
//	for c := s.Cursor(s.Start(w)); c.Next(&e); {
//		...
//	}
//
// — without allocating. It is a value with a method, not a range-over-func
// iterator, on purpose: an iterator's loop body is a closure, and whether
// that stays on the stack is decided anew in every generic instantiation
// ranging over it (it did not in quicksandd's fold). A cursor holds only
// while the set does not change: the walk is for a caller holding whatever
// lock guards the set for as long as it walks.
type Cursor struct {
	s *Set
	i int       // the position Next reads
	d rowReader // inside a block, past its first row: at the row at i-1
}

// Cursor returns a cursor whose first Next reads position i, 0 <= i <=
// Len(). Starting inside a block decodes that block up to i.
func (s *Set) Cursor(i int) Cursor {
	c := Cursor{s: s, i: i}
	if i < s.sealed() && i&rowMask != 0 {
		c.d = s.blocks[i>>rowBits].open()
		for range i&rowMask - 1 {
			c.d.next()
		}
	}
	return c
}

// Next reads the entry at the cursor's position into e and moves past it,
// or reports false at the end of the set, leaving e as it was. Filling the
// caller's entry in place spares a walk a copy of every entry.
func (c *Cursor) Next(e *Entry) bool {
	s := c.s
	r := &c.d.r
	switch {
	case c.i >= s.n:
		return false
	case c.i >= s.sealed():
		r = s.row(c.i)
	case c.i&rowMask == 0:
		c.d = s.blocks[c.i>>rowBits].open()
	default:
		c.d.next()
	}
	c.i++
	s.arena.fill(e, r)
	return true
}
