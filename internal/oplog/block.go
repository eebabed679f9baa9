package oplog

import (
	"bytes"
	"encoding/binary"
	"sort"
	"sync"
	"time"
	"unsafe"
	"weak"

	"repro/internal/uniq"
)

// block is a sealed row chunk: rowChunk rows in canonical order, the first
// kept whole, for search, and each other one as the deltas of its fields
// from the row before it, each a uvarint: Lam's as it is, since it never
// falls in canonical order, and At's, Arg's and the payload handle's
// zigzag, so that a small fall costs as few bytes as a small rise. In
// canonical order the deltas are small, so a row packs into a few bytes
// where the tail spends 32 on it.
//
// A row's ID is one uvarint, its ID word, between Arg's delta and the
// payload's. An even word is an ID in the kept arena: the word's upper
// bits are its handle's zigzag delta from the later of the block's
// previous such handle and the row's own payload handle, since an ID and
// a payload new with it are written side by side. An odd word is an ID
// the runs hold, whose bytes live nowhere: a read renders them
// (uniq.AppendID) from its origin's ordinal (see runs) and its number.
// The number is kept as its gap from the block's previous held number in
// the same lane — the lane is the ordinal modulo lanes, so that a
// replica's numbers, consecutive in canonical order, leave gaps of 0 —
// zigzag, as gap = number - previous - 1. The word's bits 1-3 are the
// ordinal and bits 4-6 the gap, each saturating at 7: a field that does
// not fit is written 7 there, and its excess a uvarint after the
// payload's delta, the ordinal's first. So a replica's row spends one
// byte of its block on its ID, where in the tail it spends a 12-byte
// record of the ids arena.
//
// A block is written once and never changed but for the rendering of its
// IDs, which only caches them: sets copied from one another share it.
type block struct {
	first   row        // its ID's record in the kept arena
	data    []byte     // the deltas of rows 1 through rowChunk-1
	idBytes int        // the length of rows 1 on's held IDs, rendered one after another
	ids     *rendering // those IDs once a walk has rendered them all; nil when there are none
}

// rendering is a block's held IDs, rendered one after another by a walk
// that crossed the whole block, and held weakly: while anything else
// references them — an entry read from them — or the collector has not
// run since, a walk entering the block again reads them and renders
// nothing, and they cost the set nothing once the collector frees them.
// Sets that share the block share it.
type rendering struct {
	mu sync.Mutex
	p  weak.Pointer[byte]
}

// load returns the rendering's first byte, nil when there is none.
func (r *rendering) load() *byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.p.Value()
}

// store keeps ids, a block's whole rendering, weakly.
func (r *rendering) store(ids []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.p = weak.Make(&ids[0])
}

// lanes is how many lanes a block's held numbers are kept in, and 1 more
// than the largest ordinal or gap an ID word holds itself.
const lanes = 8

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
// becomes the tail's next chunk, unless one waits there already. The ids
// chunks that only sealed rows read are then retired.
func (s *Set) seal() {
	if s.n-s.sealed() < (hotChunks+1)*rowChunk {
		return
	}
	for s.n-s.sealed() >= (hotChunks+1)*rowChunk {
		ch := s.rows[0]
		s.blocks = append(s.blocks, s.pack(ch))
		last := len(s.rows) - 1
		copy(s.rows, s.rows[1:])
		if len(s.rows[last-1]) == 0 {
			s.rows[last] = nil
			s.rows = s.rows[:last]
		} else {
			s.rows[last] = ch[:0]
		}
	}
	s.retire()
}

// retire writes out to ids the ID of each thawed row the tail kept, and
// drops the thaw's records. It then retires every ids chunk no tail row
// reads: no block reads the ids arena, so nothing reads those chunks
// again, and their slots take its next chunks. So the ids arena holds the
// tail's IDs, not every ID it was ever given.
func (s *Set) retire() {
	var used slotSet
	var buf [64]byte
	for _, ch := range s.rows {
		for k := range ch {
			r := &ch[k]
			if !isHeld(r.ref) {
				continue
			}
			if ord, seq, ok := s.thawed(r.ref); ok {
				r.ref = idsBase + s.ids.putMinted(uniq.AppendID(buf[:0], s.runs.origins[ord], seq))
			}
			used.add(int((r.ref - idsBase) >> chunkBits))
		}
	}
	s.ids.retire(&used)
	if len(s.thaws.chunks) > 0 {
		s.thaws = arena{slots: thawSlots}
	}
}

// thawed reads a held ref's record if it is a thawed row's. A row thaw
// decodes keeps its held ID as a record in the thaws arena of its origin's
// ordinal and its number, uvarints: there is no ID to render. Sealing
// packs it from them; one the tail keeps is written out as an ID record
// before the set is read (see retire). Until then only cmp reads it, and
// renders it on the stack.
func (s *Set) thawed(ref uint32) (ord uint32, seq uint64, ok bool) {
	if ref < thawBase {
		return 0, 0, false
	}
	rec := s.thaws.at(ref - thawBase)
	o, k := uvarint(rec, 0)
	seq, _ = uvarint(rec, k)
	return uint32(o), seq, true
}

// pack encodes a full chunk as a block of exactly the bytes it needs: it
// encodes into a scratch on the stack, which a block of the usual size
// fits, and copies that out. A held ID of the first row is copied into
// the kept arena, where a search compares it.
func (s *Set) pack(ch []row) block {
	first := ch[0]
	if isHeld(first.ref) {
		var buf [64]byte
		first.ref = s.arena.putMinted(s.appendID(buf[:0], first.ref))
	}
	var scratch [packScratch]byte
	data := scratch[:0]
	enc := encoder{s: s, ref: first.ref}
	for k := 1; k < len(ch); k++ {
		data = enc.append(data, &ch[k-1], &ch[k])
	}
	b := block{first: first, data: bytes.Clone(data), idBytes: enc.idBytes}
	if b.idBytes > 0 {
		b.ids = new(rendering)
	}
	return b
}

// packScratch is the size of pack's scratch: a dozen bytes a row, twice
// what a block of replica-minted rows spends.
const packScratch = 12 * rowChunk

// encoder writes a block's rows after the first, carrying from row to row
// what rowReader carries: the last kept ID handle and each lane's last
// held number.
type encoder struct {
	s       *Set
	ref     uint32
	last    [lanes]uint64
	idBytes int // the length of the held IDs encoded so far
}

// heldID takes apart the held ID of the tail row whose record is at ref,
// and returns its length.
func (c *encoder) heldID(ref uint32) (ord uint32, seq uint64, n int) {
	if ord, seq, ok := c.s.thawed(ref); ok {
		return ord, seq, idLen(c.s.runs.origins[ord], seq)
	}
	id := c.s.ids.id(ref - idsBase)
	node, seq, _ := uniq.ParseID(id)
	return c.s.runs.byNode[node].ord, seq, len(id)
}

// idLen is the length of the ID uniq.AppendID renders for node and seq.
func idLen(node string, seq uint64) int {
	n := 6
	for x := seq / 1_000_000; x > 0; x /= 10 {
		n++
	}
	return len(node) + 1 + n
}

// append appends r's fields as deltas from p's, the row before it in
// canonical order.
func (c *encoder) append(b []byte, p, r *row) []byte {
	b = appendUvarint(b, r.lam-p.lam)
	b = appendUvarint(b, zig(int64(r.at-p.at)))
	b = appendUvarint(b, zig(r.arg-p.arg))
	if !isHeld(r.ref) {
		b = appendUvarint(b, zig(int64(r.ref)-int64(max(c.ref, r.pay)))<<1)
		c.ref = r.ref
		return appendUvarint(b, zig(int64(r.pay)-int64(p.pay)))
	}
	o, seq, n := c.heldID(r.ref)
	ord := uint64(o)
	gap := zig(int64(seq - c.last[ord%lanes] - 1))
	c.last[ord%lanes], c.idBytes = seq, c.idBytes+n
	b = append(b, byte(1|min(ord, lanes-1)<<1|min(gap, lanes-1)<<4))
	b = appendUvarint(b, zig(int64(r.pay)-int64(p.pay)))
	if ord >= lanes-1 {
		b = appendUvarint(b, ord-(lanes-1))
	}
	if gap >= lanes-1 {
		b = appendUvarint(b, gap-(lanes-1))
	}
	return b
}

func appendUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// zig is the zigzag encoding: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
// A signed delta may wrap; rowReader.next wraps it back.
func zig(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// rowReader reads a block's rows in order: r is the row last read, and the
// deltas of the next one start at data[off]. When held, r's ID is origin
// ord's number seq, and r.ref is the handle of the last row read whose ID
// is in the kept arena, which the next such row's delta is from (see
// block).
type rowReader struct {
	r    row
	held bool
	ord  uint32
	seq  uint64
	last [lanes]uint64 // each lane's last held number
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
	d.r.lam += v[0]
	d.r.at += time.Duration(unzig(v[1]))
	d.r.arg += unzig(v[2])
	d.r.pay = uint32(int64(d.r.pay) + unzig(v[4]))
	w := v[3]
	if d.held = w&1 != 0; !d.held {
		d.r.ref = uint32(int64(max(d.r.ref, d.r.pay)) + unzig(w>>1))
		d.off = k
		return
	}
	ord, gap := w>>1&(lanes-1), w>>4
	if ord == lanes-1 {
		var x uint64
		x, k = uvarint(data, k)
		ord += x
	}
	if gap == lanes-1 {
		var x uint64
		x, k = uvarint(data, k)
		gap += x
	}
	d.off = k
	lane := &d.last[ord%lanes]
	*lane += 1 + uint64(unzig(gap))
	d.ord, d.seq = uint32(ord), *lane
}

// uvarint reads the uvarint at data[k] and returns it and the offset past
// it.
func uvarint[T ~string | ~[]byte](data T, k int) (uint64, int) {
	x := uint64(data[k])
	k++
	// While the byte last added has its high bit set, another follows.
	for shift := 7; shift < 64 && x >= 1<<shift; shift += 7 {
		x += uint64(data[k])<<shift - 1<<shift
		k++
	}
	return x, k
}

// unzig undoes zig.
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// renderID appends the held ID of the row d last read to b.
func (d *rowReader) renderID(s *Set, b []byte) []byte {
	return uniq.AppendID(b, s.runs.origins[d.ord], d.seq)
}

// unpack decodes a block back into a full chunk, each held ID a thawed
// row's record in the thaws arena. The records are encoded on the stack,
// thawGroup rows' at a time, and each group written at once.
func (s *Set) unpack(b *block) []row {
	ch := make([]row, rowChunk)
	d := b.open()
	ch[0] = d.r
	var buf [thawGroup * maxThawedBytes]byte
	recs, from := buf[:0], 1
	for k := 1; k < rowChunk; k++ {
		d.next()
		ch[k] = d.r
		if d.held {
			ch[k].ref = thawBase + uint32(len(recs)) // its offset in the group, until the group is written
			recs = appendUvarint(appendUvarint(recs, uint64(d.ord)), d.seq)
		}
		if len(recs) > len(buf)-maxThawedBytes || k == rowChunk-1 && len(recs) > 0 {
			h := s.thaws.putRaw(recs)
			for j := from; j <= k; j++ {
				if ch[j].ref >= thawBase {
					ch[j].ref += h
				}
			}
			recs, from = recs[:0], k+1
		}
	}
	return ch
}

// A thawed row's record is at most maxThawedBytes long: an ordinal and a
// number. unpack encodes thawGroup rows' records at a time.
const (
	maxThawedBytes = binary.MaxVarintLen32 + binary.MaxVarintLen64
	thawGroup      = 256
)

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
		chunks = append(chunks, s.unpack(&s.blocks[from+k]))
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
// — and rendering the held IDs of each block it enters into one buffer,
// sized for them all, each entry's ID a substring of it: an allocation
// for the buffer, and one for the weak pointer that keeps it for the next
// walk (see rendering), which reads it and allocates nothing. The tail
// costs no allocation. It is a value with a method, not a range-over-func
// iterator, on purpose: an iterator's loop body is a closure, and whether
// that stays on the stack is decided anew in every generic instantiation
// ranging over it (it did not in quicksandd's fold). A cursor holds only
// while the set does not change: the walk is for a caller holding
// whatever lock guards the set for as long as it walks.
type Cursor struct {
	s    *Set
	i    int       // the position Next reads
	tail *row      // the row last read when it is a tail row, else nil: then it is d.r
	d    rowReader // inside a block, past its first row: at the row at i-1
	b    *block    // the block it is in
	ids  []byte    // the block's held IDs: rendered so far, or all of them; nil before the first
	off  int       // where the ID of the next held row starts in ids
}

// Cursor returns a cursor whose first Next reads position i, 0 <= i <=
// Len(). Starting inside a block decodes that block up to i.
func (s *Set) Cursor(i int) Cursor {
	c := Cursor{s: s, i: i}
	if i < s.sealed() && i&rowMask != 0 {
		c.enter(&s.blocks[i>>rowBits])
		for range i&rowMask - 1 {
			if c.d.next(); c.d.held {
				c.heldID()
			}
		}
	}
	return c
}

// enter starts the cursor at block b's first row.
func (c *Cursor) enter(b *block) {
	c.d, c.tail, c.b, c.ids, c.off = b.open(), nil, b, nil, 0
}

// step moves the cursor to the row at its position, and past it, or
// reports false at the end of the set.
func (c *Cursor) step() bool {
	s := c.s
	switch {
	case c.i >= s.n:
		return false
	case c.i >= s.sealed():
		c.tail = s.row(c.i)
	case c.i&rowMask == 0:
		c.enter(&s.blocks[c.i>>rowBits])
	default:
		c.d.next()
	}
	c.i++
	return true
}

// row returns the row step last read.
func (c *Cursor) row() *row {
	if c.tail != nil {
		return c.tail
	}
	return &c.d.r
}

// sealedHeld reports whether the row step last read is a sealed row whose
// ID the runs hold: origin d.ord's number d.seq, whose bytes are rendered
// (heldID), not read (id).
func (c *Cursor) sealedHeld() bool { return c.tail == nil && c.d.held }

// id returns the ID of the row step last read, unless sealedHeld.
func (c *Cursor) id() string {
	if c.tail != nil {
		return c.s.idOf(c.tail.ref)
	}
	return c.s.arena.id(c.d.r.ref)
}

// heldID returns the ID of the held row the cursor last read, a substring
// of the block's rendering: rendered now, unless the block's rendering
// was whole when the cursor reached its first held row. The buffer is
// sized for every held ID of the block, so it never moves, and the bytes
// of an ID handed out are never written again.
func (c *Cursor) heldID() string {
	if c.ids == nil {
		if p := c.b.ids.load(); p != nil {
			c.ids = unsafe.Slice(p, c.b.idBytes)
		} else {
			c.ids = make([]byte, 0, c.b.idBytes)
		}
	}
	k := c.off
	if k == len(c.ids) {
		c.ids = c.d.renderID(c.s, c.ids)
		c.off = len(c.ids)
		if c.off == cap(c.ids) {
			c.b.ids.store(c.ids)
		}
	} else {
		c.off += idLen(c.s.runs.origins[c.d.ord], c.d.seq)
	}
	return unsafe.String(&c.ids[k], c.off-k)
}

// Next reads the entry at the cursor's position into e and moves past it,
// or reports false at the end of the set, leaving e as it was. Filling the
// caller's entry in place spares a walk a copy of every entry.
func (c *Cursor) Next(e *Entry) bool {
	if !c.step() {
		return false
	}
	if c.sealedHeld() {
		c.s.fill(e, &c.d.r, c.heldID())
	} else {
		c.s.fill(e, c.row(), c.id())
	}
	return true
}

// sameRow reports whether the rows cursors a and b last read, of any two
// sets, hold the same entry. It renders no ID: a sealed row's held ID is
// its origin and number, and the other ID equals it exactly when
// uniq.ParseID takes it apart into them.
func sameRow(a, b *Cursor) bool {
	x, y := a.row(), b.row()
	if x.lam != y.lam || x.at != y.at || x.arg != y.arg || payload(&a.s.arena, x.pay) != payload(&b.s.arena, y.pay) {
		return false
	}
	switch ah, bh := a.sealedHeld(), b.sealedHeld(); {
	case ah && bh:
		return a.d.seq == b.d.seq && a.s.runs.origins[a.d.ord] == b.s.runs.origins[b.d.ord]
	case ah:
		return a.renders(b.id())
	case bh:
		return b.renders(a.id())
	}
	return a.id() == b.id()
}

// renders reports whether id is the held ID of the sealed row the cursor
// last read.
func (c *Cursor) renders(id string) bool {
	node, seq, ok := uniq.ParseID(id)
	return ok && seq == c.d.seq && node == c.s.runs.origins[c.d.ord]
}
