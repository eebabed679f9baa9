package oplog

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// arena is an append-only byte store in chunks that are never reallocated,
// so a substring of one stays valid, and its bytes unchanged, for as long
// as anything references it. Each chunk is written through a
// strings.Builder grown once to the chunk's full size: the Builder hands
// out its buffer as a string without a copy, and never moves it while the
// writes stay inside that capacity.
//
// A handle is the chunk's slot in its high bits and the offset in the low
// chunkBits. A record never straddles chunks. One larger than a slot's
// span gets a chunk of its own over as many consecutive slots as it
// needs, so an arena's handle space, slots chunks of chunkSpan bytes, is
// also (nearly) its byte capacity. A set's kept arena never retires a
// chunk. Its ids arena retires the chunks no row reads any more and
// reuses their slots, so its handle space bounds the bytes it holds at
// once, not the bytes ever written to it.
type arena struct {
	chunks []string         // by slot: the bytes written to the chunk so far, "" once retired
	open   *strings.Builder // writes chunks[openAt]
	openAt int
	slots  int   // the handle space: how many slots it may use
	free   []int // retired slots, which a new chunk of one slot takes first
}

const (
	chunkBits  = 16
	chunkSpan  = 1 << chunkBits // handle space per slot; the size of a full chunk
	firstChunk = 512            // a small set pays for a small chunk; sizes double up to chunkSpan
)

// put appends one record — each part uvarint-length-prefixed, as in the
// entry codec — and returns its handle.
func (a *arena) put(parts ...string) uint32 {
	n := 0
	for _, p := range parts {
		n += stringSize(len(p))
	}
	w, slot := a.room(n)
	h := uint32(slot<<chunkBits | w.Len())
	for _, p := range parts {
		writeLen(w, len(p))
		w.WriteString(p)
	}
	a.chunks[slot] = w.String()
	return h
}

// putMinted is put(id) for an ID held as bytes: the record a set mints,
// written once, where it will live.
func (a *arena) putMinted(id []byte) uint32 {
	w, slot := a.room(stringSize(len(id)))
	h := uint32(slot<<chunkBits | w.Len())
	writeLen(w, len(id))
	w.Write(id)
	a.chunks[slot] = w.String()
	return h
}

// putRaw appends rec as it is, a record of the caller's own format, and
// returns its handle.
func (a *arena) putRaw(rec []byte) uint32 {
	w, slot := a.room(len(rec))
	h := uint32(slot<<chunkBits | w.Len())
	w.Write(rec)
	a.chunks[slot] = w.String()
	return h
}

// writeLen writes a part's uvarint length prefix.
func writeLen(w *strings.Builder, n int) {
	var size [binary.MaxVarintLen64]byte
	w.Write(binary.AppendUvarint(size[:0], uint64(n)))
}

// room returns the Builder of a chunk with n bytes to spare, and the
// chunk's slot.
func (a *arena) room(n int) (w *strings.Builder, slot int) {
	if a.open != nil && n <= min(a.open.Cap(), chunkSpan)-a.open.Len() {
		return a.open, a.openAt
	}
	slot, slots, size := len(a.chunks), (n+chunkSpan-1)/chunkSpan, n
	w = new(strings.Builder)
	if n <= chunkSpan {
		// The open chunk's tail is too short: leave it and open the next.
		slots, size = 1, firstChunk
		if a.open != nil {
			size = min(2*a.open.Cap(), chunkSpan)
		}
		for size < n {
			size *= 2
		}
		if k := len(a.free); k > 0 {
			slot, a.free = a.free[k-1], a.free[:k-1]
		}
		a.open, a.openAt = w, slot
	}
	if slot == len(a.chunks) {
		if slot+slots > a.slots {
			panic(fmt.Sprintf("oplog: a set's arena is full: %d MiB of handles in use", a.slots*chunkSpan>>20))
		}
		for range slots {
			a.chunks = append(a.chunks, "")
		}
	}
	w.Grow(size)
	return w, slot
}

// at returns the chunk's bytes from handle h on.
func (a *arena) at(h uint32) string { return a.chunks[h>>chunkBits][h&(chunkSpan-1):] }

// id reads the ID of the record at ref.
func (a *arena) id(ref uint32) string { return idKey(a.at(ref)) }

// retire empties the slot of every chunk no handle in use reads — one
// whose slot used does not hold — but never the open chunk's: its Builder
// holds the chunk whatever the slot says. The slots a retired chunk spans
// are free for new chunks. A string cut from a retired chunk stays valid,
// and keeps the chunk alive, as any substring does.
func (a *arena) retire(used *slotSet) {
	for slot, ch := range a.chunks {
		if ch == "" || used.has(slot) || a.open != nil && slot == a.openAt {
			continue
		}
		a.chunks[slot] = ""
		for k := range (len(ch) + chunkSpan - 1) / chunkSpan {
			a.free = append(a.free, slot+k)
		}
	}
}

// slotSet is a set of the ids arena's slots.
type slotSet [idsSlots / 64]uint64

func (u *slotSet) add(slot int)      { u[slot/64] |= 1 << (slot % 64) }
func (u *slotSet) has(slot int) bool { return u[slot/64]&(1<<(slot%64)) != 0 }

// clone returns an arena sharing a's bytes, which never change, with a
// chunk list of its own: its writes and retirements never touch a's.
func (a *arena) clone() arena {
	return arena{chunks: slices.Clone(a.chunks), slots: a.slots, free: slices.Clone(a.free)}
}

// cutString reads one length-prefixed string off the front of rec.
func cutString(rec string) (s, rest string) {
	n, k := int(rec[0]), 1
	if n >= 0x80 {
		n, k = longLength(rec)
	}
	return rec[k : k+n], rec[k+n:]
}

// longLength reads a length prefix of more than one byte.
func longLength(rec string) (n, k int) {
	for shift := 0; ; shift += 7 {
		b := rec[k]
		k++
		n |= int(b&0x7f) << shift
		if b < 0x80 {
			return n, k
		}
	}
}
