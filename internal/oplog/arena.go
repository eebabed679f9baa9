package oplog

import (
	"encoding/binary"
	"strings"

	"repro/internal/uniq"
)

// arena is an append-only byte store in chunks that are never reallocated,
// so a substring of one stays valid, and its bytes unchanged, for as long
// as anything references it. Each chunk is written through a
// strings.Builder grown once to the chunk's full size: the Builder hands
// out its buffer as a string without a copy, and never moves it while the
// writes stay inside that capacity.
//
// A handle is 32 bits: the chunk's slot in the high 16, the offset in the
// low 16. A record never straddles chunks. One larger than a slot's span
// gets a chunk of its own over as many consecutive slots as it needs, so
// the handle space, 4 GiB, is also (nearly) the byte capacity.
type arena struct {
	chunks []string         // by slot: the bytes written to the chunk so far
	open   *strings.Builder // writes chunks[openAt]
	openAt int
}

const (
	chunkBits  = 16
	chunkSpan  = 1 << chunkBits // handle space per slot; the size of a full chunk
	firstChunk = 512            // a small set pays for a small chunk; sizes double up to chunkSpan
	maxSlots   = 1 << (32 - chunkBits)
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
		a.open, a.openAt = w, slot
	}
	if slot+slots > maxSlots {
		panic("oplog: a set's identifiers and strings exceed 4 GiB")
	}
	w.Grow(size)
	for range slots {
		a.chunks = append(a.chunks, "")
	}
	return w, slot
}

// at returns the chunk's bytes from handle h on.
func (a *arena) at(h uint32) string { return a.chunks[h>>chunkBits][h&(chunkSpan-1):] }

// id reads the ID of the record at ref.
func (a *arena) id(ref uint32) string { return idKey(a.at(ref)) }

// fill materializes a row into e, in place. The strings are substrings of
// the arena.
func (a *arena) fill(e *Entry, r *row) {
	kind, rec := cutString(a.at(r.pay))
	key, rec := cutString(rec)
	note, _ := cutString(rec)
	*e = Entry{ID: uniq.ID(a.id(r.ref)), Kind: kind, Key: key, Arg: r.arg, Lam: r.lam, At: r.at, Note: note}
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
