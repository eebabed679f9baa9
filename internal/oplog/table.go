package oplog

import (
	"hash/maphash"
	"slices"
)

// table finds arena records by a key each one holds: open addressing,
// linear probing, at most 7/8 full. A slot is one byte of the key's hash
// (0 marks it empty) and the record's arena handle, in two parallel
// arrays, so a probe scans bytes and reads the arena only on a tag match,
// and nothing in a table is a pointer. A set keeps two: the ID table,
// keyed by the ID a record holds (idKey), for the IDs its runs do not
// hold, and the payload table, keyed by a Kind|Key|Note record's own
// bytes (payloadKey).
type table struct {
	tags []uint8
	refs []uint32
	n    int // records held
}

var hashSeed = maphash.MakeSeed()

// tagOf is the index byte of a hash: its top bits, which the slot position
// (the low bits) does not use, and never the 0 that marks an empty slot.
func tagOf(h uint64) uint8 { return uint8(h>>56) | 1 }

// find returns the record whose key, as keyOf reads it from the bytes at
// the record's handle, is key; h is key's hash. The key may be held as
// bytes; it is compared in place either way.
func find[T ~string | ~[]byte](t *table, a *arena, key T, h uint64, keyOf func(rec string) string) (ref uint32, ok bool) {
	if len(t.tags) == 0 {
		return 0, false
	}
	mask, tag := uint64(len(t.tags)-1), tagOf(h)
	for i := h & mask; t.tags[i] != 0; i = (i + 1) & mask {
		if t.tags[i] == tag && keyOf(a.at(t.refs[i])) == string(key) {
			return t.refs[i], true
		}
	}
	return 0, false
}

// insert adds the record at ref, whose key hashes to h. The key must be
// absent and reserve must have made room.
func (t *table) insert(ref uint32, h uint64) {
	mask := uint64(len(t.tags) - 1)
	i := h & mask
	for t.tags[i] != 0 {
		i = (i + 1) & mask
	}
	t.tags[i], t.refs[i] = tagOf(h), ref
	t.n++
}

// reserve makes room for one more record, doubling the table when it is
// full. A slot keeps one byte of its hash, so growing rehashes every key,
// read back from the arena.
func (t *table) reserve(a *arena, keyOf func(rec string) string) {
	if (t.n+1)*8 <= len(t.tags)*7 {
		return
	}
	size := max(8, 2*len(t.tags))
	tags, refs := t.tags, t.refs
	*t = table{tags: make([]uint8, size), refs: make([]uint32, size)}
	for i, tag := range tags {
		if tag != 0 {
			t.insert(refs[i], maphash.String(hashSeed, keyOf(a.at(refs[i]))))
		}
	}
}

func (t *table) clone() table {
	return table{tags: slices.Clone(t.tags), refs: slices.Clone(t.refs), n: t.n}
}

// idKey reads the key of an ID record: the ID.
func idKey(rec string) string {
	id, _ := cutString(rec)
	return id
}

// payloadKey reads the key of a payload record: its own bytes, Kind, Key
// and Note each length-prefixed.
func payloadKey(rec string) string {
	_, rest := cutString(rec)
	_, rest = cutString(rest)
	_, rest = cutString(rest)
	return rec[:len(rec)-len(rest)]
}
