package oplog

// The binary entry codec: the wire-and-disk format for one Entry.
// internal/store frames these encodings into CRC-checked, length-prefixed
// journal records and snapshot files; keeping the codec here, next to the
// Entry definition, means a field added to Entry fails loudly in the codec
// tests instead of silently truncating what recovery can rebuild.
//
// The encoding is deliberately boring: four uvarint-length-prefixed
// strings (ID, Kind, Key, Note) followed by three varints (Lam unsigned;
// At and Arg zigzag-signed). No self-description, no versioning — the
// store's segment and snapshot headers carry the format version, so the
// per-entry bytes stay minimal.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/sim"
	"repro/internal/uniq"
)

// AppendEntry appends the binary encoding of e to buf and returns the
// extended slice, in the style of strconv.AppendInt. With a buffer of at
// least EntrySize(e) spare capacity the call performs no allocation —
// the contract the batched journal writer and snapshot writer rely on
// (and the alloc assertions in codec_test.go pin).
func AppendEntry(buf []byte, e Entry) []byte {
	buf = appendString(buf, string(e.ID))
	buf = appendString(buf, e.Kind)
	buf = appendString(buf, e.Key)
	buf = appendString(buf, e.Note)
	buf = binary.AppendUvarint(buf, e.Lam)
	buf = binary.AppendVarint(buf, int64(e.At))
	buf = binary.AppendVarint(buf, e.Arg)
	return buf
}

// EntrySize reports the exact encoded length of e, so a caller batching
// many entries into one buffer can preallocate it once instead of letting
// append grow it piecemeal.
func EntrySize(e Entry) int {
	return stringSize(len(e.ID)) + stringSize(len(e.Kind)) + stringSize(len(e.Key)) + stringSize(len(e.Note)) +
		uvarintSize(e.Lam) + varintSize(int64(e.At)) + varintSize(e.Arg)
}

func stringSize(n int) int { return uvarintSize(uint64(n)) + n }

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintSize(v int64) int {
	// Varint zigzags before writing, exactly as binary.AppendVarint does.
	return uvarintSize(uint64(v)<<1 ^ uint64(v>>63))
}

// bufPool recycles encode scratch buffers across journal flushes and
// snapshot writes. Buffers start small and grow to the workload's natural
// record size; pooling them keeps the steady-state encode path
// allocation-free without pinning one large buffer per store forever.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf borrows a zero-length encode buffer from the shared pool. Return
// it with PutBuf when the encoded bytes have been written out; the buffer
// must not be referenced afterwards.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a borrowed buffer to the pool, keeping its grown capacity.
func PutBuf(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// DecodeEntry decodes one entry occupying the whole of b — the framing
// (record length, CRC) is the caller's job. Trailing bytes are an error:
// a record that decodes but does not consume its payload is corrupt. The
// entry's strings are copies; b may be reused as soon as it returns.
func DecodeEntry(b []byte) (Entry, error) { return decodeEntry(b) }

// DecodeEntryString is DecodeEntry over bytes already held as a string:
// the entry's strings are substrings of s, so decoding allocates nothing,
// and whoever keeps one keeps all of s. A wire message is copied into one
// string once and its entries cut from it; the op set copies what it
// keeps into its arena.
func DecodeEntryString(s string) (Entry, error) { return decodeEntry(s) }

func decodeEntry[T ~string | ~[]byte](b T) (Entry, error) {
	var e Entry
	d := decoder[T]{b: b}
	e.ID = uniq.ID(d.string())
	e.Kind = d.string()
	e.Key = d.string()
	e.Note = d.string()
	e.Lam = d.uvarint()
	e.At = sim.Time(d.varint())
	e.Arg = d.varint()
	if d.err != nil {
		return Entry{}, d.err
	}
	if len(d.b) != 0 {
		return Entry{}, fmt.Errorf("oplog: %d trailing bytes after entry", len(d.b))
	}
	return e, nil
}

// AppendWatermark appends the binary encoding of w to buf. Snapshot files
// record the fold watermark they were taken at so recovery can rebuild
// the fold checkpoint at exactly that position.
func AppendWatermark(buf []byte, w Watermark) []byte {
	buf = binary.AppendUvarint(buf, w.Lam)
	buf = binary.AppendVarint(buf, int64(w.At))
	buf = appendString(buf, string(w.ID))
	return buf
}

// DecodeWatermark decodes a watermark from the front of b, returning the
// remainder of the buffer.
func DecodeWatermark(b []byte) (Watermark, []byte, error) {
	var w Watermark
	d := decoder[[]byte]{b: b}
	w.Lam = d.uvarint()
	w.At = sim.Time(d.varint())
	w.ID = uniq.ID(d.string())
	if d.err != nil {
		return Watermark{}, nil, d.err
	}
	return w, d.b, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder consumes a buffer front-to-back, latching the first error so
// field reads can be written straight-line. Over a string it cuts
// substrings; over bytes it copies each string out.
type decoder[T ~string | ~[]byte] struct {
	b   T
	err error
}

func (d *decoder[T]) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("oplog: truncated entry: bad %s", what)
	}
}

func (d *decoder[T]) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var tmp [binary.MaxVarintLen64]byte // binary reads bytes; d.b may be a string
	v, n := binary.Uvarint(tmp[:copy(tmp[:], d.b)])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder[T]) varint() int64 {
	if d.err != nil {
		return 0
	}
	var tmp [binary.MaxVarintLen64]byte // binary reads bytes; d.b may be a string
	v, n := binary.Varint(tmp[:copy(tmp[:], d.b)])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder[T]) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
