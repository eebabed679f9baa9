package core

// The wire codec: binary encode/decode for the replica-to-replica
// messages (gossip push, sync admit, sync apply, and their acks) so a
// transport that crosses process boundaries — internal/netx's TCP
// transport — can carry exactly the traffic the in-process transports
// pass by reference. The per-entry bytes reuse the oplog binary codec,
// the same encoding the disk journal frames; a field added to
// oplog.Entry fails loudly in both codecs' tests instead of silently
// diverging between disk and wire.
//
// The message types themselves stay unexported: the codec is the only
// surface a transport needs, and it keeps the message set closed — an
// unknown tag on the wire is a protocol error, never a silent skip.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/oplog"
)

// Message tags. The tag is the first byte of every encoded message;
// appending a new message type means appending a tag here, a case in
// AppendMessage and DecodeMessage, and a round-trip in wire_test.go.
const (
	wireTagPush     = 1 // pushReq: anti-entropy journal suffix
	wireTagPushAck  = 2 // pushAck: durable-absorb acknowledgement
	wireTagAdmit    = 3 // admitReq: sync-coordination admission probe
	wireTagAdmitAck = 4 // admitAck
	wireTagApply    = 5 // applyReq: sync-coordination apply
)

// AppendMessage appends the binary encoding of one wire message to buf
// and returns the extended slice. It errors on anything that is not one
// of the engine's replica-to-replica messages — a transport asked to
// carry an unknown payload is misconfigured, and that should be loud.
func AppendMessage(buf []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case pushReq:
		buf = append(buf, wireTagPush)
		buf = binary.AppendUvarint(buf, uint64(len(m.Entries)))
		for _, e := range m.Entries {
			buf = binary.AppendUvarint(buf, uint64(oplog.EntrySize(e)))
			buf = oplog.AppendEntry(buf, e)
		}
		return buf, nil
	case pushAck:
		return append(buf, wireTagPushAck, encodeBool(m.OK)), nil
	case admitReq:
		return appendEntryMsg(buf, wireTagAdmit, m.Op), nil
	case admitAck:
		return append(buf, wireTagAdmitAck, encodeBool(m.OK)), nil
	case applyReq:
		return appendEntryMsg(buf, wireTagApply, m.Op), nil
	}
	return nil, fmt.Errorf("core: cannot encode message type %T", msg)
}

// MessageSize reports the exact encoded length of msg, so a framing
// layer can preallocate its buffer (and its length prefix) in one pass.
// Unknown types report 0; AppendMessage is where they fail loudly.
func MessageSize(msg any) int {
	switch m := msg.(type) {
	case pushReq:
		n := 1 + uvarintSize(uint64(len(m.Entries)))
		for _, e := range m.Entries {
			es := oplog.EntrySize(e)
			n += uvarintSize(uint64(es)) + es
		}
		return n
	case pushAck, admitAck:
		return 2
	case admitReq:
		return entryMsgSize(m.Op)
	case applyReq:
		return entryMsgSize(m.Op)
	}
	return 0
}

// DecodeMessage decodes one wire message occupying the whole of b.
// Trailing bytes are an error: a frame that decodes but does not consume
// its payload is corrupt, and an error comes with a nil message.
//
// A message that carries entries is copied into one string, and every
// entry string is a substring of it: b may be reused as soon as this
// returns, and a push costs one copy however many entries it holds. Whoever
// keeps an entry string keeps the whole copy, so a receiver keeps entries
// only through the op set, which copies them into its arena.
func DecodeMessage(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("core: empty wire message")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case wireTagPushAck, wireTagAdmitAck:
		if len(b) != 1 {
			return nil, fmt.Errorf("core: bad ack length %d", len(b))
		}
		if tag == wireTagPushAck {
			return pushAck{OK: b[0] != 0}, nil
		}
		return admitAck{OK: b[0] != 0}, nil
	case wireTagPush, wireTagAdmit, wireTagApply:
	default:
		return nil, fmt.Errorf("core: unknown wire message tag %d", tag)
	}
	r := wireReader{b: b, s: string(b)}
	if tag != wireTagPush {
		op, err := r.entry()
		if err == nil && len(r.b) != 0 {
			err = fmt.Errorf("core: %d trailing bytes after entry", len(r.b))
		}
		if err != nil {
			return nil, err
		}
		if tag == wireTagAdmit {
			return admitReq{Op: op}, nil
		}
		return applyReq{Op: op}, nil
	}
	n, ok := r.uvarint()
	if !ok {
		return nil, fmt.Errorf("core: truncated push count")
	}
	// n comes off the wire: a corrupt count must not become a giant
	// allocation before decode fails, and an entry takes at least
	// minSizedEntry bytes.
	entries := make([]oplog.Entry, 0, min(n, uint64(len(r.b)/minSizedEntry)))
	for i := uint64(0); i < n; i++ {
		e, err := r.entry()
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after push", len(r.b))
	}
	return pushReq{Entries: entries}, nil
}

// minSizedEntry is the shortest length-prefixed entry: a one-byte
// length, four empty strings and three one-byte varints.
const minSizedEntry = 1 + 4 + 3

// wireReader walks one message body held twice — b, the bytes it arrived
// in, where the framing varints are read, and s, its one string copy,
// which the entries are cut from.
type wireReader struct {
	b []byte
	s string
}

func (r *wireReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, false
	}
	r.b, r.s = r.b[n:], r.s[n:]
	return v, true
}

// entry decodes one length-prefixed entry from the front of the body.
func (r *wireReader) entry() (oplog.Entry, error) {
	n, ok := r.uvarint()
	if !ok || uint64(len(r.b)) < n {
		return oplog.Entry{}, fmt.Errorf("core: truncated entry frame")
	}
	e, err := oplog.DecodeEntryString(r.s[:n])
	r.b, r.s = r.b[n:], r.s[n:]
	return e, err
}

func appendEntryMsg(buf []byte, tag byte, e oplog.Entry) []byte {
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(oplog.EntrySize(e)))
	return oplog.AppendEntry(buf, e)
}

func entryMsgSize(e oplog.Entry) int {
	es := oplog.EntrySize(e)
	return 1 + uvarintSize(uint64(es)) + es
}

func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func encodeBool(v bool) byte {
	if v {
		return 1
	}
	return 0
}
