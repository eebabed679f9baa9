package netx

// The frame layer: every message on a peer connection is one
// length-prefixed, checksummed frame. The payload starts with a kind
// byte; request and response payloads embed a core wire message (the
// same oplog-backed binary codec the disk journal uses), so the bytes a
// replica gossips across a socket are the bytes it would have journaled.
//
//	[uint32 big-endian payload length][uint32 big-endian CRC32-C of payload][payload]
//
//	hello: kind=2, string token          — first frame of every conn, both directions
//	req:   kind=0, uvarint seq, string from, string to, string method, message
//	resp:  kind=1, uvarint seq, message
//
// The checksum exists because TCP's own checksum is weak and because
// this layer is where we inject bit flips on purpose: a damaged frame
// must be *detected* — surfacing as errCorruptFrame, which closes the
// connection and lets the dial/backoff machinery degrade the link —
// rather than decoded into garbage that poisons a replica's state.
//
// A reply is matched to its call by seq; seqs are per-transport, so
// responses may return on any connection that reaches the caller (in
// practice: the one the request went out on).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

const (
	frameReq   = 0
	frameResp  = 1
	frameHello = 2

	// maxFrame bounds a single frame's claimed length. Gossip pushes are
	// the largest traffic; 64 MiB is orders of magnitude above any batch
	// the engine ships. A claim is not an allocation: the reader grows
	// its buffer only as bytes arrive.
	maxFrame = 64 << 20

	// maxHelloFrame bounds the first frame of an inbound connection,
	// read before its sender has proven anything: a kind byte and the
	// token. New refuses a token whose hello would not fit.
	maxHelloFrame = 4 << 10

	// frameHeader is the fixed prefix of every frame: payload length plus
	// the payload's CRC32-C.
	frameHeader = 8

	// minFrameBuf is the first step of a frame buffer's growth, and
	// maxKeptFrameBuf the largest buffer a connection keeps for its next
	// frame: one outsized push must not pin its size on the connection.
	minFrameBuf     = 4 << 10
	maxKeptFrameBuf = 256 << 10

	// maxNames bounds a connection's interned node IDs and method names
	// (see frameReader.name).
	maxNames = 256
)

// errCorruptFrame marks a frame that arrived damaged — bad length or
// failed checksum. The receiver closes the connection: with an
// unreliable codec boundary the only safe resync point is a fresh
// connection, and the peer's dial backoff turns sustained corruption
// into a down link rather than a poisoned replica.
var errCorruptFrame = errors.New("netx: corrupt frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameReader reads one connection's frames. It reuses one payload
// buffer from frame to frame, so a payload is valid only until the next
// read: everything decoded from it is a copy — the core message one
// string, the node IDs and method names interned per connection.
type frameReader struct {
	br    *bufio.Reader
	hdr   [frameHeader]byte
	buf   []byte
	names map[string]string
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReader(r), names: make(map[string]string)}
}

// read reads one frame of at most limit payload bytes and verifies its
// checksum. The buffer grows as the payload arrives, never ahead of it:
// a length prefix is only a claim, and a peer that claims 64 MiB and
// sends one byte costs one step of growth.
func (fr *frameReader) read(limit uint32) ([]byte, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.br, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n == 0 || n > int(limit) {
		return nil, fmt.Errorf("%w: length %d out of range", errCorruptFrame, n)
	}
	want := binary.BigEndian.Uint32(hdr[4:])
	buf := fr.buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), minFrameBuf)))
		}
		got, err := io.ReadFull(fr.br, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, err
		}
	}
	fr.buf = nil
	if cap(buf) <= maxKeptFrameBuf {
		fr.buf = buf
	}
	if got := crc32.Checksum(buf, crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", errCorruptFrame, got, want)
	}
	return buf, nil
}

// name returns b as a string, from the connection's interned names when
// it has been seen before. The node IDs and method names on one
// connection are few, so a request costs no string for them — and a
// replica that keys a map by the sender keeps a string of its own, not a
// cut of a frame.
func (fr *frameReader) name(b []byte) string {
	if s, ok := fr.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(fr.names) < maxNames {
		fr.names[s] = s
	}
	return s
}

// connWriter serializes frame writes on one connection under a write
// deadline, so a stalled peer fails the write instead of wedging every
// goroutine that has a response to send.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func (w *connWriter) write(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := w.conn.Write(frame)
	return err
}

// newFrame starts a frame buffer with room for size payload bytes: the
// header is reserved, for seal to fill in place once the payload is
// appended, so the whole frame is one buffer and one Write.
func newFrame(size int) []byte { return make([]byte, frameHeader, frameHeader+size) }

// seal writes the header of a frame built on newFrame.
func seal(frame []byte) []byte {
	payload := frame[frameHeader:]
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	return frame
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// takeBytes cuts one length-prefixed string from the front of b.
func takeBytes(b []byte) (s, rest []byte, err error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return nil, nil, fmt.Errorf("netx: truncated string")
	}
	return b[sz : sz+int(n)], b[sz+int(n):], nil
}

// helloSize bounds the payload length of the hello carrying token.
func helloSize(token string) int {
	return 1 + binary.MaxVarintLen64 + len(token)
}

// encodeHello builds the authentication frame both sides send first.
func encodeHello(token string) []byte {
	frame := append(newFrame(helloSize(token)), frameHello)
	return seal(appendString(frame, token))
}

// decodeHello verifies a hello payload (kind byte already consumed).
func decodeHello(b []byte) (token string, err error) {
	tok, rest, err := takeBytes(b)
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("netx: %d trailing bytes after hello", len(rest))
	}
	return string(tok), nil
}

// encodeReq builds a request frame carrying one core wire message.
func encodeReq(seq uint64, from, to, method string, msg any) ([]byte, error) {
	frame := newFrame(1 + 4*binary.MaxVarintLen64 + len(from) + len(to) + len(method) + core.MessageSize(msg))
	frame = append(frame, frameReq)
	frame = binary.AppendUvarint(frame, seq)
	frame = appendString(frame, from)
	frame = appendString(frame, to)
	frame = appendString(frame, method)
	frame, err := core.AppendMessage(frame, msg)
	if err != nil {
		return nil, err
	}
	return seal(frame), nil
}

type request struct {
	seq    uint64
	from   string
	to     string
	method string
	msg    any
}

// decodeReq parses a request payload (kind byte already consumed). An
// error comes with the zero request.
func (fr *frameReader) decodeReq(b []byte) (request, error) {
	seq, sz := binary.Uvarint(b)
	if sz <= 0 {
		return request{}, fmt.Errorf("netx: truncated request seq")
	}
	b = b[sz:]
	var names [3][]byte // from, to, method
	for i := range names {
		var err error
		if names[i], b, err = takeBytes(b); err != nil {
			return request{}, err
		}
	}
	msg, err := core.DecodeMessage(b)
	if err != nil {
		return request{}, err
	}
	return request{seq: seq, from: fr.name(names[0]), to: fr.name(names[1]), method: fr.name(names[2]), msg: msg}, nil
}

// encodeResp builds a response frame for seq.
func encodeResp(seq uint64, msg any) ([]byte, error) {
	frame := newFrame(1 + binary.MaxVarintLen64 + core.MessageSize(msg))
	frame = append(frame, frameResp)
	frame = binary.AppendUvarint(frame, seq)
	frame, err := core.AppendMessage(frame, msg)
	if err != nil {
		return nil, err
	}
	return seal(frame), nil
}

// decodeResp parses a response payload (kind byte already consumed). An
// error comes with a zero seq and a nil message.
func decodeResp(b []byte) (seq uint64, msg any, err error) {
	seq, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("netx: truncated response seq")
	}
	if msg, err = core.DecodeMessage(b[sz:]); err != nil {
		return 0, nil, err
	}
	return seq, msg, nil
}
