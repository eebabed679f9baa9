package netx

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/oplog"
	"repro/internal/testenv"
)

// checkReadFrame is FuzzReadFrame's contract on one input, read as a
// stream of frames and, sealed, as one payload: reading and decoding never
// panic; a decode error comes with a zero value; the names a request
// carries are never cuts of the reader's buffer; and whatever decodes
// encodes back into a frame that reads and decodes to the same value.
func checkReadFrame(t *testing.T, b []byte) {
	t.Helper()
	fr := newFrameReader(bytes.NewReader(b))
	for i := 0; i < 8; i++ {
		payload, err := fr.read(maxFrame)
		if err != nil {
			if payload != nil {
				t.Fatalf("read returned %d bytes beside the error %v", len(payload), err)
			}
			break
		}
		checkPayload(t, fr, payload)
	}
	sealed := seal(append(newFrame(len(b)), b...))
	fr = newFrameReader(bytes.NewReader(sealed))
	payload, err := fr.read(maxFrame)
	if len(b) == 0 {
		if !errors.Is(err, errCorruptFrame) {
			t.Fatalf("an empty frame read as %q, %v", payload, err)
		}
		return
	}
	if err != nil || !bytes.Equal(payload, b) {
		t.Fatalf("sealed %q read back as %q, %v", b, payload, err)
	}
	checkPayload(t, fr, payload)
}

// checkPayload decodes one payload by its kind and round-trips what it
// accepts.
func checkPayload(t *testing.T, fr *frameReader, p []byte) {
	t.Helper()
	reread := func(frame []byte) (*frameReader, []byte) {
		t.Helper()
		fr := newFrameReader(bytes.NewReader(frame))
		payload, err := fr.read(maxFrame)
		if err != nil || payload[0] != p[0] {
			t.Fatalf("re-encoded frame %q read as %q, %v", frame, payload, err)
		}
		return fr, payload[1:]
	}
	switch p[0] {
	case frameHello:
		token, err := decodeHello(p[1:])
		if err != nil {
			if token != "" {
				t.Fatalf("decodeHello(%q) returned %q beside the error %v", p, token, err)
			}
			return
		}
		_, body := reread(encodeHello(token))
		if back, err := decodeHello(body); err != nil || back != token {
			t.Fatalf("hello %q round-tripped to %q, %v", token, back, err)
		}
	case frameReq:
		req, err := fr.decodeReq(p[1:])
		if err != nil {
			if !reflect.DeepEqual(req, request{}) {
				t.Fatalf("decodeReq(%q) returned %+v beside the error %v", p, req, err)
			}
			return
		}
		for _, s := range []string{req.from, req.to, req.method} {
			if s != "" && within(s, fr.buf) {
				t.Fatalf("decodeReq(%q) returned %q, a cut of the frame buffer", p, s)
			}
		}
		frame, err := encodeReq(req.seq, req.from, req.to, req.method, req.msg)
		if err != nil {
			t.Fatalf("encodeReq(%+v): %v", req, err)
		}
		fr2, body := reread(frame)
		if back, err := fr2.decodeReq(body); err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("request %+v round-tripped to %+v, %v", req, back, err)
		}
	case frameResp:
		seq, msg, err := decodeResp(p[1:])
		if err != nil {
			if seq != 0 || msg != nil {
				t.Fatalf("decodeResp(%q) returned %d, %+v beside the error %v", p, seq, msg, err)
			}
			return
		}
		frame, err := encodeResp(seq, msg)
		if err != nil {
			t.Fatalf("encodeResp(%d, %+v): %v", seq, msg, err)
		}
		_, body := reread(frame)
		if bseq, back, err := decodeResp(body); err != nil || bseq != seq || !reflect.DeepEqual(back, msg) {
			t.Fatalf("response %d %+v round-tripped to %d %+v, %v", seq, msg, bseq, back, err)
		}
	}
}

// within reports whether the bytes of s lie inside buf's backing array.
func within(s string, buf []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p < lo+uintptr(cap(buf))
}

func must(frame []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return frame
}

// frameSeeds start the fuzzer and are swept, every prefix of each, by
// TestReadFrameContract.
var frameSeeds = [][]byte{
	encodeHello("mesh-token"),
	must(encodeReq(7, "r0", "r1", "apply", buildMsg([]byte{5}, oplog.Entry{ID: "r0-000001", Kind: "credit", Key: "acct-1", Arg: 5, Lam: 1}))),
	must(encodeReq(1<<20, "s1/r1", "s1/r0", "push", buildMsg([]byte{1}, oplog.Entry{ID: "a", Kind: "\xff\xfe"}, oplog.Entry{ID: "b", Note: strings.Repeat("n", 130)}))),
	must(encodeResp(9, buildMsg([]byte{2, 1}))),
	append(encodeHello(""), must(encodeResp(1, buildMsg([]byte{4, 0})))...), // two frames back to back
	{0x04, 0x00, 0x00, 0x00, 0, 0, 0, 0, 1},                                 // a 64 MiB claim and one byte
	{0, 0, 0, 0, 0, 0, 0, 0},                                                // an empty frame
	{0, 0, 0, 2, 0xde, 0xad, 0xbe, 0xef, frameResp, 1},                      // a bad checksum
	seal(append(newFrame(0), frameReq, 1, 9, 'r')),                          // a name past the payload
	seal(append(newFrame(0), frameResp, 0x80)),                              // a truncated seq
	seal(append(newFrame(0), 7)),                                            // an unknown kind
}

func FuzzReadFrame(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add(s)
	}
	f.Fuzz(checkReadFrame)
}

// TestReadFrameContract runs the fuzz target's contract in tier-1 over
// every prefix of every seed.
func TestReadFrameContract(t *testing.T) {
	for _, s := range frameSeeds {
		for n := 0; n <= len(s); n++ {
			checkReadFrame(t, s[:n])
		}
	}
}

// loopReader serves the same bytes forever.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestPinInboundFrameAllocs pins what one inbound sync apply costs from
// the socket's bytes to a request: the one string its entry is cut from
// and the boxed message. The buffer is the connection's, and the node IDs
// and method are its interned names. It cost 9 when each was a copy.
func TestPinInboundFrameAllocs(t *testing.T) {
	testenv.SkipUnderRace(t)
	frame := frameSeeds[1]
	fr := newFrameReader(&loopReader{b: frame})
	read := func() {
		payload, err := fr.read(maxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fr.decodeReq(payload[1:]); err != nil {
			t.Fatal(err)
		}
	}
	read()
	got := testing.AllocsPerRun(1000, read)
	t.Logf("%.0f allocs per inbound apply", got)
	if got > 2 {
		t.Fatalf("one inbound apply frame allocates %.0f times, want at most 2", got)
	}
}

// TestLengthClaimsCostNoHeap: a frame's length prefix is a claim, not a
// reservation. Eight connections that each send a 64 MiB header and one
// byte — before the hello, and after it — must not move the heap by more
// than a few buffers' worth. Each once cost its whole claim, held until
// the read deadline.
func TestLengthClaimsCostNoHeap(t *testing.T) {
	const conns = 8
	tr, err := New(Config{Listen: "127.0.0.1:0", Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	claim := []byte{0x04, 0x00, 0x00, 0x00, 0, 0, 0, 0, 1}
	for _, authed := range []bool{false, true} {
		heap := func() uint64 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		before := heap()
		var open []net.Conn
		for i := 0; i < conns; i++ {
			c, err := net.Dial("tcp", tr.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if authed {
				c.Write(encodeHello("tok"))
			}
			if _, err := c.Write(claim); err != nil {
				t.Fatal(err)
			}
			open = append(open, c)
		}
		// Give each server goroutine time to read its header: an
		// unauthenticated one is closed, an authenticated one waits.
		for _, c := range open {
			c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			c.Read(make([]byte, 1))
		}
		after := heap()
		for _, c := range open {
			c.Close()
		}
		grew := int64(after) - int64(before)
		t.Logf("authenticated=%v: heap grew %d KiB over %d claims of 64 MiB", authed, grew>>10, conns)
		if grew > 4<<20 {
			t.Fatalf("authenticated=%v: %d connections claiming 64 MiB each grew the heap by %d MiB", authed, conns, grew>>20)
		}
	}
}
