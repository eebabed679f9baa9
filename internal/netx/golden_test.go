package netx

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/oplog"
)

// buildMsg decodes a core wire message built byte by byte from the
// oplog codec, so the corpus does not lean on the encoder it checks: a
// push (tag 1) is counted, and each entry is length-prefixed.
func buildMsg(head []byte, entries ...oplog.Entry) any {
	b := append([]byte(nil), head...)
	if head[0] == 1 {
		b = binary.AppendUvarint(b, uint64(len(entries)))
	}
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(oplog.EntrySize(e)))
		b = oplog.AppendEntry(b, e)
	}
	msg, err := core.DecodeMessage(b)
	if err != nil {
		panic(err)
	}
	return msg
}

// goldenFrame is one corpus file: the frame the encoder must write, and
// what reading it back must yield.
type goldenFrame struct {
	name  string
	kind  byte
	token string  // hello
	req   request // req: every field; resp: seq and msg
}

func goldenFrames() []goldenFrame {
	pushed := []oplog.Entry{
		{ID: "r0-000001", Kind: "", Key: "acct-1", Note: "", Arg: 0, Lam: 1, At: 0},
		{ID: "r1-000002", Kind: "\xff\xfe\x80", Key: "acct-2", Arg: -250, Lam: 2, At: 1_500_000},
		{ID: "r0-000003", Kind: "deposit", Key: "acct-3", Note: strings.Repeat("n", 130), Arg: 1 << 40, Lam: 300, At: 9_000_000_000},
	}
	op := oplog.Entry{ID: "r1-000007", Kind: "withdraw", Key: "acct-9", Note: "sync", Arg: 75, Lam: 12, At: 42}
	return []goldenFrame{
		{name: "hello", kind: frameHello, token: "mesh-token"},
		{name: "req-push", kind: frameReq, req: request{seq: 1, from: "r0", to: "r1", method: "push", msg: buildMsg([]byte{1}, pushed...)}},
		{name: "req-admit", kind: frameReq, req: request{seq: 200, from: "s1/r1", to: "s1/r0", method: "admit", msg: buildMsg([]byte{3}, op)}},
		{name: "req-apply", kind: frameReq, req: request{seq: 1 << 20, from: "s1/r1", to: "s1/r0", method: "apply", msg: buildMsg([]byte{5}, op)}},
		{name: "resp-pushack", kind: frameResp, req: request{seq: 1, msg: buildMsg([]byte{2, 1})}},
		{name: "resp-admitack", kind: frameResp, req: request{seq: 200, msg: buildMsg([]byte{4, 0})}},
	}
}

func (g goldenFrame) encode(t *testing.T) []byte {
	t.Helper()
	var out []byte
	var err error
	switch g.kind {
	case frameHello:
		out = encodeHello(g.token)
	case frameReq:
		out, err = encodeReq(g.req.seq, g.req.from, g.req.to, g.req.method, g.req.msg)
	case frameResp:
		out, err = encodeResp(g.req.seq, g.req.msg)
	}
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	return out
}

// TestGoldenFrames holds the encoder to testdata/golden byte for byte, and
// holds the reader to the values each file was written from. The corpus
// is committed data written by the encoder before the decoders changed;
// a failure means wire bytes moved, so do not rewrite the files from the
// code under test to make it pass.
func TestGoldenFrames(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for _, g := range goldenFrames() {
		path := filepath.Join(dir, g.name+".frame")
		enc := g.encode(t)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s: encoder wrote\n%x\nthe corpus holds\n%x", g.name, enc, want)
		}
		fr := newFrameReader(bytes.NewReader(want))
		payload, err := fr.read(maxFrame)
		if err != nil {
			t.Fatalf("%s: read: %v", g.name, err)
		}
		if payload[0] != g.kind {
			t.Fatalf("%s: kind %d, want %d", g.name, payload[0], g.kind)
		}
		var got goldenFrame
		got.name, got.kind = g.name, g.kind
		switch g.kind {
		case frameHello:
			got.token, err = decodeHello(payload[1:])
		case frameReq:
			got.req, err = fr.decodeReq(payload[1:])
		case frameResp:
			got.req.seq, got.req.msg, err = decodeResp(payload[1:])
		}
		if err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Errorf("%s: decoded %+v, want %+v", g.name, got, g)
		}
	}
}
