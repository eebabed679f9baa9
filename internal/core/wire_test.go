package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/oplog"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uniq"
)

func wireEntry(i int) oplog.Entry {
	return oplog.Entry{
		ID:   uniq.ID("e-" + string(rune('a'+i))),
		Kind: "deposit",
		Key:  "acct-42",
		Note: "wire test",
		Lam:  uint64(100 + i),
		At:   time.Duration(1e9 + int64(i)),
		Arg:  int64(-7 * i),
	}
}

// TestWireMessageRoundTrip pins that every replica-to-replica message
// survives encode→decode byte-exactly, and that MessageSize predicts the
// encoded length (the framing layer preallocates with it).
func TestWireMessageRoundTrip(t *testing.T) {
	msgs := []any{
		pushReq{Entries: []oplog.Entry{wireEntry(0), wireEntry(1), wireEntry(2)}},
		pushReq{}, // empty push: legal, if pointless
		pushAck{OK: true},
		pushAck{OK: false},
		admitReq{Op: wireEntry(3)},
		admitAck{OK: true},
		admitAck{OK: false},
		applyReq{Op: wireEntry(4)},
	}
	for _, msg := range msgs {
		buf, err := AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		if got, want := len(buf), MessageSize(msg); got != want {
			t.Errorf("%T: encoded %d bytes, MessageSize said %d", msg, got, want)
		}
		back, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		// pushReq{} decodes with a non-nil empty slice; normalize.
		if p, ok := back.(pushReq); ok && len(p.Entries) == 0 {
			back = pushReq{}
		}
		if !reflect.DeepEqual(msg, back) {
			t.Errorf("%T round trip: sent %+v, got %+v", msg, msg, back)
		}
	}
}

// TestWireMessageRejectsDamage pins that framing damage is an error, not
// a silent misdecode: truncation, trailing garbage, unknown tags, and
// unencodable types all fail loudly.
func TestWireMessageRejectsDamage(t *testing.T) {
	buf, err := AppendMessage(nil, pushReq{Entries: []oplog.Entry{wireEntry(0)}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeMessage(buf[:cut]); err == nil {
			t.Errorf("decode of %d/%d-byte truncation succeeded", cut, len(buf))
		}
	}
	if _, err := DecodeMessage(append(append([]byte(nil), buf...), 0xFF)); err == nil {
		t.Error("decode with trailing garbage succeeded")
	}
	if _, err := DecodeMessage([]byte{0x7E, 0x01}); err == nil {
		t.Error("decode of unknown tag succeeded")
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("decode of empty buffer succeeded")
	}
	if _, err := AppendMessage(nil, struct{ X int }{1}); err == nil {
		t.Error("encode of a non-wire type succeeded")
	}
}

// checkDecodeMessage is FuzzDecodeMessage's contract on one input:
// DecodeMessage never panics and returns a nil message beside any error;
// the entry strings of what it accepts are cut from one copy of the input
// (never from the input itself); and what it accepts, and messages whose
// entries are cut straight out of the input, encode to exactly
// MessageSize bytes that decode back to the same message.
func checkDecodeMessage(t *testing.T, b []byte) {
	t.Helper()
	roundTrip := func(msg any) {
		enc, err := AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("AppendMessage(%+v): %v", msg, err)
		}
		if len(enc) != MessageSize(msg) {
			t.Fatalf("MessageSize(%+v) = %d, AppendMessage wrote %d bytes", msg, MessageSize(msg), len(enc))
		}
		back, err := DecodeMessage(enc)
		if p, ok := msg.(pushReq); ok && p.Entries == nil {
			msg = pushReq{Entries: []oplog.Entry{}} // decode always makes the slice
		}
		if err != nil || !reflect.DeepEqual(back, msg) {
			t.Fatalf("DecodeMessage(AppendMessage(%+v)) = %+v, %v", msg, back, err)
		}
	}
	msg, err := DecodeMessage(b)
	if err != nil {
		if msg != nil {
			t.Fatalf("DecodeMessage(%q) returned %+v beside the error %v", b, msg, err)
		}
	} else {
		if lo, hi := entrySpan(msg); lo != 0 {
			if in := uintptr(unsafe.Pointer(unsafe.SliceData(b))); lo >= in && lo < in+uintptr(len(b)) {
				t.Fatalf("DecodeMessage(%q) cut entry strings from its input, not a copy", b)
			}
			if hi-lo > uintptr(len(b)) {
				t.Fatalf("DecodeMessage(%q): entry strings span %d bytes of a %d-byte input: more than one copy", b, hi-lo, len(b))
			}
		}
		roundTrip(msg)
	}
	q := len(b) / 4
	e := oplog.Entry{ID: uniq.ID(b[:q]), Kind: string(b[q : 2*q]), Key: string(b[2*q : 3*q]), Note: string(b[3*q:])}
	for i, c := range b {
		e.Arg, e.Lam, e.At = e.Arg<<7^int64(c)-int64(i), e.Lam<<5^uint64(c), e.At<<3^time.Duration(c)
	}
	roundTrip(pushReq{Entries: []oplog.Entry{e, {}, e}})
	roundTrip(applyReq{Op: e})
}

// entrySpan reports the lowest and highest address the non-empty entry
// strings of a decoded message occupy (0, 0 when there are none).
func entrySpan(msg any) (lo, hi uintptr) {
	var entries []oplog.Entry
	switch m := msg.(type) {
	case pushReq:
		entries = m.Entries
	case admitReq:
		entries = []oplog.Entry{m.Op}
	case applyReq:
		entries = []oplog.Entry{m.Op}
	}
	for _, e := range entries {
		for _, s := range []string{string(e.ID), e.Kind, e.Key, e.Note} {
			if s == "" {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			if lo == 0 || p < lo {
				lo = p
			}
			hi = max(hi, p+uintptr(len(s)))
		}
	}
	return lo, hi
}

func mustAppend(msg any) []byte {
	b, err := AppendMessage(nil, msg)
	if err != nil {
		panic(err)
	}
	return b
}

// messageSeeds start the fuzzer and are swept, every prefix of each, by
// TestDecodeMessageContract.
var messageSeeds = [][]byte{
	mustAppend(pushReq{Entries: []oplog.Entry{wireEntry(0), {}, {ID: "r1-000002", Kind: "\xff\xfe", Note: strings.Repeat("n", 130)}}}),
	mustAppend(pushReq{}),
	mustAppend(pushAck{OK: true}),
	mustAppend(admitReq{Op: wireEntry(3)}),
	mustAppend(admitAck{OK: false}),
	mustAppend(applyReq{Op: wireEntry(4)}),
	{wireTagPush, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00},                    // a count far past the body
	{wireTagApply, 0x88, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, // a padded entry length: accepted, re-encoded shorter
	{wireTagAdmit, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, // trailing byte
	{wireTagPushAck, 0x01, 0x01},                                         // an ack too long
	{0x7e},                                                               // unknown tag
}

func FuzzDecodeMessage(f *testing.F) {
	for _, s := range messageSeeds {
		f.Add(s)
	}
	f.Fuzz(checkDecodeMessage)
}

// TestDecodeMessageContract runs the fuzz target's contract in tier-1 over
// every prefix of every seed.
func TestDecodeMessageContract(t *testing.T) {
	for _, s := range messageSeeds {
		for n := 0; n <= len(s); n++ {
			checkDecodeMessage(t, s[:n])
		}
	}
}

// TestDecodedPushIsNeverRetained: a decoded push's entries are substrings
// of one copy of the frame, so anything a replica keeps must be its own —
// cut from the op set's arena, or copied — or every absorbed push pins its
// whole frame. After a push overdraws two accounts (two apologies) and the
// state is read, no string in the op set, the journal, the fold state's
// keys, the tracer or the apology queue lies inside the decoded copy.
func TestDecodedPushIsNeverRetained(t *testing.T) {
	overdraft := Rule[counterState]{Name: "no-overdraft", Violated: func(s counterState) []Violation {
		var out []Violation
		for k, v := range s {
			if v < 0 {
				out = append(out, Violation{Detail: "overdrawn", Key: k, Amount: -v})
			}
		}
		return out
	}}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			tr := trace.New(trace.Options{SampleEvery: 1})
			s := sim.New(5)
			opts := []Option{WithTransport(rpc.NewSimTransport(s)), WithReplicas(3), WithTracer(tr)}
			if durable {
				opts = append(opts, WithDurability(t.TempDir()))
			}
			c := New[counterState](counterApp{}, []Rule[counterState]{overdraft}, opts...)
			defer c.Close()
			var sent []oplog.Entry
			for i := 0; i < 8; i++ {
				kind := "credit"
				if i%4 == 3 {
					kind = "debit"
				}
				sent = append(sent, oplog.Entry{ID: uniq.ID(fmt.Sprintf("r1-%06d", i+1)), Kind: kind,
					Key: fmt.Sprintf("acct-%d", i%2), Note: "pushed", Arg: int64(100 * (i + 1)), Lam: uint64(i + 1)})
			}
			msg, err := DecodeMessage(mustAppend(pushReq{Entries: sent}))
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := entrySpan(msg)
			inCopy := func(s string) bool {
				p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				return s != "" && p >= lo && p < hi
			}
			r := c.Replica(0)
			acked := false
			r.handlePush(c.Replica(1).ID(), msg, func(resp any) { acked = resp.(pushAck).OK })
			for !acked && s.Step() { // a durable replica acks from its flush, the next event
			}
			if !acked {
				t.Fatal("push not acknowledged")
			}
			if st := r.State(); st["acct-1"] >= 0 || len(st) != 2 {
				t.Fatalf("state after the push = %v, want two accounts, acct-1 overdrawn", st)
			}
			check := func(where string, ss ...string) {
				t.Helper()
				for _, s := range ss {
					if inCopy(s) {
						t.Fatalf("%s holds %q, a cut of the decoded push", where, s)
					}
				}
			}
			entryStrings := func(e oplog.Entry) []string { return []string{string(e.ID), e.Kind, e.Key, e.Note} }
			for _, e := range r.Ops().Entries() {
				check("the op set", entryStrings(e)...)
			}
			r.mu.Lock()
			journaled := r.journal.Since(r.journal.Base(), math.MaxInt)
			r.mu.Unlock()
			if len(journaled) != len(sent) {
				t.Fatalf("journal holds %d entries, want %d", len(journaled), len(sent))
			}
			for _, e := range journaled {
				check("the journal", entryStrings(e)...)
			}
			r.View(func(s counterState) {
				for k := range s {
					check("the fold state", k)
				}
			})
			for _, e := range sent {
				events, _ := tr.OpTimeline(string(e.ID))
				for _, ev := range events {
					check("a tracer timeline", ev.Op, ev.Key, ev.Replica, ev.Peer, ev.Note)
				}
			}
			for _, ev := range tr.Recent(1 << 10) {
				check("the tracer's ring", ev.Op, ev.Key, ev.Replica, ev.Peer, ev.Note)
			}
			for _, ref := range tr.Apologies(16) {
				check("the tracer's apologies", ref.Op, ref.Key)
			}
			all := append(c.Apologies.Automated(), c.Apologies.Human()...)
			if len(all) == 0 {
				t.Fatal("the overdraft raised no apology")
			}
			for _, a := range all {
				check("the apology queue", string(a.ID), a.Rule, a.Detail, a.Key)
			}
		})
	}
}
