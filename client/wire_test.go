package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/testenv"
)

// ---- encoding: Append… is json.Marshal, byte for byte ----

// nasty are the strings an escaper gets wrong: HTML characters, quotes and
// backslashes, every control byte, DEL, U+2028/U+2029, invalid UTF-8, and
// multi-byte runes on either side of each.
var nasty = []string{
	"", "acct-0001", `<script>alert("&")</script>`, `a"b\c/d`, "tab\there\nnewline\r\b\f",
	"\x00\x01\x1f\x7f", "line\u2028sep\u2029end", "bad\xffutf8\xc3", "\xed\xa0\x80", "日本語 ключ 🔑",
	"&&&", `\\`, `"`, "a\u2028", "\xe2\x80", "é<",
}

func genString(r *rand.Rand) string {
	if r.Intn(3) == 0 {
		return nasty[r.Intn(len(nasty))]
	}
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

func genInt(r *rand.Rand) int64 {
	switch r.Intn(6) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return 0
	case 3:
		return -int64(r.Intn(1000))
	}
	return r.Int63() >> uint(r.Intn(63))
}

func genOp(r *rand.Rand) Op {
	op := Op{Kind: genString(r), Key: genString(r), Arg: genInt(r)}
	if r.Intn(2) == 0 {
		op.ID = genString(r)
	}
	if r.Intn(3) == 0 {
		op.Note = genString(r)
	}
	return op
}

func genResult(r *rand.Rand) Result {
	res := Result{Accepted: r.Intn(2) == 0, ID: genString(r)}
	if r.Intn(2) == 0 {
		res.Reason = genString(r)
	}
	res.Retryable, res.Sync = r.Intn(4) == 0, r.Intn(4) == 0
	if r.Intn(2) == 0 {
		res.Lamport = r.Uint64() >> uint(r.Intn(64))
	}
	if r.Intn(2) == 0 {
		res.LatencyNS = genInt(r)
	}
	return res
}

// genKeys returns nil, empty, small and 10 000-key maps.
func genKeys(r *rand.Rand, i int) map[string]int64 {
	var n int
	switch i % 5 {
	case 0:
		return nil
	case 1:
		n = 0
	case 2:
		n = 10000
	default:
		n = r.Intn(40)
	}
	m := make(map[string]int64, n)
	for len(m) < n {
		k := genString(r)
		if n > len(nasty) {
			k += fmt.Sprint(len(m))
		}
		m[k] = genInt(r)
	}
	return m
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAppendMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	same := func(what string, got []byte, v any) {
		t.Helper()
		if want := mustMarshal(t, v); !bytes.Equal(got, want) {
			if len(want) > 300 {
				t.Fatalf("%s: encodings differ (%d vs %d bytes)", what, len(got), len(want))
			}
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
	}
	for _, s := range nasty {
		same("string", appendString(nil, s), s)
	}
	for i := 0; i < 400; i++ {
		sub := SubmitRequest{Op: genOp(r), Sync: r.Intn(2) == 0}
		same("SubmitRequest", AppendSubmitRequest(nil, &sub), sub)

		res := genResult(r)
		same("Result", AppendResult(nil, &res), res)

		env := ErrorEnvelope{Error: Error{Code: genString(r), Message: genString(r)}}
		same("ErrorEnvelope", AppendErrorEnvelope(nil, &env), env)

		breq := BatchRequest{Sync: r.Intn(2) == 0}
		bres := BatchResponse{}
		if n := r.Intn(5) - 1; n >= 0 { // -1 leaves both nil: "null"
			breq.Ops, bres.Results = make([]Op, n), make([]Result, n)
			for j := 0; j < n; j++ {
				breq.Ops[j], bres.Results[j] = genOp(r), genResult(r)
			}
		}
		same("BatchRequest", AppendBatchRequest(nil, &breq), breq)
		same("BatchResponse", AppendBatchResponse(nil, &bres), bres)
	}
	for i := 0; i < 25; i++ {
		st := StateResponse{Node: r.Intn(5) - 1, Shards: r.Intn(9), Keys: genKeys(r, i)}
		same("StateResponse", AppendState(nil, st.Node, st.Shards, st.Keys), st)

		// The daemon's form: the same keys spread over disjoint folds.
		folds := make([]map[string]int64, 1+r.Intn(4))
		for k, v := range st.Keys {
			f := &folds[r.Intn(len(folds))]
			if *f == nil {
				*f = map[string]int64{}
			}
			(*f)[k] = v
		}
		if st.Keys != nil && folds[0] == nil {
			folds[0] = map[string]int64{} // empty, not null
		}
		same("StateResponse over folds", AppendState(nil, st.Node, st.Shards, folds...), st)
	}
}

// ---- decoding: Scan… against encoding/json as the oracle ----

// oracle decodes b the way the daemon's cold endpoints do: unknown fields
// refused, nothing but whitespace after the value.
func oracle(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the top-level value")
	}
	return nil
}

// checkScan holds one input to the contract: what the scanner accepts the
// oracle accepts, to the same value; what the scanner refuses the oracle
// refuses, unless the refusal is one of the two listed tightenings — a
// field name that only matches after encoding/json's case folding, or a
// field that appears twice in one object.
func checkScan[T any](t *testing.T, b []byte, scan func([]byte, *T) error) {
	t.Helper()
	var got, want T
	errScan, errOracle := scan(b, &got), oracle(b, &want)
	switch {
	case errScan == nil && errOracle != nil:
		t.Fatalf("scanner accepted %q as %+v; encoding/json refuses it: %v", b, got, errOracle)
	case errScan == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n scanner %+v\n  oracle %+v", b, got, want)
		}
	case errOracle == nil:
		var se *scanError
		if !errors.As(errScan, &se) {
			t.Fatalf("%q: scanner error %v is not a *scanError", b, errScan)
		}
		switch se.kind {
		case errDuplicate:
		case errUnknown:
			// Legitimate only if encoding/json folds the name onto a
			// real field of some object in T.
			if !foldsToField(se.name) {
				t.Fatalf("%q: scanner calls %q unknown; encoding/json accepts the input as %+v", b, se.name, want)
			}
		default:
			t.Fatalf("scanner refused %q (%v); encoding/json accepts it as %+v", b, errScan, want)
		}
	}
}

// foldsToField reports whether encoding/json would match name to a field
// of any hot type though the bytes differ.
func foldsToField(name string) bool {
	body := append(appendString([]byte{'{'}, name), ":null}"...)
	for _, v := range []any{&SubmitRequest{}, &Result{}, &BatchRequest{}, &BatchResponse{}, &StateResponse{}, &ErrorEnvelope{}, &Error{}} {
		if oracle(body, v) == nil {
			return true
		}
	}
	return false
}

var submitSeeds = []string{
	`{"kind":"deposit","key":"acct-0001","arg":1,"id":"cli-0123456789abcdef01234567"}`,
	`{"kind":"withdraw","key":"k","arg":-5,"note":"n","sync":true}`,
	` { "kind" : "a\u0062\n\"\\\/\b\f\r\t" , "arg" : -0 } `,
	`{"kind":"\ud83d\udd11 \ud800 \udc00\ud800x \ud83dA"}`, `{"key":"bad` + "\xff" + `utf8"}`,
	`null`, `{}`, ` `, ``, `{"arg":null,"kind":null,"sync":null}`,
	`{"kind":"a"}{"kind":"b"}`, `{"kind":"a"} x`, `{"kind":"a",}`, `{"kind":"a" "key":"b"}`, `{,}`,
	`{"KIND":"a"}`, `{"Kind":"a"}`, `{"ſync":true}`, `{"\u006bind":"a"}`, `{"k\u0131nd":"a"}`, // folds, an escaped exact name, a non-fold
	`{"kind":"a","kind":"b"}`, `{"typo":1}`, `{"kind":"a","op":{}}`,
	`{"arg":1.0}`, `{"arg":1e3}`, `{"arg":01}`, `{"arg":+1}`, `{"arg":-}`, `{"arg":9223372036854775807}`,
	`{"arg":9223372036854775808}`, `{"arg":-9223372036854775808}`, `{"arg":-9223372036854775809}`,
	`{"arg":"1"}`, `{"kind":1}`, `{"sync":1}`, `{"sync":"true"}`, `{"sync":tru}`, `{"sync":truex}`, `{"kind":nul}`,
	`{"kind":"a` + "\n" + `"}`, `{"kind":"\x"}`, `{"kind":"\u12"}`, `{"kind":"\u12G4"}`, `{"kind":"unterminated`, `{"kind":"a\`,
	`{"ops":[null,{"kind":"a","key":"k"},null],"sync":true}`, `{"ops":[]}`, `{"ops":null}`, `{"ops":[{"kind":"a"},]}`, `{"ops":[{"sync":true}]}`, `{"ops":{}}`,
	`[]`, `"s"`, `5`, `true`, `{"kind":"a"`, `{"kind"`, `{"kind":`, "\ufeff{}", `{"kind":"a"}` + "\x00",
}

var resultSeeds = []string{
	`{"accepted":true,"id":"cli-0123456789abcdef01234567","lamport":123456,"latency_ns":45678}` + "\n",
	`{"accepted":false,"reason":"declined by rule no-overdraft","retryable":true,"sync":true,"id":""}`,
	`{"lamport":18446744073709551615}`, `{"lamport":18446744073709551616}`, `{"lamport":-1}`, `{"lamport":-0}`, `{"lamport":0}`,
	`{"latency_ns":-9223372036854775808}`, `{"accepted":null,"id":null}`, `{"Accepted":true}`, `{"id":"a","id":"b"}`, `{"extra":[1,{"a":2}]}`,
	`{"results":[null]}`, `{"results":[]}`, `{"error":null}`, `{"error":{"code":null}}`, `{"error":{"code":"a","code":"b"}}`, `{"error":"overloaded"}`,
	`{"error":{"code":"overloaded","message":"ingest ring saturated"}}`, `{"results":[{"accepted":true,"id":"x"},{"accepted":false,"id":"y"}]}`,
}

var stateSeeds = []string{
	`{"node":0,"shards":1,"keys":{"acct-17":300,"acct-9":1250}}` + "\n",
	`{"node":1,"shards":4,"keys":{}}`, `{"keys":null}`, `{"node":-1}`, `{"keys":{"a":null,"b":-0}}`,
	`{"keys":{"a":1,"a":2}}`, `{"keys":{"a":1,"a":null}}`, `{"keys":{"a":1},"keys":{"b":2}}`,
	`{"keys":{"k\u0065y":1,"tab\t":2,"` + "\xff" + `":3,"\ud800":4,"a:b,c}":5,"q\"}":6}}`,
	`{"keys":{"a":1.5}}`, `{"keys":{"a":"1"}}`, `{"keys":{"a":1,}}`, `{"keys":{,}}`, `{"keys":[]}`, `{"keys":{"a"}}`, `{"keys":{"a":}}`,
	`{"keys":{a:1}}`, `{"node":9223372036854775808}`, `{"node":1.0}`, `{"Keys":{}}`, `{"keys":{"a":1}} trailing`, `{"keys":{"a":{}}}`,
	`{"keys":{` + strings.Repeat(",", 64) + `}}`, `{"keys":{` + strings.Repeat(`"":0,`, 40) + `"":1}}`,
}

// TestScanMatchesEncodingJSON runs the fuzz targets' contract over their
// seed lists, and over every prefix of each, so tier-1 covers truncation at
// every byte without the fuzzer.
func TestScanMatchesEncodingJSON(t *testing.T) {
	for _, seeds := range [][]string{submitSeeds, resultSeeds, stateSeeds} {
		for _, s := range seeds {
			for n := 0; n <= len(s); n++ {
				b := []byte(s[:n])
				checkScan(t, b, ScanSubmitRequest)
				checkScan(t, b, ScanBatchRequest)
				checkScan(t, b, ScanResult)
				checkScan(t, b, ScanBatchResponse)
				checkScan(t, b, ScanErrorEnvelope)
				checkScan(t, b, ScanState)
			}
		}
	}
}

// TestScanTightenings pins the refusals that are deliberate: each input is
// one encoding/json accepts.
func TestScanTightenings(t *testing.T) {
	for _, tc := range []struct {
		body string
		kind int
	}{
		{`{"KIND":"deposit"}`, errUnknown},
		{`{"kind":"deposit","Sync":true}`, errUnknown},
		{`{"ſync":true}`, errUnknown}, // U+017F folds to s
		{`{"kind":"a","kind":"b"}`, errDuplicate},
		{`{"kind":"a","arg":1,"arg":null}`, errDuplicate},
	} {
		var v, w SubmitRequest
		if err := oracle([]byte(tc.body), &w); err != nil {
			t.Fatalf("%s: encoding/json refuses it too: %v", tc.body, err)
		}
		var se *scanError
		if err := ScanSubmitRequest([]byte(tc.body), &v); !errors.As(err, &se) || se.kind != tc.kind {
			t.Errorf("%s: got %v, want a kind-%d refusal", tc.body, err, tc.kind)
		}
	}
	var st StateResponse
	var se *scanError
	if err := ScanState([]byte(`{"keys":{"a":1},"keys":{"b":2}}`), &st); !errors.As(err, &se) || se.kind != errDuplicate {
		t.Errorf("repeated keys object: got %v (encoding/json merges the two)", err)
	}
}

// TestScanRoundTrip: whatever Append writes, Scan reads back. Strings that
// are not valid UTF-8 come back as encoding/json returns them, U+FFFD in
// place of each bad byte.
func TestScanRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		sub := SubmitRequest{Op: genOp(r), Sync: r.Intn(2) == 0}
		checkScan(t, AppendSubmitRequest(nil, &sub), ScanSubmitRequest)
		res := genResult(r)
		checkScan(t, AppendResult(nil, &res), ScanResult)
		breq := BatchRequest{Ops: []Op{genOp(r), genOp(r)}}
		checkScan(t, AppendBatchRequest(nil, &breq), ScanBatchRequest)
		bres := BatchResponse{Results: []Result{genResult(r), genResult(r)}}
		checkScan(t, AppendBatchResponse(nil, &bres), ScanBatchResponse)
	}
	for i := 0; i < 10; i++ {
		checkScan(t, AppendState(nil, i, 1, genKeys(r, i)), ScanState)
	}
}

func FuzzScanSubmitRequest(f *testing.F) {
	for _, s := range submitSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkScan(t, b, ScanSubmitRequest)
		checkScan(t, b, ScanBatchRequest)
	})
}

func FuzzScanResult(f *testing.F) {
	for _, s := range resultSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkScan(t, b, ScanResult)
		checkScan(t, b, ScanBatchResponse)
		checkScan(t, b, ScanErrorEnvelope)
	})
}

func FuzzScanState(f *testing.F) {
	for _, s := range stateSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkScan(t, b, ScanState)
	})
}

// ---- the buffer ----

// trickle returns its bytes a few at a time and never says how many there
// are.
type trickle struct {
	left int
	step int
}

func (r *trickle) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	n := min(r.step, r.left, len(p))
	for i := range p[:n] {
		p[i] = 'x'
	}
	r.left -= n
	return n, nil
}

func TestBufferReadAllStopsAtTheLimit(t *testing.T) {
	for _, tc := range []struct {
		size, limit int
		tooLarge    bool
	}{{0, 10, false}, {10, 10, false}, {11, 10, true}, {5000, 4096, true}, {4096, 4096, false}} {
		b := GetBuffer()
		src := &trickle{left: tc.size, step: 7}
		err := b.ReadAll(src, tc.limit)
		if got := errors.Is(err, ErrTooLarge); got != tc.tooLarge || (err != nil && !got) {
			t.Errorf("size %d limit %d: err = %v", tc.size, tc.limit, err)
		}
		if !tc.tooLarge && len(b.B) != tc.size {
			t.Errorf("size %d: read %d bytes", tc.size, len(b.B))
		}
		if tc.tooLarge && tc.size-src.left > tc.limit+7 {
			t.Errorf("size %d limit %d: kept reading to byte %d", tc.size, tc.limit, tc.size-src.left)
		}
		b.Free()
	}
	big := &Buffer{B: make([]byte, 0, maxPooledBuffer+1)}
	big.Free() // must not land in the pool
	for i := 0; i < 100; i++ {
		b := GetBuffer()
		if cap(b.B) > maxPooledBuffer {
			t.Fatalf("the pool kept a %d-byte buffer", cap(b.B))
		}
		defer b.Free()
	}
}

// ---- allocation pins ----

// TestStateCodecAllocations pins what the state codec is for: a 1 024-key
// read used to cost some 2 100 allocations to decode (a string and a
// reflect.New per key) and three per key to encode.
func TestStateCodecAllocations(t *testing.T) {
	testenv.SkipUnderRace(t)
	keys := make(map[string]int64, 1024)
	for i := 0; i < 1024; i++ {
		keys[fmt.Sprintf("acct-%04d", i)] = int64(i) << 20
	}
	buf := AppendState(nil, 0, 1, keys) // warm: the buffer and the pooled sort scratch are grown
	if got := testing.AllocsPerRun(50, func() { buf = AppendState(buf[:0], 0, 1, keys) }); got > 2 {
		t.Errorf("AppendState of 1024 keys into a warm buffer allocates %.0f times, want at most 2", got)
	}
	var st StateResponse
	if got := testing.AllocsPerRun(50, func() {
		if err := ScanState(buf, &st); err != nil {
			t.Fatal(err)
		}
	}); got > 24 {
		t.Errorf("ScanState of 1024 keys allocates %.0f times, want at most 24", got)
	}
	if !reflect.DeepEqual(st.Keys, keys) {
		t.Fatal("the pinned decode is wrong")
	}
}
