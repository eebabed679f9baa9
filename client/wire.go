package client

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the one JSON codec for the hot wire types — SubmitRequest
// and Op, Result, BatchRequest and BatchResponse, StateResponse — and for
// ErrorEnvelope, which every shed reply carries. The SDK and the daemon
// both call it, so a guess crosses the edge without reflection at either
// end.
//
// Append… writes exactly the bytes json.Marshal writes for the same value:
// field order, omitempty, sorted map keys, HTML-safe escaping, U+FFFD for
// invalid UTF-8, null for a nil slice or map. Scan… accepts what
// encoding/json with DisallowUnknownFields accepts and yields the same
// value, with two deliberate tightenings: a field name must match byte for
// byte (encoding/json folds case), and a field may appear once per object
// (encoding/json merges repeats). Anything after the value but whitespace
// is an error. wire_test.go pins both directions against encoding/json.

// Buffer is a byte slice on loan from a pool shared by the SDK and the
// daemon. Take one with GetBuffer and give it back with Free.
type Buffer struct{ B []byte }

// maxPooledBuffer is the largest buffer Free keeps: a steady stream of
// 20 KB state replies reuses its buffers, one 8 MiB read does not pin
// 8 MiB for the life of the process.
const maxPooledBuffer = 256 << 10

var bufferPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 512)} }}

// GetBuffer returns an empty buffer.
func GetBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// Free returns b to the pool. Nothing may use b or b.B afterwards.
func (b *Buffer) Free() {
	if cap(b.B) > maxPooledBuffer {
		return
	}
	b.B = b.B[:0]
	bufferPool.Put(b)
}

// ErrTooLarge is ReadAll's error for a body longer than its limit.
var ErrTooLarge = errors.New("body exceeds the size limit")

// ReadAll appends r to b until EOF. It never trusts a declared length:
// the body is over the limit when byte limit+1 arrives, and ReadAll then
// stops reading and returns ErrTooLarge.
func (b *Buffer) ReadAll(r io.Reader, limit int) error {
	for {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if len(b.B) > limit {
			return ErrTooLarge
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ---- encoding ----

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json quotes it with HTML escaping on.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029': // valid JSON, but they break JSONP
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func appendOp(dst []byte, op *Op) []byte {
	dst = append(dst, `{"kind":`...)
	dst = appendString(dst, op.Kind)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, op.Key)
	dst = append(dst, `,"arg":`...)
	dst = strconv.AppendInt(dst, op.Arg, 10)
	if op.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = appendString(dst, op.ID)
	}
	if op.Note != "" {
		dst = append(dst, `,"note":`...)
		dst = appendString(dst, op.Note)
	}
	return dst // the caller closes the object: SubmitRequest adds sync first
}

// AppendSubmitRequest appends v as json.Marshal encodes it.
func AppendSubmitRequest(dst []byte, v *SubmitRequest) []byte {
	dst = appendOp(dst, &v.Op)
	if v.Sync {
		dst = append(dst, `,"sync":true`...)
	}
	return append(dst, '}')
}

// AppendBatchRequest appends v as json.Marshal encodes it.
func AppendBatchRequest(dst []byte, v *BatchRequest) []byte {
	dst = append(dst, `{"ops":`...)
	if v.Ops == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range v.Ops {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendOp(dst, &v.Ops[i]), '}')
		}
		dst = append(dst, ']')
	}
	if v.Sync {
		dst = append(dst, `,"sync":true`...)
	}
	return append(dst, '}')
}

// AppendResult appends v as json.Marshal encodes it.
func AppendResult(dst []byte, v *Result) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendBool(dst, v.Accepted)
	if v.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendString(dst, v.Reason)
	}
	if v.Retryable {
		dst = append(dst, `,"retryable":true`...)
	}
	if v.Sync {
		dst = append(dst, `,"sync":true`...)
	}
	dst = append(dst, `,"id":`...)
	dst = appendString(dst, v.ID)
	if v.Lamport != 0 {
		dst = append(dst, `,"lamport":`...)
		dst = strconv.AppendUint(dst, v.Lamport, 10)
	}
	if v.LatencyNS != 0 {
		dst = append(dst, `,"latency_ns":`...)
		dst = strconv.AppendInt(dst, v.LatencyNS, 10)
	}
	return append(dst, '}')
}

// AppendBatchResponse appends v as json.Marshal encodes it.
func AppendBatchResponse(dst []byte, v *BatchResponse) []byte {
	dst = append(dst, `{"results":`...)
	if v.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range v.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendResult(dst, &v.Results[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// AppendErrorEnvelope appends v as json.Marshal encodes it.
func AppendErrorEnvelope(dst []byte, v *ErrorEnvelope) []byte {
	dst = append(dst, `{"error":{"code":`...)
	dst = appendString(dst, v.Error.Code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, v.Error.Message)
	return append(dst, '}', '}')
}

type stateEntry struct {
	key string
	val int64
}

// maxPooledEntries bounds the sort scratch the pool keeps, for the reason
// maxPooledBuffer gives.
const maxPooledEntries = 1 << 14

var entryPool = sync.Pool{New: func() any { return new([]stateEntry) }}

// AppendState appends the StateResponse{node, shards, Keys: the union of
// folds} as json.Marshal encodes it, keys sorted, without building the
// union: the daemon passes each shard's published map as it is. The maps
// must not share a key. Keys is null when every fold is nil, as a nil
// map's is.
func AppendState(dst []byte, node, shards int, folds ...map[string]int64) []byte {
	dst = append(dst, `{"node":`...)
	dst = strconv.AppendInt(dst, int64(node), 10)
	dst = append(dst, `,"shards":`...)
	dst = strconv.AppendInt(dst, int64(shards), 10)
	dst = append(dst, `,"keys":`...)
	if !slices.ContainsFunc(folds, func(m map[string]int64) bool { return m != nil }) {
		return append(dst, "null}"...)
	}
	scratch := entryPool.Get().(*[]stateEntry)
	entries := (*scratch)[:0]
	for _, m := range folds {
		for k, v := range m {
			entries = append(entries, stateEntry{k, v})
		}
	}
	slices.SortFunc(entries, func(a, b stateEntry) int { return strings.Compare(a.key, b.key) })
	dst = append(dst, '{')
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, e.key)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, e.val, 10)
	}
	if cap(entries) <= maxPooledEntries {
		clear(entries) // the pool must not keep the maps' keys alive
		*scratch = entries
		entryPool.Put(scratch)
	}
	return append(dst, '}', '}')
}

// ---- decoding ----

// Why a scan failed. The fuzz tests use the kind to tell a deliberate
// tightening from a disagreement with encoding/json.
const (
	errSyntax    = iota // malformed JSON, or a value of the wrong type
	errUnknown          // a field name the type does not have
	errDuplicate        // a field name seen twice in one object
)

type scanError struct {
	kind   int
	offset int
	msg    string
	name   string // the field, for errUnknown and errDuplicate
}

func (e *scanError) Error() string {
	switch e.kind {
	case errUnknown:
		return fmt.Sprintf("unknown field %q at offset %d", e.name, e.offset)
	case errDuplicate:
		return fmt.Sprintf("duplicate field %q at offset %d", e.name, e.offset)
	}
	return fmt.Sprintf("%s at offset %d", e.msg, e.offset)
}

// scanner reads one JSON value out of s. Decoded strings without escapes
// are substrings of s, so decoding copies the body once however many
// strings it holds.
type scanner struct {
	s string
	i int
}

func (p *scanner) fail(msg string) error {
	return &scanError{kind: errSyntax, offset: p.i, msg: msg}
}

func (p *scanner) ws() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (p *scanner) eat(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// lit consumes the literal word if it is next.
func (p *scanner) lit(word string) bool {
	if strings.HasPrefix(p.s[p.i:], word) {
		p.i += len(word)
		return true
	}
	return false
}

// begin opens the one value in b.
func begin(b []byte) scanner {
	p := scanner{s: string(b)}
	p.ws()
	return p
}

// end closes the value: only whitespace may follow it.
func (p *scanner) end(err error) error {
	if err != nil {
		return err
	}
	p.ws()
	if p.i != len(p.s) {
		return p.fail("data after the top-level value")
	}
	return nil
}

// object scans {"name":value,…}. names lists the fields the type has;
// field is called with a member's index in names and the scanner at its
// value. A null — where the object belongs, or as a member's value — is
// consumed here and leaves its destination as it was, whatever its type:
// encoding/json's rule.
func (p *scanner) object(names []string, field func(i int) error) error {
	if p.lit("null") {
		return nil
	}
	if !p.eat('{') {
		return p.fail("expected an object")
	}
	p.ws()
	if p.eat('}') {
		return nil
	}
	var seen uint
	for {
		at := p.i
		name, err := p.str()
		if err != nil {
			return err
		}
		i := slices.Index(names, name)
		if i < 0 {
			return &scanError{kind: errUnknown, offset: at, name: name}
		}
		if seen&(1<<i) != 0 {
			return &scanError{kind: errDuplicate, offset: at, name: name}
		}
		seen |= 1 << i
		p.ws()
		if !p.eat(':') {
			return p.fail("expected ':' after a field name")
		}
		p.ws()
		if !p.lit("null") {
			if err := field(i); err != nil {
				return err
			}
		}
		p.ws()
		if p.eat('}') {
			return nil
		}
		if !p.eat(',') {
			return p.fail("expected ',' or '}' after a field")
		}
		p.ws()
	}
}

// array scans [value,…], calling elem with the scanner at each element.
func (p *scanner) array(elem func() error) error {
	if !p.eat('[') {
		return p.fail("expected an array")
	}
	p.ws()
	if p.eat(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		p.ws()
		if p.eat(']') {
			return nil
		}
		if !p.eat(',') {
			return p.fail("expected ',' or ']' after an element")
		}
		p.ws()
	}
}

// str scans a string. The common one — ASCII, no escapes — is returned as
// a substring of the input.
func (p *scanner) str() (string, error) {
	if !p.eat('"') {
		return "", p.fail("expected a string")
	}
	start := p.i
	for ; p.i < len(p.s); p.i++ {
		switch c := p.s[p.i]; {
		case c == '"':
			p.i++
			return p.s[start : p.i-1], nil
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			p.i = start
			return p.unquote()
		}
	}
	return "", p.fail("unterminated string")
}

// unquote scans the string whose body starts at p.i the way
// encoding/json unquotes it: every escape, surrogate pairs joined, a lone
// surrogate or invalid UTF-8 replaced by U+FFFD, a raw control byte
// refused.
func (p *scanner) unquote() (string, error) {
	var out []byte
	for p.i < len(p.s) {
		c := p.s[p.i]
		switch {
		case c == '"':
			p.i++
			return string(out), nil
		case c < 0x20:
			return "", p.fail("control character in a string")
		case c == '\\':
			p.i++
			if p.i == len(p.s) {
				return "", p.fail("unterminated string")
			}
			esc := p.s[p.i]
			p.i++
			switch esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := p.hex4()
				if !ok {
					return "", p.fail(`invalid \u escape`)
				}
				if utf16.IsSurrogate(r) {
					// A high half takes the low half that follows it.
					// Anything else is a lone surrogate, U+FFFD, and what
					// follows is scanned on its own.
					save, r2 := p.i, rune(0)
					if p.lit(`\u`) {
						r2, _ = p.hex4()
					}
					if r = utf16.DecodeRune(r, r2); r == unicode.ReplacementChar {
						p.i = save
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				p.i--
				return "", p.fail("invalid escape in a string")
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			p.i++
		default:
			r, size := utf8.DecodeRuneInString(p.s[p.i:])
			out = utf8.AppendRune(out, r) // RuneError appends U+FFFD
			p.i += size
		}
	}
	return "", p.fail("unterminated string")
}

// hex4 consumes four hex digits.
func (p *scanner) hex4() (rune, bool) {
	if len(p.s)-p.i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range []byte(p.s[p.i : p.i+4]) { // no copy: the compiler ranges over the string
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	p.i += 4
	return r, true
}

// number scans an integer: an optional minus and JSON's digits (no
// leading zero, no plus), refusing a fraction or exponent — every number
// on these types is an integer, and encoding/json refuses 1.0 for one too.
// It returns the magnitude and the sign.
func (p *scanner) number() (mag uint64, neg bool, err error) {
	neg = p.eat('-')
	start := p.i
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		d := uint64(p.s[p.i] - '0')
		if mag > (1<<64-1-d)/10 {
			return 0, false, p.fail("number out of range")
		}
		mag = mag*10 + d
		p.i++
	}
	switch digits := p.s[start:p.i]; {
	case digits == "":
		return 0, false, p.fail("expected a number")
	case len(digits) > 1 && digits[0] == '0':
		p.i = start
		return 0, false, p.fail("number with a leading zero")
	}
	if p.i < len(p.s) && (p.s[p.i] == '.' || p.s[p.i] == 'e' || p.s[p.i] == 'E') {
		return 0, false, p.fail("number is not an integer")
	}
	return mag, neg, nil
}

// int scans an integer that fits in bits bits.
func (p *scanner) int(bits int) (int64, error) {
	mag, neg, err := p.number()
	if err != nil {
		return 0, err
	}
	limit := uint64(1) << (bits - 1) // |MinInt|
	if mag > limit || mag == limit && !neg {
		return 0, p.fail("number out of range")
	}
	if neg {
		return -int64(mag), nil // MinInt's magnitude wraps to itself
	}
	return int64(mag), nil
}

func (p *scanner) uint64() (uint64, error) {
	mag, neg, err := p.number()
	if err == nil && neg {
		err = p.fail("negative number for an unsigned field")
	}
	return mag, err
}

func (p *scanner) bool() (bool, error) {
	switch {
	case p.lit("true"):
		return true, nil
	case p.lit("false"):
		return false, nil
	}
	return false, p.fail("expected true or false")
}

// Field names, in struct order; object hands back the index.
var (
	opFields       = []string{"kind", "key", "arg", "id", "note", "sync"} // Op's five, then SubmitRequest's own
	resultFields   = []string{"accepted", "reason", "retryable", "sync", "id", "lamport", "latency_ns"}
	batchFields    = []string{"ops", "sync"}
	resultsFields  = []string{"results"}
	stateFields    = []string{"node", "shards", "keys"}
	envelopeFields = []string{"error"}
	errorFields    = []string{"code", "message"}
)

// op scans an Op, or with sync non-nil a SubmitRequest.
func (p *scanner) op(v *Op, sync *bool) error {
	names := opFields
	if sync == nil {
		names = names[:5]
	}
	return p.object(names, func(i int) (err error) {
		switch i {
		case 0:
			v.Kind, err = p.str()
		case 1:
			v.Key, err = p.str()
		case 2:
			v.Arg, err = p.int(64)
		case 3:
			v.ID, err = p.str()
		case 4:
			v.Note, err = p.str()
		case 5:
			*sync, err = p.bool()
		}
		return err
	})
}

func (p *scanner) result(v *Result) error {
	return p.object(resultFields, func(i int) (err error) {
		switch i {
		case 0:
			v.Accepted, err = p.bool()
		case 1:
			v.Reason, err = p.str()
		case 2:
			v.Retryable, err = p.bool()
		case 3:
			v.Sync, err = p.bool()
		case 4:
			v.ID, err = p.str()
		case 5:
			v.Lamport, err = p.uint64()
		case 6:
			v.LatencyNS, err = p.int(64)
		}
		return err
	})
}

// ScanSubmitRequest decodes b into v, overwriting it. b may be reused as
// soon as it returns: v's strings share one copy of it.
func ScanSubmitRequest(b []byte, v *SubmitRequest) error {
	*v = SubmitRequest{}
	p := begin(b)
	return p.end(p.op(&v.Op, &v.Sync))
}

// ScanBatchRequest decodes b into v, overwriting it.
func ScanBatchRequest(b []byte, v *BatchRequest) error {
	*v = BatchRequest{}
	p := begin(b)
	return p.end(p.object(batchFields, func(i int) (err error) {
		if i == 1 {
			v.Sync, err = p.bool()
			return err
		}
		v.Ops = []Op{} // "ops":[] is empty, not nil, as encoding/json has it
		return p.array(func() error {
			v.Ops = append(v.Ops, Op{})
			return p.op(&v.Ops[len(v.Ops)-1], nil)
		})
	}))
}

// ScanResult decodes b into v, overwriting it.
func ScanResult(b []byte, v *Result) error {
	*v = Result{}
	p := begin(b)
	return p.end(p.result(v))
}

// ScanBatchResponse decodes b into v, overwriting it.
func ScanBatchResponse(b []byte, v *BatchResponse) error {
	*v = BatchResponse{}
	p := begin(b)
	return p.end(p.object(resultsFields, func(int) error {
		v.Results = []Result{}
		return p.array(func() error {
			v.Results = append(v.Results, Result{})
			return p.result(&v.Results[len(v.Results)-1])
		})
	}))
}

// ScanErrorEnvelope decodes b into v, overwriting it.
func ScanErrorEnvelope(b []byte, v *ErrorEnvelope) error {
	*v = ErrorEnvelope{}
	p := begin(b)
	return p.end(p.object(envelopeFields, func(int) error {
		return p.object(errorFields, func(i int) (err error) {
			if i == 0 {
				v.Error.Code, err = p.str()
			} else {
				v.Error.Message, err = p.str()
			}
			return err
		})
	}))
}

// ScanState decodes b into v, overwriting it. The keys of v.Keys are
// substrings of one copy of b and the map is sized before the first
// insert, so a state of any size decodes in a handful of allocations.
func ScanState(b []byte, v *StateResponse) error {
	*v = StateResponse{}
	p := begin(b)
	return p.end(p.object(stateFields, func(i int) error {
		if i == 2 {
			return p.keys(v)
		}
		n, err := p.int(strconv.IntSize)
		if i == 0 {
			v.Node = int(n)
		} else {
			v.Shards = int(n)
		}
		return err
	}))
}

// keys scans the keys object. A repeated key keeps its last value and a
// null value is zero, as encoding/json has both.
func (p *scanner) keys(v *StateResponse) error {
	if !p.eat('{') {
		return p.fail("expected an object")
	}
	v.Keys = make(map[string]int64, p.members())
	p.ws()
	if p.eat('}') {
		return nil
	}
	for {
		key, err := p.str()
		if err != nil {
			return err
		}
		p.ws()
		if !p.eat(':') {
			return p.fail("expected ':' after a key")
		}
		p.ws()
		var val int64
		if !p.lit("null") {
			if val, err = p.int(64); err != nil {
				return err
			}
		}
		v.Keys[key] = val
		p.ws()
		if p.eat('}') {
			return nil
		}
		if !p.eat(',') {
			return p.fail("expected ',' or '}' after a value")
		}
		p.ws()
	}
}

// members counts the members of the flat object whose body starts at p.i,
// in one pass and without consuming it, to size the map. A member is at
// least `"":0,`, which bounds what a body of commas can make it claim.
func (p *scanner) members() int {
	rest := p.s[p.i:]
	n, inString := 0, false
	for j := 0; j < len(rest); j++ {
		switch c := rest[j]; {
		case inString:
			if c == '\\' {
				j++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == ':':
			n++
		case c == '}':
			return min(n, len(rest)/5)
		}
	}
	return min(n, len(rest)/5)
}
