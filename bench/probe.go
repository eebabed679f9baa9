package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/oplog"
)

// The layer pass sees inside the product only through seams the product
// already has: an http.RoundTripper under the SDK, a core.Transport
// around the live one, a faultfs.FS around the real one. Each wrapper
// counts always and records spans while the recorder is on.

// span is one timed call into a layer. Spans of one op share its stream
// index; a layer's self time is its span minus what its children cover.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = none
	Op     int32  `json:"op"`     // stream index; -1 for background work and micro-calls
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

const maxSpans = 1 << 19

// recorder keeps spans in a slice allocated before the clock starts and
// writes them out when the workload ends.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	// cur names the single worker's op in flight, so a wrapper beneath the
	// product can attribute its span: top-span id << 32 | stream index.
	cur atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 1, maxSpans)} // id 0 is "no span"
}

// open reserves a span so children can name it before it ends.
func (r *recorder) open(op int, layer, name string) int32 {
	if !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Op: int32(op), Layer: layer, Name: name})
	return id
}

func (r *recorder) close(id int32, parent int32, start time.Time, d time.Duration) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	s := &r.spans[id]
	s.Parent = parent
	s.Start = int64(start.Sub(r.epoch))
	s.End = s.Start + int64(d)
	r.mu.Unlock()
}

// add records a finished span.
func (r *recorder) add(parent int32, op int, layer, name string, start time.Time, d time.Duration) {
	r.close(r.open(op, layer, name), parent, start, d)
}

// addBelow records a finished span from beneath the product: under the
// op in flight when the op waits for it (own), under nothing when it is
// background work.
func (r *recorder) addBelow(own bool, layer, name string, start time.Time, d time.Duration) {
	if cur := r.cur.Load(); own && cur != 0 {
		r.add(int32(cur>>32), int(int32(cur)), layer, name, start, d)
		return
	}
	r.add(0, -1, layer, name, start, d)
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// all copies the spans recorded so far; a straggling background call may
// still be adding one.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all()[1:] {
		if s.End != 0 {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtProbe puts a timing http.RoundTripper under the SDK, through
// client.WithHTTPClient. Its span runs from the request leaving to the
// response body being closed, so what is left of client.Submit is the
// SDK's own work.
type rtProbe struct {
	rec *recorder

	trips, shed                  atomic.Int64
	submits, reqBytes, respBytes atomic.Int64 // POST /v1/submit only: a state read's 20 KB would swamp the mean
}

func (p *rtProbe) wrap(next http.RoundTripper) http.RoundTripper { return &probedRT{next: next, p: p} }

type probedRT struct {
	next http.RoundTripper
	p    *rtProbe
}

func (t *probedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.p
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	p.trips.Add(1)
	if err != nil {
		p.rec.addBelow(true, "daemon", "roundtrip", start, time.Since(start))
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		p.shed.Add(1)
	}
	submit := req.URL.Path == "/v1/submit"
	if submit {
		p.submits.Add(1)
		p.reqBytes.Add(req.ContentLength)
	}
	resp.Body = &rtBody{ReadCloser: resp.Body, p: p, start: start, submit: submit}
	return resp, nil
}

type rtBody struct {
	io.ReadCloser
	p      *rtProbe
	start  time.Time
	submit bool
}

func (b *rtBody) Read(buf []byte) (int, error) {
	n, err := b.ReadCloser.Read(buf)
	if b.submit {
		b.p.respBytes.Add(int64(n))
	}
	return n, err
}

func (b *rtBody) Close() error {
	err := b.ReadCloser.Close()
	b.p.rec.addBelow(true, "daemon", "roundtrip", b.start, time.Since(b.start))
	return err
}

// transportProbe is a pass-through core.Transport: it forwards the
// Scatter and WallClocked capabilities the live transport has, and wraps
// every node's Handle and Call to count messages and time push handlers.
type transportProbe struct {
	rec       *recorder
	capturing atomic.Bool // false during set-up, whose pushes are not the workload's

	calls                       atomic.Int64 // replica-to-replica requests sent
	pushes, pushEntries, pushNs atomic.Int64

	mu       sync.Mutex
	pushLat  []uint32
	wire     []byte   // the push being counted, encoded
	captured [][]byte // pushes delivered to entry 1, encoded, in arrival order
	capN     int      // entries in captured
	ack      any      // one push acknowledgement, for the netx replay
}

const captureEntries = 1 << 16

// pushLatencies copies the push-handler timings numbered from..to.
func (p *transportProbe) pushLatencies(from, to int) []uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.pushLat[from:to])
}

// capture returns the pushes captured, encoded, and one acknowledgement.
func (p *transportProbe) capture() (pushes [][]byte, ack any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.captured), p.ack
}

func (p *transportProbe) wrap(tr core.Transport) core.Transport {
	return &probedTransport{Transport: tr, p: p}
}

type probedTransport struct {
	core.Transport
	p *transportProbe
}

func (t *probedTransport) Node(id string, timeout time.Duration) core.Node {
	return &probedNode{Node: t.Transport.Node(id, timeout), p: t.p}
}

func (t *probedTransport) Scatter(fns []func()) { t.Transport.(core.Scatterer).Scatter(fns) }
func (t *probedTransport) WallClocked() bool    { return true }

type probedNode struct {
	core.Node
	p *transportProbe
}

func (n *probedNode) Call(to, method string, req any, done func(any, bool)) {
	n.p.calls.Add(1)
	n.Node.Call(to, method, req, done)
}

func (n *probedNode) Broadcast(to []string, method string, req any, done func([]any, int)) {
	n.p.calls.Add(int64(len(to)))
	n.Node.Broadcast(to, method, req, done)
}

func (n *probedNode) Handle(method string, h core.Handler) {
	if method != "push" {
		n.Node.Handle(method, h)
		return
	}
	// The single worker enters at entry 0, so entry 1 is an absorbing
	// replica: its pushes arrive from the origin and, with three replicas,
	// from the other neighbour too — the two-origin absorb pattern.
	capture := n.ID() == core.NodeID(1, 0, 1)
	n.Node.Handle(method, func(from string, req any, reply func(any)) {
		start := time.Now()
		h(from, req, func(resp any) {
			d := time.Since(start)
			reply(resp)
			n.p.pushed(capture, req, resp, start, d)
		})
	})
}

// core keeps its message types private; its codec (core/wire.go) is the
// surface a transport sees, so the probes read a gossip push in that
// form: tag 1, the entry count as a uvarint, then each entry as a uvarint
// length and its oplog encoding.
const wireTagPush = 1

// pushCount reads the entry count of an encoded push.
func pushCount(wire []byte) (int, error) {
	if len(wire) < 2 || wire[0] != wireTagPush {
		return 0, fmt.Errorf("not an encoded gossip push")
	}
	n, sz := binary.Uvarint(wire[1:])
	if sz <= 0 {
		return 0, fmt.Errorf("truncated push count")
	}
	return int(n), nil
}

// pushEntries decodes the entries of an encoded push.
func pushEntries(wire []byte) ([]oplog.Entry, error) {
	n, err := pushCount(wire)
	if err != nil {
		return nil, err
	}
	_, sz := binary.Uvarint(wire[1:])
	b := wire[1+sz:]
	entries := make([]oplog.Entry, 0, n)
	for len(entries) < n {
		size, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < size {
			return nil, fmt.Errorf("truncated push entry")
		}
		e, err := oplog.DecodeEntry(b[sz : sz+int(size)])
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
		b = b[sz+int(size):]
	}
	return entries, nil
}

// pushOf builds the gossip push that carries entries, through the codec.
func pushOf(entries []oplog.Entry) (any, error) {
	wire := binary.AppendUvarint([]byte{wireTagPush}, uint64(len(entries)))
	for _, e := range entries {
		wire = binary.AppendUvarint(wire, uint64(oplog.EntrySize(e)))
		wire = oplog.AppendEntry(wire, e)
	}
	return core.DecodeMessage(wire)
}

func (p *transportProbe) pushed(capture bool, req, resp any, start time.Time, d time.Duration) {
	p.mu.Lock()
	var n int
	var err error
	if p.wire, err = core.AppendMessage(p.wire[:0], req); err == nil {
		n, err = pushCount(p.wire)
	}
	if err != nil {
		p.mu.Unlock()
		return // not a push this codec knows: the micro-pass will find nothing captured and say so
	}
	p.pushLat = append(p.pushLat, uint32(min(d, 1<<32-1)))
	if capture && p.capturing.Load() && p.capN < captureEntries {
		p.captured = append(p.captured, slices.Clone(p.wire))
		p.capN += n
		p.ack = resp
	}
	p.mu.Unlock()
	p.pushes.Add(1)
	p.pushEntries.Add(int64(n))
	p.pushNs.Add(int64(d))
	p.rec.addBelow(false, "core", "push_handle", start, d)
}

// fsProbe is a counting pass-through faultfs.FS.
type fsProbe struct {
	faultfs.FS
	rec *recorder
	own string // path element of entry 0's store: the single worker waits for its flushes only

	writes, writeBytes, syncs atomic.Int64

	mu      sync.Mutex
	syncLat []uint32
}

// syncLatencies copies the fsync timings numbered from..to.
func (p *fsProbe) syncLatencies(from, to int) []uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.syncLat[from:to])
}

func newFSProbe(rec *recorder) *fsProbe {
	sep := string(filepath.Separator)
	return &fsProbe{FS: faultfs.OS, rec: rec, own: sep + core.NodeID(1, 0, 0) + sep}
}

func (p *fsProbe) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &probedFile{File: f, p: p, own: strings.Contains(name, p.own)}, nil
}

func (p *fsProbe) Open(name string) (faultfs.File, error) {
	f, err := p.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &probedFile{File: f, p: p, own: strings.Contains(name+string(filepath.Separator), p.own)}, nil
}

type probedFile struct {
	faultfs.File
	p   *fsProbe
	own bool
}

func (f *probedFile) wrote(n int, start time.Time) {
	f.p.writes.Add(1)
	f.p.writeBytes.Add(int64(n))
	f.p.rec.addBelow(f.own, "faultfs", "write", start, time.Since(start))
}

func (f *probedFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	f.wrote(n, start)
	return n, err
}

func (f *probedFile) WriteAt(b []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(b, off)
	f.wrote(n, start)
	return n, err
}

func (f *probedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.p.syncs.Add(1)
	f.p.mu.Lock()
	f.p.syncLat = append(f.p.syncLat, uint32(min(d, 1<<32-1)))
	f.p.mu.Unlock()
	f.p.rec.addBelow(f.own, "faultfs", "sync", start, d)
	return err
}
