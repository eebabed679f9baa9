// Package trace records sampled op-lifecycle events — submitted →
// admitted/declined → journal-fsynced → gossiped-to-peer-i → folded →
// apologized — into a bounded in-memory ring, and derives the paper's
// headline operator metrics from them:
//
//   - guess-to-durable: submit until the journal fsync that covers the
//     op returns (how long a guess stays volatile);
//   - guess-to-truth: submit until every replica of the op's shard is
//     known to hold it (how long until the guess is globally known);
//   - guess-to-apology: a guess's lifetime until a rule violation on
//     its key surfaces an apology (how long a wrong guess lived).
//
// Tracing is sampled — 1-in-N by a hash of the op ID, so every replica
// and every process picks the same ops — with apologies always
// recorded. A nil *Tracer is the disabled state: every engine hook is
// gated on a nil check, so the hot path pays one predictable branch and
// zero allocations when tracing is off.
//
// Memory is bounded everywhere: the event ring wraps, per-op timelines
// are capped, and the op-state and per-key guess maps evict their
// oldest entry once full. A Tracer never grows past its configured
// footprint no matter how long the process runs.
package trace

import (
	"math/bits"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Kind identifies one lifecycle stage (or an out-of-band annotation).
type Kind uint8

const (
	KindSubmitted  Kind = iota + 1 // op entered the cluster at a replica
	KindAdmitted                   // op accepted into the replica's op set (the guess)
	KindDeclined                   // op rejected at ingress (policy/admission)
	KindFsynced                    // a journal fsync covering the op returned
	KindGossiped                   // a gossip push holding the op was acked by a peer
	KindAbsorbed                   // op absorbed from gossip at a replica
	KindFolded                     // op folded into the replica's published state
	KindTruth                      // every replica of the shard is known to hold the op
	KindApologized                 // a rule violation on the op's key raised an apology
	KindAnnotation                 // scenario/operator marker, not tied to an op
)

var kindNames = [...]string{
	KindSubmitted:  "submitted",
	KindAdmitted:   "admitted",
	KindDeclined:   "declined",
	KindFsynced:    "fsynced",
	KindGossiped:   "gossiped",
	KindAbsorbed:   "absorbed",
	KindFolded:     "folded",
	KindTruth:      "truth",
	KindApologized: "apologized",
	KindAnnotation: "annotation",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded lifecycle step. Events are fixed-size values —
// recording one copies a struct into a preallocated ring slot.
type Event struct {
	Seq     uint64 `json:"seq"`
	AtNs    int64  `json:"at_ns"`
	Kind    string `json:"kind"`
	Op      string `json:"op,omitempty"`
	Key     string `json:"key,omitempty"`
	Replica string `json:"replica,omitempty"`
	Peer    string `json:"peer,omitempty"` // acking peer for gossiped events
	Note    string `json:"note,omitempty"`
}

// ApologyRef points at an apologized op whose full timeline the tracer
// still holds — the dashboard's entry into /v1/trace?op=....
type ApologyRef struct {
	Op  string `json:"op"`
	Key string `json:"key"`
	At  int64  `json:"at_ns"`
}

// opState is the tracer's view of one sampled in-flight op. It owns id
// and key: a caller's strings may be cut from a request body or a gossip
// frame, and holding one of those would hold all of it for as long as the
// tracer remembers the op. Every event of the op carries these two.
type opState struct {
	id     string
	key    string
	submit int64
	held   uint64 // bitmask of replica ids known to hold the op
	truth  bool
	events []Event
}

type guessRef struct {
	op string
	at int64
}

// Options configures a Tracer. Zero values pick the defaults noted on
// each field.
type Options struct {
	SampleEvery int          // trace 1-in-N ops by ID hash; <=0 → 64, 1 → every op
	RingSize    int          // recent-event ring slots (rounded up to a power of two); <=0 → 4096
	MaxOps      int          // in-flight sampled op states kept; <=0 → 4096
	Replicas    int          // replicas per shard — the guess-to-truth popcount target; <=0 → 1
	Now         func() int64 // clock for events recorded without a caller timestamp
}

const maxTimeline = 48 // events kept per sampled op
const maxApologyRefs = 256

// Tracer records sampled lifecycle events. All methods are safe for
// concurrent use; the single mutex is uncontended in practice because
// only sampled ops (plus apologies and annotations) ever reach it.
type Tracer struct {
	sample   uint64
	replicas int

	mu        sync.Mutex
	clock     func() int64
	seq       uint64
	ring      []Event
	mask      uint64
	ops       map[string]*opState
	opQueue   []string // FIFO eviction order for ops
	lastGuess map[string]guessRef
	keyQueue  []string // FIFO eviction order for lastGuess
	maxOps    int
	apologies []ApologyRef
	apoHead   int

	durable stats.LatHist // guess-to-durable
	truth   stats.LatHist // guess-to-truth
	apology stats.LatHist // guess-to-apology
	gossip  stats.LatHist // submit → peer ack, per acked peer
}

// New builds a Tracer. The zero Options value gives 1-in-64 sampling, a
// 4096-slot ring, 4096 op states, and a wall clock.
func New(o Options) *Tracer {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 64
	}
	if o.RingSize <= 0 {
		o.RingSize = 4096
	}
	size := 1
	for size < o.RingSize {
		size <<= 1
	}
	if o.MaxOps <= 0 {
		o.MaxOps = 4096
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Now == nil {
		start := time.Now()
		o.Now = func() int64 { return int64(time.Since(start)) }
	}
	return &Tracer{
		sample:    uint64(o.SampleEvery),
		replicas:  o.Replicas,
		clock:     o.Now,
		ring:      make([]Event, size),
		mask:      uint64(size - 1),
		ops:       make(map[string]*opState, o.MaxOps),
		lastGuess: make(map[string]guessRef, o.MaxOps),
		maxOps:    o.MaxOps,
	}
}

// SetClock replaces the timestamp source — the cluster installs its
// transport clock here so annotations share the op events' time axis.
func (t *Tracer) SetClock(now func() int64) {
	if t == nil || now == nil {
		return
	}
	t.mu.Lock()
	t.clock = now
	t.mu.Unlock()
}

// SampleEvery reports the configured 1-in-N sampling rate.
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sample)
}

// Sampled reports whether ops with this ID are traced. The decision is
// a hash of the ID, so every replica — in this process or another —
// samples the same ops. It takes no lock and allocates nothing.
func (t *Tracer) Sampled(op string) bool { return t.sample <= 1 || fnv1a(op)%t.sample == 0 }

// SampledID is Sampled for an ID held as bytes: the engine decides before
// it builds an ID string, and builds one only for a sampled op.
func (t *Tracer) SampledID(op []byte) bool { return t.sample <= 1 || fnv1a(op)%t.sample == 0 }

// fnv1a hashes s with FNV-1a, allocation-free.
func fnv1a[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// record appends ev to the ring and, when st is non-nil, to the op's
// bounded timeline. Caller holds t.mu.
func (t *Tracer) record(st *opState, ev Event) {
	t.seq++
	ev.Seq = t.seq
	t.ring[t.seq&t.mask] = ev
	if st != nil && len(st.events) < maxTimeline {
		st.events = append(st.events, ev)
	}
}

// state returns the op's state, creating (and evicting the oldest, once
// full) as needed. Caller holds t.mu.
func (t *Tracer) state(op, key string, at int64) *opState {
	if st, ok := t.ops[op]; ok {
		if st.key == "" {
			st.key = strings.Clone(key)
		}
		return st
	}
	op = strings.Clone(op)
	if len(t.ops) >= t.maxOps && len(t.opQueue) > 0 {
		delete(t.ops, t.opQueue[0])
		t.opQueue = t.opQueue[1:]
	}
	st := &opState{id: op, key: strings.Clone(key), submit: at, events: make([]Event, 0, 8)}
	t.ops[op] = st
	t.opQueue = append(t.opQueue, op)
	return st
}

// bitFor assigns a stable bitmask bit to a replica id. Ops live in
// exactly one shard, so an op's held mask only ever collects that
// shard's replica bits and popcount-vs-replicas is the truth test
// regardless of which global bits those are.
func (t *Tracer) bitFor(replica string) uint64 {
	// Replica ids are distinct short strings; hash them onto 64 bits.
	// A collision between two replicas of one shard would undercount
	// holders and only delay a truth event, never fabricate one early —
	// except in the astronomically unlikely 64-bit hash collision case,
	// which we accept for a diagnostic.
	return 1 << (fnv1a(replica) & 63)
}

// Submitted records an op entering the cluster.
func (t *Tracer) Submitted(op, key, replica string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	st := t.state(op, key, at)
	st.submit = at
	t.record(st, Event{AtNs: at, Kind: kindNames[KindSubmitted], Op: st.id, Key: st.key, Replica: replica})
	t.mu.Unlock()
}

// Admitted records the guess: the op accepted into a replica's op set.
// It also becomes the key's "last guess" for apology attribution.
func (t *Tracer) Admitted(op, key, replica string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	st := t.state(op, key, at)
	st.held |= t.bitFor(replica)
	t.record(st, Event{AtNs: at, Kind: kindNames[KindAdmitted], Op: st.id, Key: st.key, Replica: replica})
	t.guessLocked(st.key, st.id, st.submit)
	t.checkTruthLocked(st, at)
	t.mu.Unlock()
}

func (t *Tracer) guessLocked(key, op string, at int64) {
	if key == "" {
		return
	}
	if _, ok := t.lastGuess[key]; !ok {
		if len(t.lastGuess) >= t.maxOps && len(t.keyQueue) > 0 {
			delete(t.lastGuess, t.keyQueue[0])
			t.keyQueue = t.keyQueue[1:]
		}
		t.keyQueue = append(t.keyQueue, key)
	}
	t.lastGuess[key] = guessRef{op: op, at: at}
}

// Declined records an ingress rejection.
func (t *Tracer) Declined(op, key, replica, reason string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	st := t.state(op, key, at)
	t.record(st, Event{AtNs: at, Kind: kindNames[KindDeclined], Op: st.id, Key: st.key, Replica: replica, Note: reason})
	t.mu.Unlock()
}

// Durable records that a journal fsync covering the op returned, and
// derives the guess-to-durable lag.
func (t *Tracer) Durable(op, replica string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	st := t.state(op, "", at)
	t.record(st, Event{AtNs: at, Kind: kindNames[KindFsynced], Op: st.id, Key: st.key, Replica: replica})
	if lag := at - st.submit; lag >= 0 {
		t.durable.Record(lag)
	}
	t.mu.Unlock()
}

// Folded records the op folded into a replica's published state.
func (t *Tracer) Folded(op, replica string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	st := t.state(op, "", at)
	t.record(st, Event{AtNs: at, Kind: kindNames[KindFolded], Op: st.id, Key: st.key, Replica: replica})
	t.mu.Unlock()
}

// Absorbed records the op arriving at a replica via gossip.
func (t *Tracer) Absorbed(op, replica string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	st := t.state(op, "", at)
	st.held |= t.bitFor(replica)
	t.record(st, Event{AtNs: at, Kind: kindNames[KindAbsorbed], Op: st.id, Key: st.key, Replica: replica})
	t.checkTruthLocked(st, at)
	t.mu.Unlock()
}

// GossipAcked records a peer's durable ack of a gossip push holding the
// op: the peer now holds it, which both feeds the gossip-propagation
// histogram and advances guess-to-truth. This is the cross-process
// observation — a daemon never sees a remote replica's absorb, but it
// does see the ack.
func (t *Tracer) GossipAcked(op, origin, peer string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	st := t.state(op, "", at)
	st.held |= t.bitFor(origin)
	st.held |= t.bitFor(peer)
	t.record(st, Event{AtNs: at, Kind: kindNames[KindGossiped], Op: st.id, Key: st.key, Replica: origin, Peer: peer})
	if lag := at - st.submit; lag >= 0 {
		t.gossip.Record(lag)
	}
	t.checkTruthLocked(st, at)
	t.mu.Unlock()
}

// checkTruthLocked records guess-to-truth once every replica of the
// op's shard is known to hold it. Caller holds t.mu.
func (t *Tracer) checkTruthLocked(st *opState, at int64) {
	if st.truth || bits.OnesCount64(st.held) < t.replicas {
		return
	}
	st.truth = true
	t.record(st, Event{AtNs: at, Kind: kindNames[KindTruth], Op: st.id, Key: st.key})
	if lag := at - st.submit; lag >= 0 {
		t.truth.Record(lag)
	}
}

// Apologized records a rule violation surfacing an apology on key.
// Apologies are always-on: the event enters the ring even when no
// sampled guess exists for the key; when one does, the apology is
// attached to that op's timeline and its guess-to-apology lifetime is
// derived from the guess timestamp.
func (t *Tracer) Apologized(key, apologyID, replica string, at int64) {
	if t == nil {
		return
	}
	key = strings.Clone(key) // kept in the ring and the apology list
	t.mu.Lock()
	g, ok := t.lastGuess[key]
	var st *opState
	op := ""
	if ok {
		op = g.op
		st = t.ops[op]
		if lag := at - g.at; lag >= 0 {
			t.apology.Record(lag)
		}
	}
	t.record(st, Event{AtNs: at, Kind: kindNames[KindApologized], Op: op, Key: key, Replica: replica, Note: apologyID})
	if op != "" {
		ref := ApologyRef{Op: op, Key: key, At: at}
		if len(t.apologies) < maxApologyRefs {
			t.apologies = append(t.apologies, ref)
		} else {
			t.apologies[t.apoHead%maxApologyRefs] = ref
			t.apoHead++
		}
	}
	t.mu.Unlock()
}

// Annotate records an out-of-band marker — scenario phases like
// "partition opened" — on the shared event stream. Safe on a nil
// Tracer so callers need no enabled check.
func (t *Tracer) Annotate(note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.record(nil, Event{AtNs: t.clock(), Kind: kindNames[KindAnnotation], Note: note})
	t.mu.Unlock()
}

// OpTimeline returns a copy of the op's recorded lifecycle, oldest
// first, and whether the tracer still holds it.
func (t *Tracer) OpTimeline(op string) ([]Event, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.ops[op]
	if !ok {
		return nil, false
	}
	out := make([]Event, len(st.events))
	copy(out, st.events)
	return out, true
}

// Recent returns up to max ring events, oldest first.
func (t *Tracer) Recent(max int) []Event {
	if t == nil || max <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.seq
	if n > uint64(len(t.ring)) {
		n = uint64(len(t.ring))
	}
	if n > uint64(max) {
		n = uint64(max)
	}
	out := make([]Event, 0, n)
	for i := t.seq - n + 1; i <= t.seq; i++ {
		ev := t.ring[i&t.mask]
		if ev.Kind != "" {
			out = append(out, ev)
		}
	}
	return out
}

// Apologies returns up to max recent apologized-op references, newest
// last.
func (t *Tracer) Apologies(max int) []ApologyRef {
	if t == nil || max <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ApologyRef, len(t.apologies))
	copy(out, t.apologies)
	if t.apoHead > 0 {
		// Rotate so the oldest overwritten slot comes first.
		k := t.apoHead % maxApologyRefs
		out = append(out[k:], out[:k]...)
	}
	if len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// LagHists exposes the derived lifecycle histograms: guess-to-durable,
// guess-to-truth, guess-to-apology, and gossip propagation (submit →
// each peer ack). All nil-safe for the metrics renderer.
func (t *Tracer) LagHists() (durable, truth, apology, gossip *stats.LatHist) {
	if t == nil {
		return nil, nil, nil, nil
	}
	return &t.durable, &t.truth, &t.apology, &t.gossip
}
