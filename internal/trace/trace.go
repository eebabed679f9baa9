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
// are capped, and once MaxOps op states are held the oldest is recycled
// for each new one. A Tracer never grows past its configured footprint
// no matter how long the process runs.
//
// Events are stored as 24-byte pointer-free records (rec); an Event is
// built only when OpTimeline or Recent reads one. A record's op and key
// are its op state's or its ring slot's, its replica and peer are
// indexes into names interned once per tracer, and only the kinds that
// carry a note keep one. Op states and timeline chunks are allocated a
// block at a time and reused once recycled, so a sampled op allocates
// nothing but the tracer's own copies of its ID and key.
package trace

import (
	"math"
	"math/bits"
	"strings"
	"sync"
	"time"
	"unsafe"

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

// Event is one recorded lifecycle step as a reader sees it. The tracer
// keeps events packed and builds an Event only when one is read.
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

// rec is one event as the tracer stores it: 24 bytes, no pointers.
// replica and peer index Tracer.names (0: none). note is 0 for an event
// without one; otherwise, on a timeline, it is 1 + the note's position
// in the op's notes, and in the ring the note is ringNotes[seq].
type rec struct {
	seq           uint64
	at            int64
	kind          Kind
	replica, peer uint16
	note          uint16
}

// slot is one entry of the recent-event ring.
type slot struct {
	rec
	op, key string
}

const chunkLen = 8 // events per timeline chunk

// Op states and timeline chunks are allocated a block of about 8 KiB at
// a time: a size class of its own, so a block wastes under 3 % of itself.
const (
	statesPerBlock = 8192 / int32(unsafe.Sizeof(opState{}))
	chunksPerBlock = 8192 / int32(unsafe.Sizeof(chunk{}))
)

// chunk is a piece of one op's timeline. next is the op's following
// chunk, or, on the free list, the next free one (0: none).
type chunk struct {
	ev   [chunkLen]rec
	next int32
}

// opState is the tracer's view of one sampled in-flight op. It owns id
// and key: a caller's strings may be cut from a request body or a gossip
// frame, and holding one of those would hold all of it for as long as the
// tracer remembers the op. Every event on the timeline is the op's, so
// the timeline's records carry neither.
type opState struct {
	id, key    string
	submit     int64
	held       uint64 // bits of the replicas known to hold the op
	acked      uint64 // bits of the replicas whose ack is in the gossip histogram
	head, tail int32  // the timeline's first and last chunk (0: none)
	n          uint8  // events on the timeline
	truth      bool
}

// replicaName is an interned replica or peer name and its holder bit.
type replicaName struct {
	s   string
	bit uint64
}

// Options configures a Tracer. Zero values pick the defaults noted on
// each field.
type Options struct {
	SampleEvery int // trace 1-in-N ops by ID hash; <=0 → 64, 1 → every op
	RingSize    int // recent-event ring slots (rounded up to a power of two); <=0 → 4096
	MaxOps      int // in-flight sampled op states kept; <=0 → 4096
	Replicas    int // replicas per shard — the guess-to-truth popcount target; <=0 → 1
}

const maxTimeline = 48 // events kept per sampled op
const maxApologyRefs = 256

// Tracer records sampled lifecycle events. All methods are safe for
// concurrent use; the single mutex is uncontended in practice because
// only sampled ops (plus apologies and annotations) ever reach it.
type Tracer struct {
	sample   uint64
	replicas int
	maxOps   int

	mu        sync.Mutex
	clock     func() int64
	seq       uint64
	ring      []slot
	mask      uint64
	ringNotes map[uint64]string // by seq, while the event is in the ring

	// Op states are numbered in creation order modulo maxOps: state
	// created%maxOps is the next one used, and once all are in use it is
	// also the oldest, recycled first.
	states  []*[statesPerBlock]opState
	created int
	ops     index                 // op ID → its state
	guesses index                 // key → the state of its latest sampled guess
	notes   map[*opState][]string // the notes on an op's timeline, in order
	chunks  []*[chunksPerBlock]chunk
	nchunks int32 // chunks handed out of blocks; chunk c is chunks[(c-1)/chunksPerBlock]
	free    int32 // head of the free chunk list

	names   []replicaName // names[0] is the empty name
	nameIdx map[string]uint16

	apologies []ApologyRef
	apoHead   int

	durable stats.LatHist // guess-to-durable
	truth   stats.LatHist // guess-to-truth
	apology stats.LatHist // guess-to-apology
	gossip  stats.LatHist // submit → each peer's first ack of the op
}

// New builds a Tracer. The zero Options value gives 1-in-64 sampling, a
// 4096-slot ring, 4096 op states, and a wall clock. Only the ring is
// allocated up front; op states and their timelines grow as ops arrive.
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
	start := time.Now()
	return &Tracer{
		sample:    uint64(o.SampleEvery),
		replicas:  o.Replicas,
		maxOps:    o.MaxOps,
		clock:     func() int64 { return int64(time.Since(start)) },
		ring:      make([]slot, size),
		mask:      uint64(size - 1),
		guesses:   index{byKey: true},
		ringNotes: map[uint64]string{},
		notes:     map[*opState][]string{},
		names:     []replicaName{{}},
		nameIdx:   map[string]uint16{},
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

func (t *Tracer) state(num int32) *opState { return &t.states[num/statesPerBlock][num%statesPerBlock] }

func (t *Tracer) chunk(c int32) *chunk { return &t.chunks[(c-1)/chunksPerBlock][(c-1)%chunksPerBlock] }

// record stamps r with the next sequence number and puts it in the ring
// with its op, key and note. Caller holds t.mu.
func (t *Tracer) record(r rec, op, key, note string) rec {
	t.seq++
	r.seq = t.seq
	s := &t.ring[t.seq&t.mask]
	if s.note != 0 {
		delete(t.ringNotes, s.seq)
	}
	*s = slot{rec: r, op: op, key: key}
	if note != "" {
		t.ringNotes[r.seq], s.note = note, 1
	}
	return r
}

// recordOp records r for the op st: in the ring, and on the op's
// timeline while it is shorter than maxTimeline. Caller holds t.mu.
func (t *Tracer) recordOp(st *opState, r rec, note string) {
	r = t.record(r, st.id, st.key, note)
	if st.n >= maxTimeline {
		return
	}
	if note != "" {
		t.notes[st] = append(t.notes[st], note)
		r.note = uint16(len(t.notes[st]))
	}
	if st.n%chunkLen == 0 {
		c := t.newChunk()
		if st.head == 0 {
			st.head = c
		} else {
			t.chunk(st.tail).next = c
		}
		st.tail = c
	}
	t.chunk(st.tail).ev[st.n%chunkLen] = r
	st.n++
}

// newChunk takes a chunk off the free list, or the next one out of the
// blocks. Caller holds t.mu.
func (t *Tracer) newChunk() int32 {
	if c := t.free; c != 0 {
		t.free, t.chunk(c).next = t.chunk(c).next, 0
		return c
	}
	if t.nchunks%chunksPerBlock == 0 {
		t.chunks = append(t.chunks, new([chunksPerBlock]chunk))
	}
	t.nchunks++
	return t.nchunks
}

// opFor returns the op's state, creating it — in place of the oldest,
// once MaxOps are held — as needed. Caller holds t.mu.
func (t *Tracer) opFor(op, key string, at int64) (int32, *opState) {
	if i, ok := t.find(&t.ops, op); ok {
		num := t.ops.slots[i] - 1
		st := t.state(num)
		if st.key == "" && key != "" {
			st.key = strings.Clone(key)
		}
		return num, st
	}
	num := int32(t.created % t.maxOps)
	if t.created >= t.maxOps {
		t.recycle(num)
	} else if num%statesPerBlock == 0 {
		t.states = append(t.states, new([statesPerBlock]opState))
	}
	t.created++
	st := t.state(num)
	*st = opState{id: strings.Clone(op), key: strings.Clone(key), submit: at}
	t.insert(&t.ops, st.id, num)
	return num, st
}

// recycle forgets the op in state num: its index entries, its timeline
// chunks (onto the free list) and its notes. Caller holds t.mu.
func (t *Tracer) recycle(num int32) {
	st := t.state(num)
	if i, ok := t.find(&t.ops, st.id); ok {
		t.remove(&t.ops, i)
	}
	if i, ok := t.find(&t.guesses, st.key); ok && t.guesses.slots[i]-1 == num {
		t.remove(&t.guesses, i)
	}
	if st.head != 0 {
		t.chunk(st.tail).next, t.free = t.free, st.head
	}
	delete(t.notes, st)
}

// intern returns name's index in t.names, adding it on first sight. A
// new name's holder bit is the count of names of its shard interned
// before it — a shard's names share the prefix up to the last '/', so
// "s2/r0" and "s2/r1" are one shard and plain "r0", "r1" another — which
// gives each replica of a shard its own bit, for up to 64 replicas per
// shard. Past 65535 names a new one is recorded as none. Caller holds
// t.mu.
func (t *Tracer) intern(name string) uint16 {
	if i, ok := t.nameIdx[name]; ok || name == "" {
		return i
	}
	if len(t.names) > math.MaxUint16 {
		return 0
	}
	shard, k := name[:strings.LastIndexByte(name, '/')+1], 0
	for _, n := range t.names[1:] {
		if n.s[:strings.LastIndexByte(n.s, '/')+1] == shard {
			k++
		}
	}
	i := uint16(len(t.names))
	t.names = append(t.names, replicaName{s: strings.Clone(name), bit: 1 << min(k, 63)})
	t.nameIdx[t.names[i].s] = i
	return i
}

// Submitted records an op entering the cluster.
func (t *Tracer) Submitted(op, key, replica string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	_, st := t.opFor(op, key, at)
	st.submit = at
	t.recordOp(st, rec{at: at, kind: KindSubmitted, replica: t.intern(replica)}, "")
	t.mu.Unlock()
}

// Admitted records the guess: the op accepted into a replica's op set.
// It also becomes the key's "last guess" for apology attribution.
func (t *Tracer) Admitted(op, key, replica string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	num, st := t.opFor(op, key, at)
	r := t.intern(replica)
	st.held |= t.names[r].bit
	t.recordOp(st, rec{at: at, kind: KindAdmitted, replica: r}, "")
	if st.key != "" {
		t.insert(&t.guesses, st.key, num)
	}
	t.checkTruthLocked(st, at)
	t.mu.Unlock()
}

// Declined records an ingress rejection.
func (t *Tracer) Declined(op, key, replica, reason string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	_, st := t.opFor(op, key, at)
	t.recordOp(st, rec{at: at, kind: KindDeclined, replica: t.intern(replica)}, reason)
	t.mu.Unlock()
}

// Durable records that a journal fsync covering the op returned, and
// derives the guess-to-durable lag.
func (t *Tracer) Durable(op, replica string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	_, st := t.opFor(op, "", at)
	t.recordOp(st, rec{at: at, kind: KindFsynced, replica: t.intern(replica)}, "")
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
	_, st := t.opFor(op, "", at)
	t.recordOp(st, rec{at: at, kind: KindFolded, replica: t.intern(replica)}, "")
	t.mu.Unlock()
}

// Absorbed records the op arriving at a replica via gossip.
func (t *Tracer) Absorbed(op, replica string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	_, st := t.opFor(op, "", at)
	r := t.intern(replica)
	st.held |= t.names[r].bit
	t.recordOp(st, rec{at: at, kind: KindAbsorbed, replica: r}, "")
	t.checkTruthLocked(st, at)
	t.mu.Unlock()
}

// GossipAcked records a peer's durable ack of a gossip push holding the
// op: the peer now holds it, which advances guess-to-truth and, on the
// peer's first ack of the op from any pusher, adds its sample to the
// gossip-propagation histogram. This is the cross-process observation —
// a daemon never sees a remote replica's absorb, but it does see the ack.
func (t *Tracer) GossipAcked(op, origin, peer string, at int64) {
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	_, st := t.opFor(op, "", at)
	o, p := t.intern(origin), t.intern(peer)
	st.held |= t.names[o].bit | t.names[p].bit
	t.recordOp(st, rec{at: at, kind: KindGossiped, replica: o, peer: p}, "")
	if bit := t.names[p].bit; st.acked&bit == 0 {
		st.acked |= bit
		if lag := at - st.submit; lag >= 0 {
			t.gossip.Record(lag)
		}
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
	t.recordOp(st, rec{at: at, kind: KindTruth}, "")
	if lag := at - st.submit; lag >= 0 {
		t.truth.Record(lag)
	}
}

// Apologized records a rule violation surfacing an apology on key.
// Apologies are always-on: the event enters the ring even when no
// sampled guess exists for the key; when one does, the apology is
// attached to that op's timeline and its guess-to-apology lifetime is
// derived from the guess's submit timestamp. A guess is remembered for
// as long as its op's state is held.
func (t *Tracer) Apologized(key, apologyID, replica string, at int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	r := rec{at: at, kind: KindApologized, replica: t.intern(replica)}
	i, ok := t.find(&t.guesses, key)
	if !ok {
		t.record(r, "", strings.Clone(key), apologyID) // the ring keeps the key
		t.mu.Unlock()
		return
	}
	st := t.state(t.guesses.slots[i] - 1)
	if lag := at - st.submit; lag >= 0 {
		t.apology.Record(lag)
	}
	t.recordOp(st, r, apologyID)
	ref := ApologyRef{Op: st.id, Key: st.key, At: at}
	if len(t.apologies) < maxApologyRefs {
		t.apologies = append(t.apologies, ref)
	} else {
		t.apologies[t.apoHead%maxApologyRefs] = ref
		t.apoHead++
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
	t.record(rec{at: t.clock(), kind: KindAnnotation}, "", "", note)
	t.mu.Unlock()
}

// event builds the Event a reader sees from a stored record. Caller
// holds t.mu.
func (t *Tracer) event(r rec, op, key, note string) Event {
	return Event{
		Seq:     r.seq,
		AtNs:    r.at,
		Kind:    kindNames[r.kind],
		Op:      op,
		Key:     key,
		Replica: t.names[r.replica].s,
		Peer:    t.names[r.peer].s,
		Note:    note,
	}
}

// OpTimeline returns a copy of the op's recorded lifecycle, oldest
// first, and whether the tracer still holds it.
func (t *Tracer) OpTimeline(op string) ([]Event, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.find(&t.ops, op)
	if !ok {
		return nil, false
	}
	st := t.state(t.ops.slots[i] - 1)
	out := make([]Event, 0, st.n)
	for c := st.head; c != 0; c = t.chunk(c).next {
		for _, r := range t.chunk(c).ev[:min(chunkLen, int(st.n)-len(out))] {
			note := ""
			if r.note != 0 {
				note = t.notes[st][r.note-1]
			}
			out = append(out, t.event(r, st.id, st.key, note))
		}
	}
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
		if s := &t.ring[i&t.mask]; s.kind != 0 {
			out = append(out, t.event(s.rec, s.op, s.key, t.ringNotes[s.seq]))
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
// each peer's first ack of the op). All nil-safe for the metrics
// renderer.
func (t *Tracer) LagHists() (durable, truth, apology, gossip *stats.LatHist) {
	if t == nil {
		return nil, nil, nil, nil
	}
	return &t.durable, &t.truth, &t.apology, &t.gossip
}
