// Package client is the Go SDK for a quicksandd daemon's versioned HTTP
// API (/v1). It also defines the API's wire types — the daemon imports
// them from here, so the two cannot drift. The JSON codec of the types a
// guess, a batch and a state read are made of lives beside them, in
// wire.go, and both ends call it: the bytes are encoding/json's, the
// struct tags below are what they are tested against, and neither end can
// come to read or write a field differently from the other.
//
// The API speaks the engine's vocabulary: a submit is a guess admitted
// against local knowledge (or a coordinated commit when Sync is set),
// the response says whether the business was accepted, and /v1/apologies
// is the queue of guesses the cluster has since come to regret.
package client

// Op is one business operation submitted over the HTTP API.
type Op struct {
	// Kind names the business operation ("deposit", "withdraw", ...).
	Kind string `json:"kind"`
	// Key is the object the operation targets (an account, a SKU, ...).
	Key string `json:"key"`
	// Arg is the numeric argument, e.g. an amount in cents.
	Arg int64 `json:"arg"`
	// ID, when set by the caller, makes retries idempotent: an op whose
	// ID a replica has already recorded is accepted without re-recording.
	// When it is empty, the SDK assigns one before the first attempt: its
	// session's next number, uniq.AppendID(session, n), the form a
	// replica keeps as a run of numbers rather than a string of its own.
	ID string `json:"id,omitempty"`
	// Note is a free-form annotation carried with the op.
	Note string `json:"note,omitempty"`
}

// SubmitRequest is the body of POST /v1/submit.
type SubmitRequest struct {
	Op
	// Sync requests classic coordination (§5.8): every replica must
	// admit the op before it is accepted. Default is the eventually
	// consistent path — accept locally, gossip later.
	Sync bool `json:"sync,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Ops  []Op `json:"ops"`
	Sync bool `json:"sync,omitempty"`
}

// Result is the outcome of one submitted operation.
type Result struct {
	// Accepted reports whether the business was taken. False is a
	// decline (see Reason), not a transport error.
	Accepted bool `json:"accepted"`
	// Reason explains a decline ("declined by rule no-overdraft", ...).
	Reason string `json:"reason,omitempty"`
	// Retryable marks a decline as transient — the shard was degraded
	// (read-only while its disk heals) rather than the business being
	// refused. Resubmitting the same op (same ID) later may succeed.
	Retryable bool `json:"retryable,omitempty"`
	// Sync reports whether the op was coordinated across replicas.
	Sync bool `json:"sync,omitempty"`
	// ID is the operation's identity — the caller's, or the one the
	// ingress replica assigned. Resubmitting with the same ID is a no-op.
	ID string `json:"id"`
	// Lamport is the ingress Lamport stamp of an accepted op.
	Lamport uint64 `json:"lamport,omitempty"`
	// LatencyNS is the daemon-observed submit latency in nanoseconds.
	LatencyNS int64 `json:"latency_ns,omitempty"`
}

// BatchResponse is the body answering POST /v1/batch, results in op
// order.
type BatchResponse struct {
	Results []Result `json:"results"`
}

// StateResponse is the body answering GET /v1/state: the daemon's local
// replica's current derived state (a guess, not a global truth).
type StateResponse struct {
	// Node is the replica index this daemon hosts.
	Node int `json:"node"`
	// Shards is the cluster's shard count; Keys merges all of them.
	Shards int `json:"shards"`
	// Keys maps every known key to its locally derived value.
	Keys map[string]int64 `json:"keys"`
}

// Apology mirrors the engine's apology record (§5.7).
type Apology struct {
	ID      string `json:"id"`
	Rule    string `json:"rule"`
	Detail  string `json:"detail"`
	Key     string `json:"key,omitempty"`
	Amount  int64  `json:"amount,omitempty"`
	Replica string `json:"replica"`
}

// ApologiesResponse is the body answering GET /v1/apologies.
type ApologiesResponse struct {
	Total     int       `json:"total"`
	Automated []Apology `json:"automated"`
	Human     []Apology `json:"human"`
}

// Health is the body answering GET /healthz (unauthenticated).
type Health struct {
	// OK is true while every locally hosted shard replica can take
	// writes. It is false while any shard is degraded — the node still
	// serves reads (and the other shards' writes), so OK=false means
	// "investigate", not "dead".
	OK       bool   `json:"ok"`
	Node     int    `json:"node"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	PeerAddr string `json:"peer_addr,omitempty"`
	// Degraded lists each degraded shard as "shard N: replica: reason".
	// Empty on a healthy node.
	Degraded []string `json:"degraded,omitempty"`
}

// TraceEvent is one recorded op-lifecycle step, mirroring the engine's
// trace.Event wire shape.
type TraceEvent struct {
	Seq     uint64 `json:"seq"`
	AtNS    int64  `json:"at_ns"`
	Kind    string `json:"kind"` // submitted, admitted, declined, fsynced, gossiped, absorbed, folded, truth, apologized, annotation
	Op      string `json:"op,omitempty"`
	Key     string `json:"key,omitempty"`
	Replica string `json:"replica,omitempty"`
	Peer    string `json:"peer,omitempty"`
	Note    string `json:"note,omitempty"`
}

// TraceResponse is the body answering GET /v1/trace. With ?op=ID it is
// that sampled op's full timeline; without, the recent event ring.
type TraceResponse struct {
	// Op echoes the requested op ID ("" for the recent-ring form).
	Op string `json:"op,omitempty"`
	// SampleEvery is the daemon's 1-in-N tracing rate (0 = tracing off).
	SampleEvery int `json:"sample_every"`
	// Events are the recorded steps, oldest first.
	Events []TraceEvent `json:"events"`
}

// AnnotateRequest is the body of POST /v1/annotate: an out-of-band
// marker ("partition opened", "load phase 2") stamped onto the trace
// stream so operators can line op lifecycles up with what the world
// was doing.
type AnnotateRequest struct {
	Note string `json:"note"`
}

// Error is the uniform error envelope: every non-2xx /v1 response
// carries one.
type Error struct {
	// Code is a stable machine-readable slug: "unauthorized",
	// "bad_request", "not_found", "unavailable", "internal",
	// "degraded" (503: the target shard is read-only while its disk
	// heals; retry after the Retry-After interval), "overloaded" (429:
	// the ingest ring is saturated; back off and retry).
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// ErrorEnvelope wraps Error in the response body.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}
