package daemon

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/apology"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/uniq"
)

// maxBody bounds request bodies; a batch of a few thousand ops fits in
// well under this.
const maxBody = 8 << 20

// Retry-After hints for shed load. Overload clears as fast as the ring
// drains (milliseconds to a second); a degraded disk heals on the
// replica's re-probe cadence (capped at 2s), so its hint is longer.
const (
	retryAfterOverload = 1 * time.Second
	retryAfterDegraded = 2 * time.Second
)

func (d *Daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", d.auth(d.handleSubmit))
	mux.HandleFunc("POST /v1/batch", d.auth(d.handleBatch))
	mux.HandleFunc("GET /v1/state", d.auth(d.handleState))
	mux.HandleFunc("GET /v1/apologies", d.auth(d.handleApologies))
	mux.HandleFunc("POST /v1/gossip", d.auth(d.handleGossip))
	mux.HandleFunc("GET /v1/trace", d.auth(d.handleTrace))
	mux.HandleFunc("POST /v1/annotate", d.auth(d.handleAnnotate))
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /dash", d.handleDash)
	return mux
}

// auth enforces the bearer token on /v1 endpoints. Comparison is
// constant-time; a missing or wrong token is a uniform 401.
func (d *Daemon) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if d.cfg.APIToken != "" {
			got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
			if subtle.ConstantTimeCompare([]byte(got), []byte(d.cfg.APIToken)) != 1 {
				writeError(w, http.StatusUnauthorized, "unauthorized", "missing or invalid bearer token")
				return
			}
		}
		next(w, r)
	}
}

// writeJSON answers a cold endpoint through encoding/json.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

var jsonContentType = []string{"application/json"}

// selfDeclared is the longest body net/http declares the length of by
// itself (its bufferBeforeChunkingSize), from a buffer it already owns.
const selfDeclared = 2048

// writeWire answers with a body one of the client package's Append
// functions encoded, ended by the newline json.Encoder ends a value with.
// A body net/http would send chunked has its length declared here, so a
// state of any size goes out as one plain body.
func writeWire(w http.ResponseWriter, status int, buf *client.Buffer) {
	buf.B = append(buf.B, '\n')
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if len(buf.B) > selfDeclared {
		h["Content-Length"] = []string{strconv.Itoa(len(buf.B))}
	}
	w.WriteHeader(status)
	w.Write(buf.B)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	buf := client.GetBuffer()
	defer buf.Free()
	buf.B = client.AppendErrorEnvelope(buf.B, &client.ErrorEnvelope{Error: client.Error{Code: code, Message: msg}})
	writeWire(w, status, buf)
}

// writeRetryError is writeError plus a Retry-After hint — the shape of
// every load-shedding response (429 overloaded, 503 degraded), telling
// well-behaved clients when to come back instead of letting them hammer.
func writeRetryError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	writeError(w, status, code, msg)
}

// shedBacklog is the ingest-ring occupancy, as a fraction of the ring's
// nominal capacity, at which the HTTP edge starts shedding submits.
const shedBacklog = 0.9

// shedding reports whether the ingest ring is saturated past
// shedBacklog. The ring never refuses a submit, so refusing at
// the HTTP edge with a 429 is what keeps overload from silently turning
// every caller into a goroutine parked behind the drain: fail the
// request fast and let the client's jittered backoff spread the load out.
func (d *Daemon) shedding() bool {
	depth, capacity := d.backlog()
	return capacity > 0 && float64(depth) >= shedBacklog*float64(capacity)
}

// degradedDecline reports whether every result is a retryable decline —
// the whole request bounced off degraded shards, which surfaces as a 503
// so clients honor Retry-After instead of treating it as business truth.
func degradedDecline(results []core.Result) bool {
	for _, res := range results {
		if res.Accepted || !res.Retryable {
			return false
		}
	}
	return len(results) > 0
}

// decodeBody parses a cold endpoint's JSON body into v, rejecting unknown
// fields so a typo'd request fails loudly instead of silently taking
// defaults, and anything after the value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("data after the top-level value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: "+err.Error())
		return false
	}
	return true
}

// readBody reads a hot endpoint's body, whatever length it declares, into
// buf and hands it to scan — a client package Scan function, as strict
// as decodeBody.
func readBody(w http.ResponseWriter, r *http.Request, buf *client.Buffer, scan func(b []byte) error) bool {
	err := buf.ReadAll(r.Body, maxBody)
	if err == nil {
		err = scan(buf.B)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: "+err.Error())
		return false
	}
	return true
}

// toOp lifts an API op into an engine op. A scanned op's strings are
// substrings of one copy of its whole request body, and stay so: the op
// set copies what it keeps into its own arena, and what else holds an op —
// the gossip journal, a store's staging — lets go of it again.
func toOp(op client.Op) core.Op {
	return core.Op{ID: uniq.ID(op.ID), Kind: op.Kind, Key: op.Key, Arg: op.Arg, Note: op.Note}
}

// toResult lowers an engine result into the API shape.
func toResult(res core.Result) client.Result {
	return client.Result{
		Accepted:  res.Accepted,
		Reason:    res.Reason,
		Retryable: res.Retryable,
		Sync:      res.Decision == policy.Sync,
		ID:        string(res.Op.ID),
		Lamport:   res.Op.Lam,
		LatencyNS: res.Latency.Nanoseconds(),
	}
}

// syncOptions coordinates a submit; every sync request shares the slice.
var syncOptions = []core.SubmitOption{core.WithPolicy(policy.AlwaysSync())}

func submitOptions(sync bool) []core.SubmitOption {
	if sync {
		return syncOptions
	}
	return nil
}

func validOp(w http.ResponseWriter, op client.Op) bool {
	if op.Kind == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "op kind is required")
		return false
	}
	return true
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	buf := client.GetBuffer()
	defer buf.Free()
	var req client.SubmitRequest
	if !readBody(w, r, buf, func(b []byte) error { return client.ScanSubmitRequest(b, &req) }) {
		return
	}
	if !validOp(w, req.Op) {
		return
	}
	if d.shedding() {
		writeRetryError(w, http.StatusTooManyRequests, "overloaded",
			"ingest ring saturated; back off and retry", retryAfterOverload)
		return
	}
	res, err := d.cluster.Submit(r.Context(), d.cfg.Node, toOp(req.Op), submitOptions(req.Sync)...)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
		return
	}
	if !res.Accepted && res.Retryable {
		writeRetryError(w, http.StatusServiceUnavailable, "degraded", res.Reason, retryAfterDegraded)
		return
	}
	out := toResult(res)
	buf.B = client.AppendResult(buf.B[:0], &out)
	writeWire(w, http.StatusOK, buf)
}

func (d *Daemon) handleBatch(w http.ResponseWriter, r *http.Request) {
	buf := client.GetBuffer()
	defer buf.Free()
	var req client.BatchRequest
	if !readBody(w, r, buf, func(b []byte) error { return client.ScanBatchRequest(b, &req) }) {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "batch has no ops")
		return
	}
	ops := make([]core.Op, len(req.Ops))
	for i, op := range req.Ops {
		if !validOp(w, op) {
			return
		}
		ops[i] = toOp(op)
	}
	if d.shedding() {
		writeRetryError(w, http.StatusTooManyRequests, "overloaded",
			"ingest ring saturated; back off and retry", retryAfterOverload)
		return
	}
	results, err := d.cluster.SubmitBatch(r.Context(), d.cfg.Node, ops, submitOptions(req.Sync)...)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
		return
	}
	if degradedDecline(results) {
		// Every op bounced off a degraded shard: shed the whole batch as
		// a 503. A mixed batch still answers 200 — partial acceptance is
		// business outcome, not server failure, and each result carries
		// its own Retryable flag.
		writeRetryError(w, http.StatusServiceUnavailable, "degraded", results[0].Reason, retryAfterDegraded)
		return
	}
	out := client.BatchResponse{Results: make([]client.Result, len(results))}
	for i, res := range results {
		out.Results[i] = toResult(res)
	}
	buf.B = client.AppendBatchResponse(buf.B[:0], &out)
	writeWire(w, http.StatusOK, buf)
}

// handleState answers the hosted replica's derived state. The whole
// state is each shard's published fold: the maps go to the encoder as
// they are (shards own disjoint keys, so their union is the whole
// state). ?key=K answers from the one shard that owns K with K alone,
// looked up in place (View): a keyed read takes no snapshot, so it never
// makes the next write clone the fold.
func (d *Daemon) handleState(w http.ResponseWriter, r *http.Request) {
	shards := d.cluster.Shards()
	var folds []map[string]int64
	if q := r.URL.Query(); q.Has("key") {
		key := q.Get("key")
		one := map[string]int64{}
		d.cluster.ShardReplica(d.cluster.ShardOf(key), d.cfg.Node).View(func(st Accounts) {
			if v, ok := st[key]; ok {
				one[key] = v
			}
		})
		folds = append(folds, one)
	} else {
		folds = make([]map[string]int64, shards)
		for s := range folds {
			folds[s] = d.cluster.ShardReplica(s, d.cfg.Node).State()
		}
	}
	buf := client.GetBuffer()
	defer buf.Free()
	buf.B = client.AppendState(buf.B, d.cfg.Node, shards, folds...)
	writeWire(w, http.StatusOK, buf)
}

func toApologies(in []apology.Apology) []client.Apology {
	out := make([]client.Apology, len(in))
	for i, a := range in {
		out[i] = client.Apology{
			ID:      string(a.ID),
			Rule:    a.Rule,
			Detail:  a.Detail,
			Key:     a.Key,
			Amount:  a.Amount,
			Replica: a.Replica,
		}
	}
	return out
}

func (d *Daemon) handleApologies(w http.ResponseWriter, r *http.Request) {
	q := d.cluster.Apologies
	writeJSON(w, http.StatusOK, client.ApologiesResponse{
		Total:     q.Total(),
		Automated: toApologies(q.Automated()),
		Human:     toApologies(q.Human()),
	})
}

// handleGossip forces one anti-entropy round right now — an ops lever
// ("make these two catch up while I watch") and the hook that lets
// integration tests drive convergence deterministically instead of
// sleeping through timer intervals.
func (d *Daemon) handleGossip(w http.ResponseWriter, r *http.Request) {
	d.cluster.GossipRound()
	writeJSON(w, http.StatusOK, map[string]int{"rounds": 1})
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	var degraded []string
	for s := range d.cluster.Shards() {
		if detail, deg := d.cluster.ShardDegraded(s); deg {
			degraded = append(degraded, fmt.Sprintf("shard %d: %s", s, detail))
		}
	}
	writeJSON(w, http.StatusOK, client.Health{
		OK:       len(degraded) == 0,
		Node:     d.cfg.Node,
		Shards:   d.cluster.Shards(),
		Replicas: d.cluster.Replicas(),
		PeerAddr: d.PeerAddr(),
		Degraded: degraded,
	})
}
