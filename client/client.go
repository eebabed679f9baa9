package client

import (
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/uniq"
)

// Client talks to one quicksandd daemon. It is safe for concurrent use.
type Client struct {
	base    string
	auth    []string     // the Authorization header's value, nil without a token
	hc      *http.Client // the caller's, copied without its Jar
	retries int
	backoff time.Duration

	// The op IDs the client mints are its session's consecutive numbers,
	// uniq.AppendID(session, n), so a replica keeps them as runs.
	session string
	seq     atomic.Uint64 // the last number minted

	// Parsed once in New. A base that does not parse leaves them nil and
	// every call returns urlErr.
	root, submitURL, batchURL, stateURL *url.URL
	urlErr                              error

	// The header sets every GET and every POST shares, built once in New.
	// Without a cookie Jar nothing in net/http writes a request's Header.
	getHeader, postHeader http.Header
}

// maxReply bounds a response body, as the daemon bounds a request's.
const maxReply = 8 << 20

// Option configures a Client.
type Option func(*Client)

// WithToken sets the bearer token sent on /v1 requests.
func WithToken(token string) Option {
	return func(c *Client) {
		if c.auth = nil; token != "" {
			c.auth = []string{"Bearer " + token}
		}
	}
}

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles). The client keeps a copy of it and honours
// its Transport, Timeout and CheckRedirect, but not its Jar: the SDK
// authenticates by bearer token, the daemon sets no cookies, and the
// requests share their header sets, which a Jar would write to. A
// RoundTripper must not modify a request, as net/http already requires.
//
// Every request carries Authorization (with WithToken),
// Accept-Encoding: identity and no User-Agent; a POST adds
// Content-Type: application/json. net/http adds Host, and Content-Length
// on a POST.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a failed request is retried (default
// 3). Submits are safe to retry: the SDK assigns every op an ID before
// the first attempt, so a retry that lands twice is deduplicated by the
// replica. The wait before a retry doubles from 50 ms up to 10 s.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// New builds a client for the daemon at base, e.g.
// "http://127.0.0.1:8080". A bare host:port gets the http scheme.
//
// Each client is a session: New draws a random 64-bit session name, and
// the client names the ops it is not given an ID for with the session's
// consecutive numbers, uniq.AppendID(session, n) — 11 base64url
// characters, a '-' and n — the form a replica keeps as a run of numbers
// rather than an ID apiece. A restarted client is a new session. For k
// sessions, the chance that two draw the same name is at most k²/2⁶⁵,
// about 2.7·10⁻⁸ at a million.
func New(base string, opts ...Option) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: 10 * time.Second},
		retries: 3,
		backoff: 50 * time.Millisecond,
		session: newSession(),
	}
	for _, o := range opts {
		o(c)
	}
	hc := *c.hc
	hc.Jar = nil
	c.hc = &hc
	c.getHeader = http.Header{"Accept-Encoding": {"identity"}, "User-Agent": {""}}
	if c.auth != nil {
		c.getHeader["Authorization"] = c.auth
	}
	c.postHeader = c.getHeader.Clone()
	c.postHeader["Content-Type"] = []string{"application/json"}
	c.root, c.urlErr = url.Parse(c.base)
	c.submitURL, c.batchURL, c.stateURL = c.at("/v1/submit", ""), c.at("/v1/batch", ""), c.at("/v1/state", "")
	return c
}

// at is the URL of an API path under the base (nil when the base did not
// parse: do answers urlErr before it looks). Requests share the hot
// endpoints' URLs; net/http only reads a request's URL.
func (c *Client) at(path, rawQuery string) *url.URL {
	if c.root == nil {
		return nil
	}
	u := *c.root
	u.Path, u.RawPath, u.RawQuery = u.Path+path, "", rawQuery
	return &u
}

// newSession draws a session name: 64 random bits in base64url.
func newSession() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("client: crypto/rand unavailable: " + err.Error())
	}
	return base64.RawURLEncoding.EncodeToString(b[:])
}

// APIError is a non-2xx response decoded from the daemon's error
// envelope.
type APIError struct {
	Status  int    // HTTP status
	Code    string // stable slug from the envelope
	Message string
	// RetryAfter is the server's Retry-After hint (0 when absent). The
	// SDK already honors it between its own retries; callers that manage
	// their own retry loop should too.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("quicksandd: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// retryable reports whether err (or an API error status) is worth
// retrying: transport failures, 5xx, and 429 (the daemon shedding load)
// yes; other 4xx no, and not a reply over the size limit, which would
// only be downloaded again.
func retryable(err error) bool {
	var ae *APIError
	if ok := asAPIError(err, &ae); ok {
		return ae.Status >= 500 || ae.Status == http.StatusTooManyRequests
	}
	return !errors.Is(err, ErrTooLarge)
}

func asAPIError(err error, out **APIError) bool {
	ae, ok := err.(*APIError)
	if ok {
		*out = ae
	}
	return ok
}

// do runs one request with retries and returns the 2xx reply's body in a
// pooled buffer the caller must Free. An empty body sends none.
// Idempotency is the caller's contract: every retried body must carry the
// same op IDs.
func (c *Client) do(ctx context.Context, method string, u *url.URL, body string) (*Buffer, error) {
	if c.urlErr != nil {
		return nil, c.urlErr
	}
	reply := GetBuffer()
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				reply.Free()
				return nil, ctx.Err()
			case <-time.After(c.retryDelay(attempt, lastErr)):
			}
		}
		reply.B = reply.B[:0]
		lastErr = c.once(ctx, method, u, body, reply)
		if lastErr == nil {
			return reply, nil
		}
		if !retryable(lastErr) {
			break
		}
	}
	reply.Free()
	return nil, lastErr
}

// doJSON is do for the cold endpoints, whose types go through
// encoding/json.
func (c *Client) doJSON(ctx context.Context, method, path, rawQuery string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	reply, err := c.do(ctx, method, c.at(path, rawQuery), string(body))
	if err != nil {
		return err
	}
	defer reply.Free()
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(reply.B, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// maxBackoff caps the backoff, which doubles with each retry: however many
// retries a caller allows, none waits longer than this unless the server
// asks it to.
const maxBackoff = 10 * time.Second

// retryDelay is the wait before retry attempt n: exponential backoff,
// capped at maxBackoff, with full-range jitter (uniform in [base/2,
// base], so a fleet of clients bounced by the same degraded shard does
// not retry in lockstep), floored by the server's Retry-After hint when
// the previous response carried one — the daemon knows when its disk
// might heal better than our backoff curve does.
func (c *Client) retryDelay(attempt int, lastErr error) time.Duration {
	base := c.backoff
	for n := 1; n < attempt && base < maxBackoff; n++ {
		base <<= 1
	}
	base = min(base, maxBackoff)
	wait := base/2 + jitter(base/2)
	var ae *APIError
	if asAPIError(lastErr, &ae) && ae.RetryAfter > wait {
		wait = ae.RetryAfter
	}
	return wait
}

// jitter returns a uniform random duration in [0, max].
func jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return max / 2
	}
	return time.Duration(binary.LittleEndian.Uint64(b[:]) % uint64(max+1))
}

// once makes one attempt and reads the reply into reply. The body is read
// to EOF whatever length the response declares, and a body over maxReply
// is an error before any decoding.
//
// The request's body is a strings.Reader over a string the request owns,
// a reader net/http knows is in memory: it writes the headers and the body
// in one write, and the body stays intact for as long as the transport
// reads it, which can be after Do returns. GetBody gives a redirect, or a
// kept-alive connection that turns out dead before anything was sent, a
// fresh pass over it.
func (c *Client) once(ctx context.Context, method string, u *url.URL, body string, reply *Buffer) error {
	req := (&http.Request{
		Method: method, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.getHeader,
	}).WithContext(ctx)
	if body != "" {
		req.Header, req.ContentLength = c.postHeader, int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	err = reply.ReadAll(resp.Body, maxReply)
	resp.Body.Close()
	if errors.Is(err, ErrTooLarge) {
		return fmt.Errorf("client: response exceeds the %d-byte limit: %w", maxReply, err)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		ae := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
		var env ErrorEnvelope
		if ScanErrorEnvelope(reply.B, &env) == nil && env.Error.Code != "" {
			ae.Code, ae.Message = env.Error.Code, env.Error.Message
		} else {
			ae.Code, ae.Message = "internal", strings.TrimSpace(string(reply.B))
		}
		return ae
	}
	return nil
}

// parseRetryAfter parses a Retry-After header's delay-seconds form
// (the only form the daemon emits); anything else yields 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Submit offers one operation. A missing op ID is filled in before the
// first attempt — the session's next number — so transport-level retries,
// which resend the same body, cannot double-apply the business.
// Accepted=false with a Reason is a decline, not an error.
func (c *Client) Submit(ctx context.Context, op Op, sync bool) (Result, error) {
	if op.ID == "" {
		var buf [32]byte
		op.ID = string(uniq.AppendID(buf[:0], c.session, c.seq.Add(1)))
	}
	body := GetBuffer()
	defer body.Free()
	body.B = AppendSubmitRequest(body.B, &SubmitRequest{Op: op, Sync: sync})
	var res Result
	reply, err := c.do(ctx, http.MethodPost, c.submitURL, string(body.B))
	if err != nil {
		return res, err
	}
	defer reply.Free()
	return res, decoded(ScanResult(reply.B, &res))
}

// decoded wraps a reply scan's error.
func decoded(err error) error {
	if err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// SubmitBatch offers many operations in one request; results come back
// in op order. IDs are assigned client-side as in Submit, the ops without
// one taking a block of consecutive numbers in op order.
func (c *Client) SubmitBatch(ctx context.Context, ops []Op, sync bool) ([]Result, error) {
	missing := 0
	for i := range ops {
		if ops[i].ID == "" {
			missing++
		}
	}
	seq := c.seq.Add(uint64(missing)) - uint64(missing)
	withIDs := make([]Op, len(ops))
	var buf [32]byte
	for i, op := range ops {
		if op.ID == "" {
			seq++
			op.ID = string(uniq.AppendID(buf[:0], c.session, seq))
		}
		withIDs[i] = op
	}
	body := GetBuffer()
	defer body.Free()
	body.B = AppendBatchRequest(body.B, &BatchRequest{Ops: withIDs, Sync: sync})
	reply, err := c.do(ctx, http.MethodPost, c.batchURL, string(body.B))
	if err != nil {
		return nil, err
	}
	defer reply.Free()
	var res BatchResponse
	return res.Results, decoded(ScanBatchResponse(reply.B, &res))
}

// State fetches the daemon's locally derived state — a well-informed
// guess, per the paper, not a global truth.
func (c *Client) State(ctx context.Context) (StateResponse, error) {
	return c.state(ctx, c.stateURL)
}

func (c *Client) state(ctx context.Context, u *url.URL) (StateResponse, error) {
	var res StateResponse
	reply, err := c.do(ctx, http.MethodGet, u, "")
	if err != nil {
		return res, err
	}
	defer reply.Free()
	return res, decoded(ScanState(reply.B, &res))
}

// StateOf fetches one key's locally derived value. ok is false when the
// daemon's replica has no such key. The daemon answers from the shard
// that owns the key and sends nothing else, so the cost does not grow
// with the state.
func (c *Client) StateOf(ctx context.Context, key string) (value int64, ok bool, err error) {
	res, err := c.state(ctx, c.at("/v1/state", "key="+url.QueryEscape(key)))
	value, ok = res.Keys[key]
	return value, ok, err
}

// Apologies fetches the daemon's apology queue.
func (c *Client) Apologies(ctx context.Context) (ApologiesResponse, error) {
	var res ApologiesResponse
	err := c.doJSON(ctx, http.MethodGet, "/v1/apologies", "", nil, &res)
	return res, err
}

// Gossip asks the daemon to run one anti-entropy round immediately,
// instead of waiting for its timer — useful when watching two daemons
// catch up, and for tests that drive convergence deterministically.
func (c *Client) Gossip(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/gossip", "", nil, nil)
}

// Trace fetches a sampled op's recorded lifecycle timeline. A 404
// means the op was not sampled (or has been evicted), not that it
// never ran.
func (c *Client) Trace(ctx context.Context, opID string) (TraceResponse, error) {
	var res TraceResponse
	err := c.doJSON(ctx, http.MethodGet, "/v1/trace", "op="+url.QueryEscape(opID), nil, &res)
	return res, err
}

// TraceRecent fetches the daemon's recent trace-event ring — sampled
// lifecycle steps plus annotations, oldest first.
func (c *Client) TraceRecent(ctx context.Context) (TraceResponse, error) {
	var res TraceResponse
	err := c.doJSON(ctx, http.MethodGet, "/v1/trace", "", nil, &res)
	return res, err
}

// Annotate stamps an out-of-band marker onto the daemon's trace
// stream. Load drivers use it to mark scenario phases.
func (c *Client) Annotate(ctx context.Context, note string) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/annotate", "", AnnotateRequest{Note: note}, nil)
}

// Health probes /healthz (no auth required).
func (c *Client) Health(ctx context.Context) (Health, error) {
	var res Health
	err := c.doJSON(ctx, http.MethodGet, "/healthz", "", nil, &res)
	return res, err
}
