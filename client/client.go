package client

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client talks to one quicksandd daemon. It is safe for concurrent use.
type Client struct {
	base    string
	auth    []string // the Authorization header's value, nil without a token
	hc      *http.Client
	retries int
	backoff time.Duration

	// Parsed once in New. A base that does not parse leaves them nil and
	// every call returns urlErr.
	root, submitURL, batchURL, stateURL *url.URL
	urlErr                              error
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
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a failed request is retried (default
// 3). Submits are safe to retry: the SDK assigns every op an ID before
// the first attempt, so a retry that lands twice is deduplicated by the
// replica.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// New builds a client for the daemon at base, e.g.
// "http://127.0.0.1:8080". A bare host:port gets the http scheme.
func New(base string, opts ...Option) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: 10 * time.Second},
		retries: 3,
		backoff: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
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

// newOpID mints a client-side idempotency key.
func newOpID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("client: crypto/rand unavailable: " + err.Error())
	}
	id := [4 + 2*len(b)]byte{'c', 'l', 'i', '-'}
	hex.Encode(id[4:], b[:])
	return string(id[:])
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
// pooled buffer the caller must Free. Idempotency is the caller's
// contract: every retried body must carry the same op IDs.
func (c *Client) do(ctx context.Context, method string, u *url.URL, body []byte) (*Buffer, error) {
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
	reply, err := c.do(ctx, method, c.at(path, rawQuery), body)
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

// retryDelay is the wait before retry attempt n: exponential backoff
// with full-range jitter (uniform in [base/2, base], so a fleet of
// clients bounced by the same degraded shard does not retry in
// lockstep), floored by the server's Retry-After hint when the previous
// response carried one — the daemon knows when its disk might heal
// better than our backoff curve does.
func (c *Client) retryDelay(attempt int, lastErr error) time.Duration {
	base := c.backoff << (attempt - 1)
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

// reqBytes is one attempt's request body: bytes their owner will reuse.
// net/http's write loop can still be reading a request's body after Do
// has returned — the server answered before it had read it all, or the
// call was cancelled — so the bytes are only touched under mu, and detach
// cuts every reader off before the owner recycles them.
type reqBytes struct {
	mu    sync.Mutex
	b     []byte
	first reqReader // the request's Body, in the same allocation
}

// reqReader is one pass over a reqBytes.
type reqReader struct {
	src *reqBytes
	off int
}

func (r *reqReader) Read(p []byte) (int, error) {
	r.src.mu.Lock()
	defer r.src.mu.Unlock()
	if r.off >= len(r.src.b) {
		return 0, io.EOF
	}
	n := copy(p, r.src.b[r.off:])
	r.off += n
	return n, nil
}

func (r *reqReader) Close() error { return nil }

// reader is the request's GetBody: a redirect, or a kept-alive connection
// that turns out dead before anything was sent, makes net/http send the
// body again.
func (b *reqBytes) reader() (io.ReadCloser, error) { return &reqReader{src: b}, nil }

func (b *reqBytes) detach() {
	b.mu.Lock()
	b.b = nil
	b.mu.Unlock()
}

var jsonContentType = []string{"application/json"}

// once makes one attempt and reads the reply into reply. The body is read
// to EOF whatever length the response declares, and a body over maxReply
// is an error before any decoding.
func (c *Client) once(ctx context.Context, method string, u *url.URL, body []byte, reply *Buffer) error {
	req := (&http.Request{
		Method: method, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}).WithContext(ctx)
	req.Header = make(http.Header, 2)
	if body != nil {
		rb := &reqBytes{b: body}
		rb.first.src = rb
		defer rb.detach()
		req.Body, req.GetBody, req.ContentLength = &rb.first, rb.reader, int64(len(body))
		req.Header["Content-Type"] = jsonContentType
	}
	if c.auth != nil {
		req.Header["Authorization"] = c.auth
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
// first attempt, so transport-level retries cannot double-apply the
// business. Accepted=false with a Reason is a decline, not an error.
func (c *Client) Submit(ctx context.Context, op Op, sync bool) (Result, error) {
	if op.ID == "" {
		op.ID = newOpID()
	}
	body := GetBuffer()
	defer body.Free()
	body.B = AppendSubmitRequest(body.B, &SubmitRequest{Op: op, Sync: sync})
	var res Result
	reply, err := c.do(ctx, http.MethodPost, c.submitURL, body.B)
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
// in op order. IDs are assigned client-side exactly as in Submit.
func (c *Client) SubmitBatch(ctx context.Context, ops []Op, sync bool) ([]Result, error) {
	withIDs := make([]Op, len(ops))
	for i, op := range ops {
		if op.ID == "" {
			op.ID = newOpID()
		}
		withIDs[i] = op
	}
	body := GetBuffer()
	defer body.Free()
	body.B = AppendBatchRequest(body.B, &BatchRequest{Ops: withIDs, Sync: sync})
	reply, err := c.do(ctx, http.MethodPost, c.batchURL, body.B)
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
	reply, err := c.do(ctx, http.MethodGet, u, nil)
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
