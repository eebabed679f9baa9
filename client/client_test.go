package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testenv"
	"repro/internal/trace"
	"repro/internal/uniq"
)

// TestSubmitRetriesAreIdempotent: the SDK assigns the op ID before the
// first attempt, so when a 500 forces a retry, the daemon sees the SAME
// op twice — which the engine dedupes — never two different ops.
func TestSubmitRetriesAreIdempotent(t *testing.T) {
	var calls atomic.Int32
	var seen []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad body: %v", err)
		}
		seen = append(seen, req.ID)
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(ErrorEnvelope{Error: Error{Code: "internal", Message: "transient"}})
			return
		}
		json.NewEncoder(w).Encode(Result{Accepted: true, ID: req.ID})
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(2))
	res, err := c.Submit(context.Background(), Op{Kind: "deposit", Key: "k", Arg: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("not accepted: %+v", res)
	}
	if len(seen) != 2 || seen[0] == "" || seen[0] != seen[1] {
		t.Fatalf("retry changed the op identity: %v", seen)
	}
	if res.ID != seen[0] {
		t.Fatalf("result ID %q != submitted ID %q", res.ID, seen[0])
	}
}

// TestClientDoesNotRetry4xx: a decline-class status is the daemon's
// answer, not a transient fault.
func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(ErrorEnvelope{Error: Error{Code: "bad_request", Message: "nope"}})
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(3))
	_, err := c.Submit(context.Background(), Op{Kind: "deposit", Key: "k", Arg: 1}, false)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != "bad_request" {
		t.Fatalf("want bad_request APIError, got %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("client retried a 4xx %d times", n-1)
	}
}

// TestBareHostPortGetsScheme: ops tooling passes bare host:port.
func TestBareHostPortGetsScheme(t *testing.T) {
	if c := New("127.0.0.1:8080"); c.base != "http://127.0.0.1:8080" {
		t.Fatalf("base = %q", c.base)
	}
	if c := New("https://d0.example/"); c.base != "https://d0.example" {
		t.Fatalf("base = %q", c.base)
	}
}

// TestBearerTokenHeader: the token rides as Authorization: Bearer.
func TestBearerTokenHeader(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Authorization"); got != "Bearer hunter2" {
			t.Errorf("Authorization = %q", got)
		}
		json.NewEncoder(w).Encode(StateResponse{Keys: map[string]int64{}})
	}))
	defer srv.Close()
	c := New(srv.URL, WithToken("hunter2"))
	if _, err := c.State(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestClientRetries429WithRetryAfter: a 429 (the daemon shedding load)
// is retryable, and the server's Retry-After hint reaches the APIError
// so both the SDK's own loop and caller-managed loops can honor it.
func TestClientRetries429WithRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(ErrorEnvelope{Error: Error{Code: "overloaded", Message: "ring full"}})
			return
		}
		json.NewEncoder(w).Encode(Result{Accepted: true, ID: "x"})
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(2))
	start := time.Now()
	res, err := c.Submit(context.Background(), Op{Kind: "deposit", Key: "k", Arg: 1}, false)
	if err != nil || !res.Accepted {
		t.Fatalf("submit after 429: %+v, %v", res, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("expected exactly one retry, saw %d calls", n)
	}
	// The retry waited out the server's hint, not just the 50ms backoff.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry after %v ignored Retry-After: 1", elapsed)
	}
}

// TestRetryDelayJitters: backoff delays are spread over [base/2, base]
// so a fleet bounced together does not retry together, the base doubles
// up to maxBackoff and stays there — a shift that overflowed once made
// attempt 39 wait a negative time and attempt 65 none — and a server
// Retry-After floors the wait.
func TestRetryDelayJitters(t *testing.T) {
	c := New("127.0.0.1:1")
	for _, row := range []struct {
		attempt int
		base    time.Duration
	}{
		{1, c.backoff},
		{2, c.backoff << 1},
		{30, maxBackoff},
		{39, maxBackoff},
		{64, maxBackoff},
		{1000, maxBackoff},
	} {
		distinct := map[time.Duration]bool{}
		for i := 0; i < 50; i++ {
			d := c.retryDelay(row.attempt, nil)
			if d < row.base/2 || d > row.base {
				t.Fatalf("retryDelay(%d) = %v, want within [%v, %v]", row.attempt, d, row.base/2, row.base)
			}
			distinct[d] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("50 samples of attempt %d produced one delay; jitter is not jittering", row.attempt)
		}
	}
	ae := &APIError{Status: 503, Code: "degraded", RetryAfter: 42 * time.Second}
	for _, attempt := range []int{1, 64} {
		if d := c.retryDelay(attempt, ae); d != 42*time.Second {
			t.Fatalf("Retry-After floor ignored at attempt %d: %v", attempt, d)
		}
	}
}

// TestOversizeResponseIsNamed: a reply over the limit used to be cut at
// the limit and reported as "unexpected end of JSON input". Now the error
// says what happened, before any decoding, and the download is not
// retried.
func TestOversizeResponseIsNamed(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		// A syntactically fine state reply, one byte over: streamed, so
		// no Content-Length gives it away.
		io.WriteString(w, `{"node":0,"shards":1,"keys":{"k":1}}`)
		pad := bytes.Repeat([]byte{' '}, 1<<20)
		for sent := len(`{"node":0,"shards":1,"keys":{"k":1}}`); sent < maxReply+1; {
			n := min(len(pad), maxReply+1-sent)
			w.Write(pad[:n])
			sent += n
		}
	}))
	defer srv.Close()

	_, err := New(srv.URL, WithRetries(3)).State(context.Background())
	if !errors.Is(err, ErrTooLarge) || !strings.Contains(err.Error(), "8388608-byte limit") {
		t.Fatalf("err = %v, want one that names the %d-byte limit", err, maxReply)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("the oversize reply was fetched %d times", n)
	}
}

// cannedRT answers every request with one fixed 200 — a body and nothing
// else, no headers, no ContentLength — so what Submit allocates is the
// SDK's alone (plus the three objects of the canned response).
type cannedRT struct{}

var cannedBody = []byte(`{"accepted":true,"id":"cli-0123456789abcdef01234567","lamport":123456,"latency_ns":45678}` + "\n")

func (cannedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(cannedBody)), Request: req}, nil
}

// TestSubmitAllocations pins the SDK's own cost of one Submit against
// this RoundTripper. With encoding/json on both halves, http.NewRequest
// and io.ReadAll it was 29. The codec, the pooled buffers and the
// hand-built request left 15, and an op ID minted on the stack 14. A body
// net/http knows is in memory (the body's string, its reader, the reader's
// closer and GetBody) and header sets shared by every request hold it at
// 14, which the pin allows, while net/http below it does less.
func TestSubmitAllocations(t *testing.T) {
	testenv.SkipUnderRace(t)
	cl := New("http://stub", WithHTTPClient(&http.Client{Transport: cannedRT{}}))
	op := Op{Kind: "deposit", Key: "acct-0001", Arg: 1}
	ctx := context.Background()
	got := testing.AllocsPerRun(500, func() {
		if res, err := cl.Submit(ctx, op, false); err != nil || !res.Accepted || res.Lamport != 123456 {
			t.Fatalf("Submit = %+v, %v", res, err)
		}
	})
	t.Logf("client.Submit: %.0f allocations", got)
	if got > 14 {
		t.Errorf("client.Submit allocates %.0f times, want at most 14", got)
	}
}

// echoRT answers a submit or a batch with every op accepted under the ID
// it was sent with, and records those IDs in arrival order.
type echoRT struct {
	mu  sync.Mutex
	ids []string
}

func (e *echoRT) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	var ops []Op
	var reply []byte
	if req.URL.Path == "/v1/batch" {
		var b BatchRequest
		err = ScanBatchRequest(body, &b)
		ops = b.Ops
		res := BatchResponse{Results: make([]Result, len(ops))}
		for i, op := range ops {
			res.Results[i] = Result{Accepted: true, ID: op.ID}
		}
		reply = AppendBatchResponse(nil, &res)
	} else {
		var r SubmitRequest
		err = ScanSubmitRequest(body, &r)
		ops = []Op{r.Op}
		reply = AppendResult(nil, &Result{Accepted: true, ID: r.ID})
	}
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	for _, op := range ops {
		e.ids = append(e.ids, op.ID)
	}
	e.mu.Unlock()
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(reply)), Request: req}, nil
}

// TestSessionIDsUnderConcurrentCallers: 16 goroutines share one Client.
// Every op ID it mints is its session's, in the form uniq.ParseID takes
// apart, and the numbers are 1..8000, each once, whatever order the
// callers took them in. A batch then takes the next numbers as one block,
// in op order, leaving a caller's own ID alone.
func TestSessionIDsUnderConcurrentCallers(t *testing.T) {
	const callers, each = 16, 500
	rt := &echoRT{}
	c := New("http://stub", WithHTTPClient(&http.Client{Transport: rt}))
	if len(c.session) != 11 {
		t.Fatalf("session %q: want 11 base64url characters", c.session)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				res, err := c.Submit(ctx, Op{Kind: "deposit", Key: "k", Arg: 1}, false)
				if err != nil || !res.Accepted {
					t.Errorf("Submit = %+v, %v", res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	seen := make([]bool, callers*each+1)
	for _, id := range rt.ids {
		node, seq, ok := uniq.ParseID(id)
		if !ok || node != c.session || seq == 0 || seq > callers*each || seen[seq] {
			t.Fatalf("ID %q: want the session %q's numbers 1..%d, each once", id, c.session, callers*each)
		}
		seen[seq] = true
	}
	if len(rt.ids) != callers*each {
		t.Fatalf("%d IDs minted, want %d", len(rt.ids), callers*each)
	}

	rt.ids = nil
	res, err := c.SubmitBatch(ctx, []Op{{Kind: "deposit"}, {Kind: "deposit", ID: "mine"}, {Kind: "deposit"}}, false)
	want := []string{
		string(uniq.AppendID(nil, c.session, callers*each+1)),
		"mine",
		string(uniq.AppendID(nil, c.session, callers*each+2)),
	}
	if err != nil || len(res) != len(want) || !slices.Equal(rt.ids, want) {
		t.Fatalf("SubmitBatch sent %q (%v), want %q", rt.ids, err, want)
	}
}

// TestSessionIDsSampleEvenly: the tracer samples an op when FNV-1a of its
// ID is 0 modulo the rate. Session IDs differ only in their sequential
// suffix, so the share sampled must still be near the rate: at 1 in 64,
// between 1/72 and 1/56 of 100 000 of them.
func TestSessionIDsSampleEvenly(t *testing.T) {
	const n = 100000
	c := New("http://stub")
	tr := trace.New(trace.Options{SampleEvery: 64})
	sampled := 0
	var buf [32]byte
	for seq := uint64(1); seq <= n; seq++ {
		if tr.Sampled(string(uniq.AppendID(buf[:0], c.session, seq))) {
			sampled++
		}
	}
	t.Logf("session %q: 1 in %.1f sampled", c.session, float64(n)/float64(sampled))
	if sampled < n/72 || sampled > n/56 {
		t.Errorf("session %q: %d of %d IDs sampled at 1 in 64, want %d..%d", c.session, sampled, n, n/72, n/56)
	}
}

// TestConcurrentCallsShareBuffers drives one Client from several
// goroutines, so request and reply buffers cycle through the pool under
// load, while a second endpoint answers large batches without reading
// them — the case where net/http's write loop can still hold a request
// body when the call returns and the buffer goes back to the pool. Every
// submit must get its own op's ID back. Run with -race.
func TestConcurrentCallsShareBuffers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			w.WriteHeader(http.StatusBadRequest) // before a byte of the body is read
			w.Write(AppendErrorEnvelope(nil, &ErrorEnvelope{Error: Error{Code: "bad_request", Message: "unread"}}))
			return
		}
		body, _ := io.ReadAll(r.Body)
		var req SubmitRequest
		if err := ScanSubmitRequest(body, &req); err != nil {
			t.Errorf("server got a mangled body %q: %v", body, err)
		}
		w.Write(AppendResult(nil, &Result{Accepted: true, ID: req.ID, Reason: req.Key}))
	}))
	defer srv.Close()
	c := New(srv.URL, WithRetries(0))
	ctx := context.Background()
	big := make([]Op, 4000)
	for i := range big {
		big[i] = Op{Kind: "deposit", Key: strings.Repeat("k", 200), Arg: int64(i)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g == 0 {
					var ae *APIError
					if _, err := c.SubmitBatch(ctx, big, false); !errors.As(err, &ae) || ae.Message != "unread" {
						t.Errorf("batch: %v", err)
					}
					continue
				}
				id, key := fmt.Sprintf("g%d-%d", g, i), strings.Repeat("x", i)
				res, err := c.Submit(ctx, Op{Kind: "deposit", Key: key, Arg: 1, ID: id}, false)
				if err != nil || res.ID != id || res.Reason != key {
					t.Errorf("submit %s: got %+v, %v", id, res, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRedirectResendsTheBody: the request is built by hand, so its
// GetBody is ours — a 307 must deliver the same op to where it points.
func TestRedirectResendsTheBody(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/moved", http.StatusTemporaryRedirect)
	})
	mux.HandleFunc("/moved", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req SubmitRequest
		if err := ScanSubmitRequest(body, &req); err != nil || r.Header.Get("Content-Type") != "application/json" {
			t.Errorf("redirected request: body %q (%v), headers %v", body, err, r.Header)
		}
		w.Write(AppendResult(nil, &Result{Accepted: true, ID: req.ID}))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	res, err := New(srv.URL, WithRetries(0)).Submit(context.Background(), Op{Kind: "deposit", Key: "k", Arg: 1, ID: "op-1"}, false)
	if err != nil || !res.Accepted || res.ID != "op-1" {
		t.Fatalf("Submit through a 307 = %+v, %v", res, err)
	}
}

// TestBadBaseURLIsAnError: New cannot fail, so a base that does not parse
// comes back from every call instead.
func TestBadBaseURLIsAnError(t *testing.T) {
	c := New("http://[::1")
	ctx := context.Background()
	if _, err := c.Submit(ctx, Op{Kind: "deposit"}, false); err == nil {
		t.Error("Submit on an unparsable base succeeded")
	}
	if _, _, err := c.StateOf(ctx, "k"); err == nil {
		t.Error("StateOf on an unparsable base succeeded")
	}
	if _, err := c.Health(ctx); err == nil {
		t.Error("Health on an unparsable base succeeded")
	}
}

// countingConn counts the writes made on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestSubmitIsOneWrite: a request's body is a reader net/http knows is in
// memory, so the headers and the body leave in one socket write — one per
// Submit and one per SubmitBatch.
func TestSubmitIsOneWrite(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/v1/batch" {
			var req BatchRequest
			if err := ScanBatchRequest(body, &req); err != nil {
				t.Errorf("batch body %q: %v", body, err)
			}
			res := BatchResponse{Results: make([]Result, len(req.Ops))}
			for i, op := range req.Ops {
				res.Results[i] = Result{Accepted: true, ID: op.ID}
			}
			w.Write(AppendBatchResponse(nil, &res))
			return
		}
		var req SubmitRequest
		if err := ScanSubmitRequest(body, &req); err != nil {
			t.Errorf("submit body %q: %v", body, err)
		}
		w.Write(AppendResult(nil, &Result{Accepted: true, ID: req.ID}))
	}))
	defer srv.Close()
	var writes atomic.Int64
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := d.DialContext(ctx, network, addr)
		return countingConn{Conn: conn, writes: &writes}, err
	}}
	defer tr.CloseIdleConnections()
	c := New(srv.URL, WithHTTPClient(&http.Client{Transport: tr}), WithToken("tok"))
	ctx := context.Background()
	ops := []Op{{Kind: "deposit", Key: "a", Arg: 1}, {Kind: "deposit", Key: "b", Arg: 2}}
	for i := 0; i < 5; i++ {
		before := writes.Load()
		if res, err := c.Submit(ctx, Op{Kind: "deposit", Key: "k", Arg: 1}, false); err != nil || !res.Accepted {
			t.Fatalf("Submit = %+v, %v", res, err)
		}
		if n := writes.Load() - before; n != 1 {
			t.Errorf("Submit %d made %d conn writes, want 1", i, n)
		}
		before = writes.Load()
		if res, err := c.SubmitBatch(ctx, ops, false); err != nil || len(res) != len(ops) {
			t.Fatalf("SubmitBatch = %+v, %v", res, err)
		}
		if n := writes.Load() - before; n != 1 {
			t.Errorf("SubmitBatch %d made %d conn writes, want 1", i, n)
		}
	}
}

// TestCookieJarIsNotUsed: every request shares its client's header sets,
// and a cookie Jar is the one thing in net/http that writes a request's
// Header, so the client drops the Jar of the http.Client it is given.
// Under -race, 16 concurrent callers show the shared sets are only read;
// the server shows no Cookie header was sent.
func TestCookieJarIsNotUsed(t *testing.T) {
	var cookies atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Cookie") != "" {
			cookies.Add(1)
		}
		if got := r.Header.Get("Authorization"); got != "Bearer tok" {
			t.Errorf("Authorization = %q", got)
		}
		body, _ := io.ReadAll(r.Body)
		var req SubmitRequest
		if err := ScanSubmitRequest(body, &req); err != nil {
			t.Errorf("submit body %q: %v", body, err)
		}
		w.Write(AppendResult(nil, &Result{Accepted: true, ID: req.ID}))
	}))
	defer srv.Close()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := url.Parse(srv.URL)
	jar.SetCookies(u, []*http.Cookie{{Name: "session", Value: "s3cret"}})
	c := New(srv.URL, WithHTTPClient(&http.Client{Jar: jar}), WithToken("tok"))
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if res, err := c.Submit(ctx, Op{Kind: "deposit", Key: "k", Arg: 1}, false); err != nil || !res.Accepted {
					t.Errorf("Submit = %+v, %v", res, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := cookies.Load(); n != 0 {
		t.Fatalf("%d requests carried the jar's cookie", n)
	}
}
