package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testenv"
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
// so a fleet bounced together does not retry together, and a server
// Retry-After floors the wait.
func TestRetryDelayJitters(t *testing.T) {
	c := New("127.0.0.1:1")
	base := c.backoff << 1 // attempt 2
	distinct := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		d := c.retryDelay(2, nil)
		if d < base/2 || d > base {
			t.Fatalf("retryDelay = %v, want within [%v, %v]", d, base/2, base)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Fatal("50 samples produced one delay; jitter is not jittering")
	}
	ae := &APIError{Status: 503, Code: "degraded", RetryAfter: 42 * time.Second}
	if d := c.retryDelay(1, ae); d != 42*time.Second {
		t.Fatalf("Retry-After floor ignored: %v", d)
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

// TestSubmitAllocations pins the SDK's own cost of one Submit. With
// encoding/json on both halves, http.NewRequest and io.ReadAll it was 29
// against this RoundTripper; the codec, the pooled buffers and the
// hand-built request leave 15, and the pin allows 17.
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
	if got > 17 {
		t.Errorf("client.Submit allocates %.0f times, want at most 17", got)
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
