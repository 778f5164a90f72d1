package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/jsonwire"
	"github.com/greenhpc/archertwin/internal/report"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// TestClientDecodesErrorEnvelope: a non-2xx envelope comes back as a
// typed *Error carrying the wire code and the HTTP status.
func TestClientDecodesErrorEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, ErrNotFound, "no such sweep sweep-9")
	}))
	defer srv.Close()

	_, err := NewClient(srv.URL).Sweep(context.Background(), "sweep-9")
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v (%T), want *api.Error", err, err)
	}
	if apiErr.Code != ErrNotFound || apiErr.HTTPStatus != http.StatusNotFound {
		t.Errorf("decoded error = %+v, want code=not_found status=404", apiErr)
	}
	if IsTransient(apiErr) {
		t.Error("a deliberate 404 must not classify as transient")
	}
}

// TestClientRetriesTransient: an idempotent GET retries through a 503
// and a connection-level failure to the eventual answer.
func TestClientRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			WriteError(w, http.StatusServiceUnavailable, ErrUnavailable, "warming up")
			return
		}
		WriteJSON(w, http.StatusOK, Health{OK: true})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Backoff = time.Millisecond
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health after transient 503s: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (two retries)", got)
	}
}

// TestClientNeverRetriesShards: shard dispatch must fail fast so the
// coordinator — not the transport layer — decides about re-sharding.
func TestClientNeverRetriesShards(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusServiceUnavailable, ErrUnavailable, "draining")
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Backoff = time.Millisecond
	_, err := c.RunShard(context.Background(), ShardRequest{})
	if err == nil {
		t.Fatal("RunShard against a draining server must error")
	}
	if !IsTransient(err) {
		t.Errorf("a 503 shard answer must classify transient, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d shard calls, want exactly 1 (no client retry)", got)
	}
}

// TestClientSynthesizesNonEnvelopeError: a body that is not the v1
// envelope (a proxy error page) still comes back as a typed *Error.
func TestClientSynthesizesNonEnvelopeError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retries = -1 // negative disables retries; 0 would mean the default
	c.Backoff = time.Millisecond
	_, err := c.Workers(context.Background())
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v (%T), want *api.Error", err, err)
	}
	if apiErr.HTTPStatus != http.StatusBadGateway {
		t.Errorf("HTTPStatus = %d, want 502", apiErr.HTTPStatus)
	}
	if !IsTransient(apiErr) {
		t.Error("a 502 must classify as transient")
	}
}

// TestClientTransportErrorsAreTransient: an unreachable server is a
// transient failure (worker loss), not a deliberate rejection.
func TestClientTransportErrorsAreTransient(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // immediately: connections now refuse

	c := NewClient(srv.URL)
	c.Retries = 1
	c.Backoff = time.Millisecond
	_, err := c.RunShard(context.Background(), ShardRequest{})
	if err == nil {
		t.Fatal("RunShard against a closed server must error")
	}
	if !IsTransient(err) {
		t.Errorf("connection-refused must classify transient, got %v", err)
	}
}

// TestWriteOverloadedPinsWire: the 429 answer carries the overloaded
// envelope and a whole-second Retry-After header (rounded up, never
// below 1).
func TestWriteOverloadedPinsWire(t *testing.T) {
	for _, tc := range []struct {
		retryAfter time.Duration
		header     string
	}{
		{3 * time.Second, "3"},
		{1500 * time.Millisecond, "2"}, // rounds up
		{0, "1"},                       // floor
	} {
		rec := httptest.NewRecorder()
		WriteOverloaded(rec, tc.retryAfter, "executor saturated")
		if rec.Code != http.StatusTooManyRequests {
			t.Errorf("retryAfter %v: status = %d, want 429", tc.retryAfter, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.header {
			t.Errorf("retryAfter %v: Retry-After = %q, want %q", tc.retryAfter, got, tc.header)
		}
	}
}

// TestClientRetriesOverloaded: a 429 is retried — even on a
// non-idempotent submission, because shedding happens before any state
// changes — after at least the server's Retry-After hint.
func TestClientRetriesOverloaded(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			WriteOverloaded(w, time.Second, "executor saturated")
			return
		}
		WriteJSON(w, http.StatusAccepted, SweepStatus{ID: "sweep-1", State: StatePending})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	start := time.Now()
	st, joined, err := c.SubmitSweep(context.Background(), scenario.Spec{Name: "x", Nodes: 32, Days: 1})
	if err != nil {
		t.Fatalf("SubmitSweep through two 429s: %v", err)
	}
	if joined || st.ID != "sweep-1" {
		t.Errorf("joined=%v status=%+v, want fresh sweep-1", joined, st)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (two 429 retries)", got)
	}
	// Two retries each waited >= the 1s Retry-After hint (plus jitter).
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Errorf("elapsed %v, want >= 2s (Retry-After honoured twice)", elapsed)
	}
}

// TestClientOverloadedRetriesBounded: a server that sheds forever
// exhausts the retry budget and surfaces the typed 429 with its hint.
func TestClientOverloadedRetriesBounded(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteOverloaded(w, time.Second, "journal disk stalled")
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retries = 1
	_, _, err := c.SubmitSweep(context.Background(), scenario.Spec{Name: "x", Nodes: 32, Days: 1})
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v (%T), want *api.Error", err, err)
	}
	if apiErr.Code != ErrOverloaded || apiErr.HTTPStatus != http.StatusTooManyRequests {
		t.Errorf("decoded error = %+v, want code=overloaded status=429", apiErr)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s", apiErr.RetryAfter)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls, want 2 (retry budget 1)", got)
	}
}

// TestClientDecodesSizedBody: WriteJSON answers with a Content-Length
// (no chunked transfer, even past net/http's 2 KiB response buffer) that
// matches the body, and the client decodes such a body as before.
func TestClientDecodesSizedBody(t *testing.T) {
	want := SweepList{Total: 64}
	for i := 0; i < want.Total; i++ {
		want.Sweeps = append(want.Sweeps, SweepStatus{ID: fmt.Sprintf("sweep-%d", i), Name: "sweep", State: StateDone,
			Submitted: time.Date(2026, 8, 1, 12, 30, i, 0, time.UTC), Progress: SweepProgress{Scenarios: 8, Simulations: 8, Done: 8}})
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, want)
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a %d-byte body; want the length, not chunked",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}

	got, err := NewClient(srv.URL).Sweeps(context.Background(), ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}

// TestDecodeResponseOverCapReadsAll: a declared length above
// maxSizedBody is not trusted: the body is read as it arrives, and the
// declared length is never allocated up front.
func TestDecodeResponseOverCapReadsAll(t *testing.T) {
	resp := &http.Response{
		StatusCode:    http.StatusOK,
		ContentLength: maxSizedBody + 1,
		Body:          io.NopCloser(strings.NewReader(`{"ok":true}`)),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var h Health
	_, err := decodeResponse(resp, &h)
	runtime.ReadMemStats(&after)
	if err != nil || !h.OK {
		t.Fatalf("decode = %+v, %v; want the short body read whole", h, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxSizedBody/2 {
		t.Errorf("decoding allocated %d bytes; the declared %d must not be allocated", alloc, resp.ContentLength)
	}
}

// TestClientDecodedValuesSurviveBufferReuse: decodeResponse reads a
// sized body into a pooled buffer and returns the buffer once decoded,
// so nothing decoded may refer into it. A results payload, an error
// envelope's message and a synthesized (non-envelope) error's message
// must each stay as decoded while later, different bodies of at most
// the same length (so they fit the same buffers) are read through the
// same client, and written through the same pool by the server.
func TestClientDecodedValuesSurviveBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	payloads := map[string]*ResultsPayload{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, PathPrefix+"/sweeps/"), "/results")
		switch {
		case strings.HasPrefix(id, "env-"):
			WriteError(w, http.StatusNotFound, ErrNotFound, "no such sweep "+id)
		case strings.HasPrefix(id, "page-"):
			http.Error(w, "proxy page for "+id, http.StatusBadGateway)
		default:
			WriteJSON(w, http.StatusOK, payloads[id])
		}
	}))
	defer srv.Close()
	for i := 0; i < 8; i++ {
		p := &ResultsPayload{ID: fmt.Sprintf("sweep-%d", i), Spec: scenario.DefaultSpec(), Workers: i,
			RegimeTable: report.NewTable(fmt.Sprintf("regimes of sweep %d %s", i, strings.Repeat("x", 8*(8-i))), "scenario")}
		p.Spec.Name = fmt.Sprintf("spec-%d", i)
		for j := 0; j < 10-i; j++ { // sweep-0 is the longest body
			p.Results = append(p.Results, randomResult(rng))
		}
		payloads[p.ID] = p
	}

	c := NewClient(srv.URL)
	c.Retries = -1
	ctx := context.Background()
	// reuse reads the other bodies through the same client: the error
	// bodies, as long as the "-a" ones, and then every shorter payload.
	reuse := func() {
		t.Helper()
		for n := 0; n < 4; n++ {
			for _, id := range []string{"env-b", "page-b"} {
				if _, err := c.Results(ctx, id); err == nil {
					t.Fatalf("%s: want an error", id)
				}
			}
			for i := 1; i < len(payloads); i++ {
				if _, err := c.Results(ctx, fmt.Sprintf("sweep-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	first, err := c.Results(ctx, "sweep-0")
	if err != nil {
		t.Fatal(err)
	}
	var want ResultsPayload // decoded from a private copy of the body
	body, err := payloads["sweep-0"].AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonwire.Decode(body, &want); err != nil {
		t.Fatal(err)
	}
	reuse()
	if !reflect.DeepEqual(first, &want) {
		t.Errorf("payload changed after later bodies reused its buffer:\n got %+v\nwant %+v", first, &want)
	}

	for _, id := range []string{"env-a", "page-a"} {
		_, err := c.Results(ctx, id)
		var apiErr *Error
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: err = %v (%T), want *api.Error", id, err, err)
		}
		msg := strings.Clone(apiErr.Message)
		if !strings.Contains(msg, id) {
			t.Fatalf("%s: message %q does not name the sweep", id, msg)
		}
		reuse()
		if apiErr.Message != msg {
			t.Errorf("%s: message changed after buffer reuse: %q, was %q", id, apiErr.Message, msg)
		}
	}
}

// TestClientShortBodyErrors: a body that ends before its declared
// length is an error, not a truncated decode.
func TestClientShortBodyErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"ok\":true}")
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retries = -1
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("a body shorter than its Content-Length decoded without error")
	}
}

// TestWriteJSONEncodeFailure: a value that cannot be encoded answers 500
// with the internal envelope, never a truncated 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"mean_power": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code != ErrInternal {
		t.Fatalf("body %q: want an internal error envelope (%v)", rec.Body.String(), err)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q for a %d-byte body", got, rec.Body.Len())
	}
}
