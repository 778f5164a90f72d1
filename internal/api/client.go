package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/greenhpc/archertwin/internal/jsonwire"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// Client is the typed v1 API client: every twinserver consumer — the
// fabric coordinator, cmd/sweep -server, worker heartbeats, tests —
// talks through it instead of hand-rolling http.Get calls, so request
// encoding, error-envelope decoding and transient-failure retries live
// in exactly one place.
//
// The zero value is not usable; construct with NewClient. Client is
// safe for concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8990".
	BaseURL string
	// HTTPClient performs the requests; nil means http.DefaultClient.
	// Deadlines come from the per-call context (shard runs are long),
	// not from a global client timeout.
	HTTPClient *http.Client
	// Retries is how many times an idempotent request is re-attempted
	// after a transport error or a 502/503/504 (default 2). Non-
	// idempotent calls (submissions, shard dispatch) never retry — their
	// caller owns that policy.
	Retries int
	// Backoff is the base delay between retries, doubling per attempt
	// (default 200ms).
	Backoff time.Duration
}

// NewClient returns a Client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, &h, true); err != nil {
		return err
	}
	if !h.OK {
		return &Error{Code: ErrUnavailable, Message: "server reports not ok"}
	}
	return nil
}

// Stats fetches GET /statz.
func (c *Client) Stats(ctx context.Context) (ServiceStats, error) {
	var st ServiceStats
	err := c.do(ctx, http.MethodGet, "/statz", nil, nil, &st, true)
	return st, err
}

// SubmitSweep submits a spec without waiting (POST /v1/sweeps) and
// returns the sweep's status plus whether the submission joined an
// existing identical sweep (HTTP 200) rather than starting one (202).
func (c *Client) SubmitSweep(ctx context.Context, spec scenario.Spec) (SweepStatus, bool, error) {
	var st SweepStatus
	code, err := c.doCode(ctx, http.MethodPost, PathPrefix+"/sweeps", nil, spec, &st, false)
	return st, code == http.StatusOK, err
}

// SubmitSweepWait submits a spec and blocks until the sweep reaches a
// terminal state (POST /v1/sweeps?wait=1), returning its results. A
// failed or cancelled sweep surfaces as an *Error (sweep_failed /
// sweep_canceled) whose envelope status is discarded — use Sweep for
// the detail.
func (c *Client) SubmitSweepWait(ctx context.Context, spec scenario.Spec) (*ResultsPayload, error) {
	q := url.Values{"wait": {"1"}}
	var p ResultsPayload
	if err := c.do(ctx, http.MethodPost, PathPrefix+"/sweeps", q, spec, &p, false); err != nil {
		return nil, err
	}
	return &p, nil
}

// ListOptions filter GET /v1/sweeps.
type ListOptions struct {
	// Limit bounds the page (0 = the server default, DefaultListLimit).
	Limit int
	// States restricts to the given lifecycle states (empty = all).
	States []SweepState
}

// Sweeps lists sweeps, newest first (GET /v1/sweeps).
func (c *Client) Sweeps(ctx context.Context, opts ListOptions) (SweepList, error) {
	q := url.Values{}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if len(opts.States) > 0 {
		parts := make([]string, len(opts.States))
		for i, s := range opts.States {
			parts[i] = string(s)
		}
		q.Set("state", strings.Join(parts, ","))
	}
	var l SweepList
	err := c.do(ctx, http.MethodGet, PathPrefix+"/sweeps", q, nil, &l, true)
	return l, err
}

// Sweep fetches one sweep's status (GET /v1/sweeps/{id}).
func (c *Client) Sweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodGet, PathPrefix+"/sweeps/"+url.PathEscape(id), nil, nil, &st, true)
	return st, err
}

// Results fetches a completed sweep's results
// (GET /v1/sweeps/{id}/results). A non-terminal sweep returns an
// *Error with code sweep_not_done.
func (c *Client) Results(ctx context.Context, id string) (*ResultsPayload, error) {
	var p ResultsPayload
	if err := c.do(ctx, http.MethodGet, PathPrefix+"/sweeps/"+url.PathEscape(id)+"/results", nil, nil, &p, true); err != nil {
		return nil, err
	}
	return &p, nil
}

// CancelSweep cancels a sweep (DELETE /v1/sweeps/{id}).
func (c *Client) CancelSweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodDelete, PathPrefix+"/sweeps/"+url.PathEscape(id), nil, nil, &st, false)
	return st, err
}

// RunShard dispatches one shard to a worker (POST /v1/shards) and
// blocks until the shard completes. Never retried here: the fabric
// coordinator owns re-shard policy, and a transport error must surface
// to it as a worker-loss signal, not be papered over.
func (c *Client) RunShard(ctx context.Context, req ShardRequest) (*ShardResponse, error) {
	var resp ShardResponse
	if err := c.do(ctx, http.MethodPost, PathPrefix+"/shards", nil, req, &resp, false); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Join announces a worker to a coordinator (POST /v1/workers). Joins
// double as heartbeats; the coordinator answers with its live
// membership.
func (c *Client) Join(ctx context.Context, req JoinRequest) (WorkerList, error) {
	var wl WorkerList
	err := c.do(ctx, http.MethodPost, PathPrefix+"/workers", nil, req, &wl, false)
	return wl, err
}

// Workers lists a coordinator's registered workers (GET /v1/workers).
func (c *Client) Workers(ctx context.Context) (WorkerList, error) {
	var wl WorkerList
	err := c.do(ctx, http.MethodGet, PathPrefix+"/workers", nil, nil, &wl, true)
	return wl, err
}

// IsTransient reports whether err looks like a transport-level or
// availability failure — the class worth retrying on another replica —
// rather than a deterministic API rejection. A decoded *Error is
// transient only with code unavailable (or a 502/504 from an
// intermediary); anything else that decoded is the server answering
// deliberately. Errors that never produced a response (connection
// refused, reset, timeout) are transient by definition.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if apiErr, ok := err.(*Error); ok {
		return apiErr.Code == ErrUnavailable ||
			apiErr.HTTPStatus == http.StatusBadGateway ||
			apiErr.HTTPStatus == http.StatusGatewayTimeout
	}
	return true
}

// do performs one call; see doCode.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, in, out any, retryable bool) error {
	_, err := c.doCode(ctx, method, path, query, in, out, retryable)
	return err
}

// doCode performs one API call: marshal in (when non-nil), decode a 2xx
// body into out (when non-nil), decode anything else as an
// ErrorEnvelope and return its *Error. Retryable requests re-attempt
// transport errors and 502/503/504 with doubling backoff. An overloaded
// (429) answer is retried on every call — even non-idempotent ones,
// because the server sheds before any state changes — honouring its
// Retry-After hint with jitter so a herd of shed clients does not
// return in lockstep.
func (c *Client) doCode(ctx context.Context, method, path string, query url.Values, in, out any, retryable bool) (int, error) {
	u := c.BaseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, fmt.Errorf("api: encoding request: %w", err)
		}
	}
	retries := c.Retries
	if retries == 0 {
		retries = 2
	}
	transientRetries := retries
	if !retryable {
		transientRetries = 0
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}

	var wait time.Duration // delay before the next attempt, set when retrying
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(wait):
			}
		}
		var rd io.Reader
		if in != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return 0, fmt.Errorf("api: building request: %w", err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := httpc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("api: %s %s: %w", method, path, err)
			if attempt < transientRetries && ctx.Err() == nil {
				wait = backoff << attempt
				continue
			}
			return 0, lastErr
		}
		code, err := decodeResponse(resp, out)
		if err != nil && ctx.Err() == nil {
			var apiErr *Error
			if errors.As(err, &apiErr) && apiErr.Code == ErrOverloaded && attempt < retries {
				base := apiErr.RetryAfter
				if base <= 0 {
					base = backoff << attempt
				}
				wait = withJitter(base)
				lastErr = err
				continue
			}
			if attempt < transientRetries && IsTransient(err) {
				wait = backoff << attempt
				lastErr = err
				continue
			}
		}
		return code, err
	}
}

// withJitter stretches a retry delay by up to 25% so shed clients
// spread out instead of re-arriving together at the Retry-After mark.
func withJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d + time.Duration(rand.Int63n(int64(d)/4+1))
}

// maxSizedBody caps the Content-Length decodeResponse trusts for a
// one-shot read: a body declared larger is read with io.ReadAll, which
// grows only as bytes arrive, so a bogus length cannot make the client
// allocate it up front.
const maxSizedBody = 16 << 20

// decodeResponse consumes and closes the response body: 2xx decodes
// into out, anything else decodes the error envelope. A body of known
// length is read into a buffer borrowed from bodyPool and returned once
// decoded: both decoders copy every string they keep, so nothing
// decoded refers into it. An out that decodes itself (jsonwire.Decoder:
// the results and shard bodies) skips json.Unmarshal and accepts the
// same input.
func decodeResponse(resp *http.Response, out any) (int, error) {
	defer resp.Body.Close()
	buf := bodyPool.Get().(*[]byte)
	defer putBody(buf)
	data, err := readBody(resp, buf)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("api: reading response: %w", err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return resp.StatusCode, nil
		}
		if err := jsonwire.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("api: decoding %d response: %w", resp.StatusCode, err)
		}
		return resp.StatusCode, nil
	}
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil {
		env.Error.HTTPStatus = resp.StatusCode
		env.Error.RetryAfter = retryAfter
		return resp.StatusCode, env.Error
	}
	// Not an envelope (a proxy error page, an old server): synthesize.
	msg := strings.TrimSpace(string(data))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	code := ErrInternal
	if resp.StatusCode == http.StatusServiceUnavailable {
		code = ErrUnavailable
	}
	return resp.StatusCode, &Error{Code: code, Message: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, msg), HTTPStatus: resp.StatusCode, RetryAfter: retryAfter}
}

// readBody reads the whole response body: when its length is declared
// and at most maxSizedBody, in one read into *buf, grown to that length
// if it is shorter; else with io.ReadAll. A body shorter than its
// declared length is an error.
func readBody(resp *http.Response, buf *[]byte) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(resp.Body)
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	data := (*buf)[:n]
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// parseRetryAfter reads an integer-seconds Retry-After value (the only
// form twinserver emits); anything else is zero.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
