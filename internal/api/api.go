// Package api is the versioned wire contract of the twinserver HTTP
// service — the single place the v1 request, response and error shapes
// are defined. The server (internal/service, internal/fabric) marshals
// these types; the typed Client in this package consumes them; the
// golden wire test pins every JSON field name so the contract cannot
// drift silently. docs/api.md is the prose reference for the same
// contract.
//
// Layering: api depends only on the domain packages whose values travel
// on the wire (scenario, report). It must never import service or
// fabric — those implement the endpoints this package describes.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/greenhpc/archertwin/internal/jsonwire"
	"github.com/greenhpc/archertwin/internal/report"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// Version is the wire-contract version; every versioned endpoint lives
// under PathPrefix. Breaking changes to any type in this package require
// a new version prefix, not an edit to the v1 shapes.
const (
	Version    = "v1"
	PathPrefix = "/" + Version
)

// DefaultListLimit is the page size GET /v1/sweeps serves when no
// ?limit= parameter is given. The list endpoint is never unbounded.
const DefaultListLimit = 100

// ErrorCode machine-readably classifies an API error; codes are stable
// wire values, documented in docs/api.md.
type ErrorCode string

// The v1 error codes.
const (
	// ErrBadRequest: the request body or parameters failed validation.
	ErrBadRequest ErrorCode = "bad_request"
	// ErrNotFound: no such sweep (or other resource).
	ErrNotFound ErrorCode = "not_found"
	// ErrMethodNotAllowed: wrong HTTP method; the response carries an
	// Allow header listing the permitted ones.
	ErrMethodNotAllowed ErrorCode = "method_not_allowed"
	// ErrSweepNotDone: results were requested for a sweep that has not
	// reached a terminal state; the envelope embeds the live status.
	ErrSweepNotDone ErrorCode = "sweep_not_done"
	// ErrSweepFailed: the sweep ended in failure; the envelope embeds
	// the terminal status (whose error field has the cause).
	ErrSweepFailed ErrorCode = "sweep_failed"
	// ErrSweepCanceled: the sweep was cancelled before completing.
	ErrSweepCanceled ErrorCode = "sweep_canceled"
	// ErrShardFailed: a shard execution failed deterministically (a
	// scenario error, not a transport fault) — re-dispatching the same
	// shard elsewhere will fail identically.
	ErrShardFailed ErrorCode = "shard_failed"
	// ErrUnavailable: the server is shutting down or cannot serve this
	// request right now; retrying elsewhere (or later) may succeed.
	ErrUnavailable ErrorCode = "unavailable"
	// ErrOverloaded: the server shed this request under load (executor
	// saturated or journal stalled). Travels with HTTP 429 and a
	// Retry-After header; retrying after the hinted delay is expected to
	// succeed. Shedding happens before any state changes, so retries are
	// always safe.
	ErrOverloaded ErrorCode = "overloaded"
	// ErrInternal: unclassified server-side failure.
	ErrInternal ErrorCode = "internal"
)

// Error is the machine-readable API error. Servers embed it in an
// ErrorEnvelope; Client returns it (as a Go error) whenever a response
// carries one, so callers can switch on Code.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`

	// HTTPStatus is the HTTP status the error travelled with. It is
	// client-side bookkeeping, not part of the wire envelope.
	HTTPStatus int `json:"-"`

	// RetryAfter is the parsed Retry-After hint an overloaded (429)
	// response travelled with; zero when absent. Client-side
	// bookkeeping, not part of the wire envelope.
	RetryAfter time.Duration `json:"-"`
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// ErrorEnvelope is the uniform non-2xx response body:
//
//	{"error":{"code":"...","message":"..."},"status":{...}}
//
// Status is present only for sweep-state errors (sweep_not_done,
// sweep_failed, sweep_canceled), where the sweep's live status is the
// useful half of the answer.
type ErrorEnvelope struct {
	Error  *Error       `json:"error"`
	Status *SweepStatus `json:"status,omitempty"`
}

// Health is the GET /healthz liveness body.
type Health struct {
	OK bool `json:"ok"`
}

// SweepState is a sweep's position in its lifecycle.
type SweepState string

// Sweep lifecycle states.
const (
	StatePending  SweepState = "pending"
	StateRunning  SweepState = "running"
	StateDone     SweepState = "done"
	StateFailed   SweepState = "failed"
	StateCanceled SweepState = "canceled"
)

// Terminal reports whether the state is final.
func (s SweepState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ValidState reports whether s names a known lifecycle state (used to
// validate ?state= filters).
func ValidState(s SweepState) bool {
	switch s {
	case StatePending, StateRunning, StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// SweepProgress is a sweep's execution progress in unique simulations
// (the unit of actual work; scenarios sharing a simulation resolve
// together).
type SweepProgress struct {
	// Scenarios is the sweep's expanded scenario count.
	Scenarios int `json:"scenarios"`
	// Simulations is the number of unique simulations the sweep needs;
	// zero until the sweep starts resolving.
	Simulations int `json:"simulations"`
	// Done is how many of those have resolved (memo hits included).
	Done int `json:"done"`
}

// SweepStatus is a point-in-time snapshot of a registered sweep.
type SweepStatus struct {
	ID        string        `json:"id"`
	Name      string        `json:"name"`
	SpecKey   string        `json:"spec_key"`
	State     SweepState    `json:"state"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Progress  SweepProgress `json:"progress"`
	Error     string        `json:"error,omitempty"`
}

// SweepList is the GET /v1/sweeps body: a bounded page of statuses,
// newest submission first, plus the total match count before the limit
// was applied.
type SweepList struct {
	Sweeps []SweepStatus `json:"sweeps"`
	Total  int           `json:"total"`
}

// ResultsPayload is the body served for a completed sweep: the raw
// per-scenario results (each carrying its simulation's core.Results
// digest) plus the rendered comparison tables in structured form.
type ResultsPayload struct {
	ID          string             `json:"id"`
	Spec        scenario.Spec      `json:"spec"`
	Workers     int                `json:"workers"`
	Simulations int                `json:"simulations"`
	Results     []scenario.Result  `json:"results"`
	DeltaTable  *report.DeltaTable `json:"delta_table"`
	RegimeTable *report.Table      `json:"regime_table"`
	CarbonTable *report.Table      `json:"carbon_table,omitempty"`
}

// payloadFields is ResultsPayload's JSON, as its tags declare it; the
// spec, small and strictly parsed where it is input, is encoding/json's.
var payloadFields = []jsonwire.Field[ResultsPayload]{
	jsonwire.String("id", func(p *ResultsPayload) *string { return &p.ID }),
	jsonwire.JSON("spec", func(p *ResultsPayload) *scenario.Spec { return &p.Spec }),
	jsonwire.Int("workers", func(p *ResultsPayload) *int { return &p.Workers }),
	jsonwire.Int("simulations", func(p *ResultsPayload) *int { return &p.Simulations }),
	jsonwire.Slice("results", func(p *ResultsPayload) *[]scenario.Result { return &p.Results }),
	jsonwire.Ptr("delta_table", func(p *ResultsPayload) **report.DeltaTable { return &p.DeltaTable }, false),
	jsonwire.Ptr("regime_table", func(p *ResultsPayload) **report.Table { return &p.RegimeTable }, false),
	jsonwire.Ptr("carbon_table", func(p *ResultsPayload) **report.Table { return &p.CarbonTable }, true),
}

// AppendJSON appends the payload's JSON to dst.
func (p *ResultsPayload) AppendJSON(b []byte) ([]byte, error) {
	return jsonwire.AppendObject(b, payloadFields, p)
}

// DecodeJSON decodes the next value of r into the payload.
func (p *ResultsPayload) DecodeJSON(r *jsonwire.Reader) error {
	return jsonwire.DecodeObject(r, payloadFields, p)
}

// ServiceStats is the GET /statz operational snapshot.
type ServiceStats struct {
	// Cache is the shared Runner's memoization counters — the LRU the
	// whole service economises through (zero on a coordinator, which
	// runs no simulations of its own).
	Cache scenario.CacheStats `json:"cache"`
	// Sweeps counts registered sweeps by state.
	Sweeps map[SweepState]int `json:"sweeps"`
	// Executing is how many sweeps hold an executor slot right now,
	// against the MaxConcurrent bound.
	Executing     int `json:"executing"`
	MaxConcurrent int `json:"max_concurrent"`
	// ShardsServed counts shard executions this server has completed
	// for a coordinator (POST /v1/shards).
	ShardsServed int `json:"shards_served"`
}

// ShardRequest is the POST /v1/shards body: one worker's slice of an
// expanded sweep. Scenario indices refer to the spec's canonical
// expansion order (scenario.Spec.Expand), so worker and coordinator
// agree on identity without shipping expanded scenarios.
type ShardRequest struct {
	// SweepKey is the canonical spec key of the parent sweep
	// (SpecKey(Spec)) — logging/affinity metadata, not an input to the
	// execution.
	SweepKey string `json:"sweep_key"`
	// Shard / Of place this shard within the dispatch round.
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// Spec is the full canonical sweep spec.
	Spec scenario.Spec `json:"spec"`
	// Scenarios lists the expanded-scenario indices this worker runs,
	// ascending, deduplicated.
	Scenarios []int `json:"scenarios"`
}

// ShardResponse is the successful shard body: one Result per requested
// index, in the same ascending order, each carrying its simulation
// digest. Cross-scenario aggregation (avoided carbon, tables) is the
// coordinator's job at merge time — a shard sees only its slice.
type ShardResponse struct {
	Shard int `json:"shard"`
	// Results has exactly one entry per requested scenario index, in
	// request order; Result.Scenario.Index is the global expansion index.
	Results []scenario.Result `json:"results"`
	// Simulations is how many distinct simulations this shard resolved
	// (memo hits included).
	Simulations int `json:"simulations"`
}

// shardFields is ShardResponse's JSON, as its tags declare it.
var shardFields = []jsonwire.Field[ShardResponse]{
	jsonwire.Int("shard", func(s *ShardResponse) *int { return &s.Shard }),
	jsonwire.Slice("results", func(s *ShardResponse) *[]scenario.Result { return &s.Results }),
	jsonwire.Int("simulations", func(s *ShardResponse) *int { return &s.Simulations }),
}

// AppendJSON appends the response's JSON to dst.
func (s *ShardResponse) AppendJSON(b []byte) ([]byte, error) {
	return jsonwire.AppendObject(b, shardFields, s)
}

// DecodeJSON decodes the next value of r into the response.
func (s *ShardResponse) DecodeJSON(r *jsonwire.Reader) error {
	return jsonwire.DecodeObject(r, shardFields, s)
}

// JoinRequest is the POST /v1/workers body: a worker replica announcing
// (or re-announcing — joins double as heartbeats) itself to a
// coordinator.
type JoinRequest struct {
	// URL is the worker's advertised base URL, reachable from the
	// coordinator, e.g. "http://10.0.0.7:8990".
	URL string `json:"url"`
}

// WorkerInfo describes one registered worker replica.
type WorkerInfo struct {
	URL      string    `json:"url"`
	LastSeen time.Time `json:"last_seen"`
	// Shards counts shard dispatches this worker has completed for the
	// coordinator.
	Shards int `json:"shards"`
}

// WorkerList is the GET /v1/workers body (and the POST /v1/workers
// acknowledgement): the coordinator's live membership.
type WorkerList struct {
	Workers []WorkerInfo `json:"workers"`
}

// SpecKey is the canonical identity of a sweep spec: a digest of the
// spec's canonical (fully defaulted) form, so specs that mean the same
// sweep — whether defaults are spelled out or omitted — coalesce onto
// one key. The service uses it as the singleflight/dedup key; the
// fabric uses it as shard-affinity metadata. Deliberately coarser than
// the Runner's per-simulation memo keys.
func SpecKey(spec scenario.Spec) string {
	data, err := json.Marshal(spec.Canonical())
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("api: marshalling spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// WriteJSON writes v as compact JSON, one line, with the given HTTP
// status — the one encoder every v1 endpoint shares (jsonwire.Append:
// the results and shard bodies encode themselves). The body is encoded
// before the status line goes out, so it is sent once, with its
// Content-Length, and a value that fails to encode (a NaN float, say)
// answers 500 with an internal error envelope instead of a truncated
// body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := bodyPool.Get().(*[]byte)
	defer putBody(buf)
	body, err := jsonwire.Append((*buf)[:0], v)
	if err != nil {
		code = http.StatusInternalServerError
		// The envelope is plain strings; it always encodes.
		body, _ = jsonwire.Append(body[:0], ErrorEnvelope{Error: &Error{Code: ErrInternal, Message: "encoding response: " + err.Error()}})
	}
	body = append(body, '\n')
	*buf = body
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	// The status line is on the wire; a failed write means the client
	// has gone, and there is no one left to tell.
	_, _ = w.Write(body)
}

// bodyPool recycles WriteJSON's body buffers across responses.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody bounds the buffers bodyPool keeps: one rare huge body
// is left to the collector rather than pinned for the process lifetime.
const maxPooledBody = 1 << 20

// putBody returns a buffer to bodyPool.
func putBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// WriteError writes the uniform error envelope.
func WriteError(w http.ResponseWriter, httpStatus int, code ErrorCode, msg string) {
	WriteJSON(w, httpStatus, ErrorEnvelope{Error: &Error{Code: code, Message: msg}})
}

// WriteErrorStatus writes the error envelope with a sweep status
// embedded (the sweep-state error shape).
func WriteErrorStatus(w http.ResponseWriter, httpStatus int, code ErrorCode, msg string, st SweepStatus) {
	WriteJSON(w, httpStatus, ErrorEnvelope{Error: &Error{Code: code, Message: msg}, Status: &st})
}

// WriteMethodNotAllowed writes the 405 envelope with the mandatory
// Allow header.
func WriteMethodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	WriteError(w, http.StatusMethodNotAllowed, ErrMethodNotAllowed, "method not allowed; use "+allow)
}

// WriteOverloaded writes the 429 load-shedding envelope with a
// Retry-After header (whole seconds, rounded up, at least 1).
func WriteOverloaded(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := int((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	WriteError(w, http.StatusTooManyRequests, ErrOverloaded, msg)
}
