package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// smallSpec is a single-scenario, single-simulation sweep that runs in
// well under a second.
func smallSpec() scenario.Spec {
	return scenario.Spec{Name: "e2e", Nodes: 32, Days: 2, WarmupDays: 1, Seed: 7}
}

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Shutdown)
	return svc, srv
}

func postSweep(t *testing.T, url string, spec scenario.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// The headline end-to-end property: two concurrent identical submissions
// coalesce onto one sweep, the underlying simulation executes exactly
// once, and both served results carry core.Results digests byte-identical
// to a direct Runner.Run of the same spec.
func TestServerConcurrentIdenticalSubmissionsRunOnce(t *testing.T) {
	runner := &scenario.Runner{Workers: 2}
	_, srv := newTestServer(t, Config{Runner: runner})

	type outcome struct {
		code    int
		payload api.ResultsPayload
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp := postSweep(t, srv.URL+"/v1/sweeps?wait=1", smallSpec())
			defer resp.Body.Close()
			var p api.ResultsPayload
			if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
				t.Errorf("decoding response: %v", err)
			}
			results <- outcome{code: resp.StatusCode, payload: p}
		}()
	}
	a, b := <-results, <-results
	for _, o := range []outcome{a, b} {
		if o.code != http.StatusOK {
			t.Fatalf("wait-mode POST returned %d", o.code)
		}
		if len(o.payload.Results) != 1 {
			t.Fatalf("served %d results, want 1", len(o.payload.Results))
		}
	}
	if a.payload.ID != b.payload.ID {
		t.Errorf("identical submissions got different sweeps: %s vs %s", a.payload.ID, b.payload.ID)
	}

	// Exactly one simulation executed across both requests.
	if cs := runner.CacheStats(); cs.Misses != 1 {
		t.Errorf("cache stats %+v, want exactly 1 executed simulation", cs)
	}

	// Served digests match a direct in-process run on a fresh Runner.
	direct, err := (&scenario.Runner{Workers: 1}).Run(context.Background(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Results[0].SimDigest
	if want == "" {
		t.Fatal("direct run produced no digest")
	}
	for _, o := range []outcome{a, b} {
		if got := o.payload.Results[0].SimDigest; got != want {
			t.Errorf("served digest %s != direct-run digest %s", got, want)
		}
	}
}

// The async flow: submit, poll status, fetch results; a repeat
// submission of the same spec joins the completed sweep instead of
// re-running it.
func TestServerAsyncSubmitPollResults(t *testing.T) {
	runner := &scenario.Runner{Workers: 2}
	_, srv := newTestServer(t, Config{Runner: runner})

	resp := postSweep(t, srv.URL+"/v1/sweeps", smallSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST returned %d, want 202", resp.StatusCode)
	}
	var st api.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.State == "" {
		t.Fatalf("degenerate status: %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for st.State != api.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in state %q", st.State)
		}
		time.Sleep(20 * time.Millisecond)
		r, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State == api.StateFailed || st.State == api.StateCanceled {
			t.Fatalf("sweep ended %q: %s", st.State, st.Error)
		}
	}
	if st.Progress.Simulations != 1 || st.Progress.Done != 1 || st.Progress.Scenarios != 1 {
		t.Errorf("completed progress %+v, want 1/1 sims, 1 scenario", st.Progress)
	}

	r, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("results returned %d, want 200", r.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var table struct {
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(raw["delta_table"], &table); err != nil {
		t.Fatal(err)
	}
	if len(table.Headers) == 0 || len(table.Rows) != 1 {
		t.Errorf("delta table JSON %s lacks headers or rows", raw["delta_table"])
	}

	// A later identical submission joins the retained sweep: 200, same
	// ID, no new simulation.
	resp = postSweep(t, srv.URL+"/v1/sweeps", smallSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("repeat POST returned %d, want 200 (joined)", resp.StatusCode)
	}
	var again api.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID {
		t.Errorf("repeat submission got sweep %s, want %s", again.ID, st.ID)
	}
	if cs := runner.CacheStats(); cs.Misses != 1 {
		t.Errorf("repeat submission re-simulated: %+v", cs)
	}
}

// blockingRun is a RunFunc that parks until its context is cancelled,
// signalling on started.
func blockingRun(started chan<- context.Context) RunFunc {
	return func(ctx context.Context, spec scenario.Spec, progress func(int, int)) (*scenario.SweepResults, error) {
		started <- ctx
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

func waitForState(t *testing.T, svc *Service, id string, want api.SweepState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sw, ok := svc.Get(id)
		if !ok {
			t.Fatalf("sweep %s vanished", id)
		}
		if st := sw.Status().State; st == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %q, want %q", id, st, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A waiting client disconnecting mid-run cancels the sweep: the context
// reaches the executor and the sweep lands in the canceled state.
func TestServerClientDisconnectCancelsSweep(t *testing.T) {
	started := make(chan context.Context, 1)
	svc, srv := newTestServer(t, Config{Run: blockingRun(started)})

	body, _ := json.Marshal(smallSpec())
	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
		srv.URL+"/v1/sweeps?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	runCtx := <-started // the sweep is executing
	cancelReq()         // ...and its only client walks away
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("request ended with %v, want context.Canceled", err)
	}
	select {
	case <-runCtx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sweep context never cancelled after client disconnect")
	}
	sts := svc.List()
	if len(sts) != 1 {
		t.Fatalf("registry holds %d sweeps, want 1", len(sts))
	}
	waitForState(t, svc, sts[0].ID, api.StateCanceled)
}

// With two attached waiters, one disconnect must not cancel the shared
// sweep; the second disconnect must.
func TestServerSharedSweepSurvivesOneDisconnect(t *testing.T) {
	started := make(chan context.Context, 1)
	svc, err := New(Config{Run: blockingRun(started)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	sw1, joined1, err := svc.Submit(ctx1, smallSpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	sw2, joined2, err := svc.Submit(ctx2, smallSpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	if joined1 || !joined2 || sw1 != sw2 {
		t.Fatalf("submissions did not coalesce: joined = %v/%v", joined1, joined2)
	}

	runCtx := <-started
	cancel1()
	select {
	case <-runCtx.Done():
		t.Fatal("sweep cancelled while a waiter remained attached")
	case <-time.After(50 * time.Millisecond):
	}
	cancel2()
	select {
	case <-runCtx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sweep survived its last waiter disconnecting")
	}
	waitForState(t, svc, sw1.ID, api.StateCanceled)
}

// An explicit DELETE cancels even a pinned (fire-and-poll) sweep.
func TestServerDeleteCancelsPinnedSweep(t *testing.T) {
	started := make(chan context.Context, 1)
	svc, srv := newTestServer(t, Config{Run: blockingRun(started)})

	resp := postSweep(t, srv.URL+"/v1/sweeps", smallSpec())
	var st api.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-started

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE returned %d", dresp.StatusCode)
	}
	waitForState(t, svc, st.ID, api.StateCanceled)
}

// A finished sweep releases its run context before Done closes;
// otherwise every sweep ever served stays registered under the
// service's base context.
func TestFinishedSweepReleasesRunContext(t *testing.T) {
	ran := make(chan context.Context, 1)
	svc, err := New(Config{Run: func(ctx context.Context, spec scenario.Spec, _ func(int, int)) (*scenario.SweepResults, error) {
		ran <- ctx
		return &scenario.SweepResults{Spec: spec}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	sw, _, err := svc.Submit(context.Background(), smallSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	<-sw.Done()
	if st := sw.state(); st != api.StateDone {
		t.Fatalf("sweep state = %s, want done", st)
	}
	if err := (<-ran).Err(); err == nil {
		t.Error("a done sweep's run context is still live")
	}
}

// SpecKey identifies specs by meaning: omitted fields and spelled-out
// defaults coalesce, any effective difference separates.
func TestSpecKeyCanonicalisation(t *testing.T) {
	if api.SpecKey(scenario.Spec{}) != api.SpecKey(scenario.Spec{Name: "sweep", Nodes: 200, Days: 28, Seed: 42, Mode: scenario.ModeGrid}) {
		t.Error("explicit defaults and omitted fields produced different keys")
	}
	if api.SpecKey(scenario.Spec{}) == api.SpecKey(scenario.Spec{Days: 14}) {
		t.Error("different sweeps share a key")
	}
	// The carbon tunables canonicalise too: spelling out their defaults
	// must coalesce with omitting them.
	explicitCarbon := scenario.Spec{Carbon: scenario.CarbonSpec{
		MaxDelayHours: 8, FlexibleShare: 0.5, BudgetFraction: 0.85,
	}}
	if api.SpecKey(scenario.Spec{}) != api.SpecKey(explicitCarbon) {
		t.Error("explicit carbon defaults produced a different key")
	}
	if api.SpecKey(scenario.Spec{}) == api.SpecKey(scenario.Spec{Carbon: scenario.CarbonSpec{FlexibleShare: 0.9}}) {
		t.Error("different carbon tunables share a key")
	}
	// The warmup sentinel resolves stably: -1 keys the same sweep at any
	// canonicalisation depth.
	withSentinel := scenario.Spec{Days: 2, WarmupDays: -1}
	if api.SpecKey(withSentinel) != api.SpecKey(withSentinel.Canonical()) {
		t.Error("canonicalising changed the key of a warmup_days=-1 spec")
	}
}

// Service plumbing: bad specs are rejected at submission, unknown sweeps
// 404, and /healthz and /statz serve JSON.
func TestServerValidationAndIntrospection(t *testing.T) {
	runner := &scenario.Runner{Workers: 1}
	_, srv := newTestServer(t, Config{Runner: runner})

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json",
		bytes.NewReader([]byte(`{"nodes": 2}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec returned %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/sweeps/sweep-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep returned %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var ok map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil || !ok["ok"] {
		t.Errorf("healthz = %v, %v", ok, err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var stats api.ServiceStats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.MaxConcurrent != 2 || stats.Cache.Capacity != scenario.DefaultMemoCap {
		t.Errorf("statz = %+v, want max_concurrent 2 and default cache capacity", stats)
	}
	// The byte-accounting fields must be on the wire under their stable
	// names (the CI service-smoke job asserts them with jq) with the
	// default budget resolved.
	var wire struct {
		Cache map[string]json.Number `json:"cache"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"bytes", "budget_bytes"} {
		if _, okField := wire.Cache[field]; !okField {
			t.Errorf("statz cache payload lacks %q: %s", field, raw)
		}
	}
	if stats.Cache.BudgetBytes != scenario.DefaultMemoBudgetBytes {
		t.Errorf("budget_bytes = %d, want default %d", stats.Cache.BudgetBytes, scenario.DefaultMemoBudgetBytes)
	}
}

// The registry is bounded: finished sweeps beyond MaxFinished are
// retired oldest-first, disappear from queries, and stop serving dedup
// joins — a fresh identical submission starts a new sweep.
func TestServerRetiresFinishedSweeps(t *testing.T) {
	immediate := func(ctx context.Context, spec scenario.Spec, progress func(int, int)) (*scenario.SweepResults, error) {
		return &scenario.SweepResults{Spec: spec}, nil
	}
	svc, err := New(Config{Run: immediate, MaxFinished: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	specA, specB := smallSpec(), smallSpec()
	specB.Days = 3
	swA, _, err := svc.Submit(context.Background(), specA, false)
	if err != nil {
		t.Fatal(err)
	}
	<-swA.Done()
	swB, _, err := svc.Submit(context.Background(), specB, false)
	if err != nil {
		t.Fatal(err)
	}
	<-swB.Done()

	// MaxFinished 1: only the newer sweep survives.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := svc.Get(swA.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("oldest finished sweep never retired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sts := svc.List()
	if len(sts) != 1 || sts[0].ID != swB.ID {
		t.Fatalf("registry = %+v, want only %s", sts, swB.ID)
	}

	// A repeat of the retired spec starts a fresh sweep.
	swA2, joined, err := svc.Submit(context.Background(), specA, false)
	if err != nil {
		t.Fatal(err)
	}
	if joined || swA2.ID == swA.ID {
		t.Errorf("retired sweep still served joins: joined=%v id=%s", joined, swA2.ID)
	}
	<-swA2.Done()

	// List orders newest submission first.
	sts = svc.List()
	if len(sts) == 2 && !sts[0].Submitted.Before(sts[1].Submitted) && sts[0].ID != swA2.ID {
		t.Errorf("list order unexpected: %v then %v", sts[0].ID, sts[1].ID)
	}
}
