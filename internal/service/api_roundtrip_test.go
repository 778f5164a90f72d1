package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// These tests drive the service handler exclusively through api.Client —
// the same path the fabric coordinator and cmd/sweep -server use — so
// the typed client and the handler are proven against each other, not
// each against hand-rolled JSON.

// TestAPIRoundTrip exercises the full sweep lifecycle through the
// client: submit-and-wait, status, list, results, and the digest
// equality against a direct Runner.Run.
func TestAPIRoundTrip(t *testing.T) {
	_, srv := newTestServer(t, Config{Runner: &scenario.Runner{Workers: 1}})
	client := api.NewClient(srv.URL)
	ctx := context.Background()

	if err := client.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}

	p, err := client.SubmitSweepWait(ctx, smallSpec())
	if err != nil {
		t.Fatalf("SubmitSweepWait: %v", err)
	}
	if len(p.Results) != 1 || p.Results[0].SimDigest == "" {
		t.Fatalf("payload results = %+v, want 1 result with a digest", p.Results)
	}
	direct, err := (&scenario.Runner{Workers: 1}).Run(ctx, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if p.Results[0].SimDigest != direct.Results[0].SimDigest {
		t.Errorf("served digest %s != direct digest %s", p.Results[0].SimDigest, direct.Results[0].SimDigest)
	}

	st, err := client.Sweep(ctx, p.ID)
	if err != nil {
		t.Fatalf("Sweep(%s): %v", p.ID, err)
	}
	if st.State != api.StateDone || st.SpecKey != api.SpecKey(smallSpec()) {
		t.Errorf("status = %+v, want done with the canonical spec key", st)
	}

	list, err := client.Sweeps(ctx, api.ListOptions{})
	if err != nil {
		t.Fatalf("Sweeps: %v", err)
	}
	if list.Total != 1 || len(list.Sweeps) != 1 || list.Sweeps[0].ID != p.ID {
		t.Errorf("list = %+v, want exactly the completed sweep", list)
	}

	again, err := client.Results(ctx, p.ID)
	if err != nil {
		t.Fatalf("Results(%s): %v", p.ID, err)
	}
	if again.Results[0].SimDigest != p.Results[0].SimDigest {
		t.Error("results endpoint and wait payload disagree on the digest")
	}

	// Unknown sweep: typed not_found.
	_, err = client.Sweep(ctx, "sweep-999")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.ErrNotFound {
		t.Errorf("Sweep(sweep-999) err = %v, want not_found", err)
	}
}

// TestAPIResultsBeforeDone: results on a running sweep answer 409 with
// the sweep_not_done envelope embedding the live status — the client
// surfaces the code, and raw inspection confirms the embedded status.
func TestAPIResultsBeforeDone(t *testing.T) {
	started := make(chan context.Context, 1)
	_, srv := newTestServer(t, Config{Run: blockingRun(started)})
	client := api.NewClient(srv.URL)
	ctx := context.Background()

	st, joined, err := client.SubmitSweep(ctx, smallSpec())
	if err != nil || joined {
		t.Fatalf("SubmitSweep = (%+v, %v, %v), want fresh submission", st, joined, err)
	}
	<-started

	_, err = client.Results(ctx, st.ID)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("Results on running sweep: err = %v (%T), want *api.Error", err, err)
	}
	if apiErr.Code != api.ErrSweepNotDone || apiErr.HTTPStatus != http.StatusConflict {
		t.Errorf("error = %+v, want sweep_not_done with HTTP 409", apiErr)
	}

	// The envelope embeds the live status (the client drops it; check
	// the wire directly).
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := decodeJSON(resp, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.ErrSweepNotDone {
		t.Fatalf("envelope error = %+v, want sweep_not_done", env.Error)
	}
	if env.Status == nil || env.Status.ID != st.ID || env.Status.State != api.StateRunning {
		t.Errorf("embedded status = %+v, want the running sweep", env.Status)
	}

	// Cancelling surfaces sweep_canceled through both wait-style reads.
	if _, err := client.CancelSweep(ctx, st.ID); err != nil {
		t.Fatalf("CancelSweep: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err = client.Results(ctx, st.ID)
		if errors.As(err, &apiErr) && apiErr.Code == api.ErrSweepCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("results after cancel: err = %v, want sweep_canceled", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if apiErr.HTTPStatus != http.StatusConflict {
		t.Errorf("sweep_canceled travelled with HTTP %d, want 409", apiErr.HTTPStatus)
	}
}

// TestAPIListLimitAndStateFilter pins the documented list defaults: the
// page is bounded at api.DefaultListLimit when no ?limit= is given,
// Total counts matches before the bound, and ?state= filters.
func TestAPIListLimitAndStateFilter(t *testing.T) {
	// An immediate RunFunc so submissions finish instantly; MaxFinished
	// keeps every sweep queryable.
	instant := func(ctx context.Context, spec scenario.Spec, progress func(int, int)) (*scenario.SweepResults, error) {
		return &scenario.SweepResults{Spec: spec, Simulations: 1, Workers: 1}, nil
	}
	svc, srv := newTestServer(t, Config{Run: instant, MaxConcurrent: 8, MaxFinished: api.DefaultListLimit + 50})
	client := api.NewClient(srv.URL)
	ctx := context.Background()

	total := api.DefaultListLimit + 10
	for i := 0; i < total; i++ {
		spec := smallSpec()
		spec.Seed = uint64(i + 1) // distinct canonical specs: no dedup joins
		sw, _, err := svc.Submit(ctx, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		<-sw.Done()
	}

	list, err := client.Sweeps(ctx, api.ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != api.DefaultListLimit {
		t.Errorf("default page size = %d, want api.DefaultListLimit = %d", len(list.Sweeps), api.DefaultListLimit)
	}
	if list.Total != total {
		t.Errorf("Total = %d, want %d (all matches, pre-limit)", list.Total, total)
	}

	small, err := client.Sweeps(ctx, api.ListOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Sweeps) != 3 || small.Total != total {
		t.Errorf("limit=3 page = (%d sweeps, total %d), want (3, %d)", len(small.Sweeps), small.Total, total)
	}

	done, err := client.Sweeps(ctx, api.ListOptions{States: []api.SweepState{api.StateDone}, Limit: total})
	if err != nil {
		t.Fatal(err)
	}
	if done.Total != total || len(done.Sweeps) != total {
		t.Errorf("state=done = (%d, %d), want every sweep", len(done.Sweeps), done.Total)
	}
	none, err := client.Sweeps(ctx, api.ListOptions{States: []api.SweepState{api.StateFailed}})
	if err != nil {
		t.Fatal(err)
	}
	if none.Total != 0 || len(none.Sweeps) != 0 {
		t.Errorf("state=failed = (%d, %d), want empty", len(none.Sweeps), none.Total)
	}

	// Invalid parameters answer typed bad_request.
	for _, q := range []string{"?limit=0", "?limit=-1", "?limit=x", "?state=bogus"} {
		resp, err := http.Get(srv.URL + "/v1/sweeps" + q)
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorEnvelope
		if err := decodeJSON(resp, &env); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != api.ErrBadRequest {
			t.Errorf("GET /v1/sweeps%s = %d %+v, want 400 bad_request", q, resp.StatusCode, env.Error)
		}
	}
}

// TestAPIMethodNotAllowed: every route answers wrong methods with the
// 405 envelope and a populated Allow header.
func TestAPIMethodNotAllowed(t *testing.T) {
	_, srv := newTestServer(t, Config{Runner: &scenario.Runner{Workers: 1}})
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodDelete, "/healthz", "GET"},
		{http.MethodPost, "/statz", "GET"},
		{http.MethodDelete, "/v1/sweeps", "GET, POST"},
		{http.MethodGet, "/v1/shards", "POST"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorEnvelope
		if err := decodeJSON(resp, &env); err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if env.Error == nil || env.Error.Code != api.ErrMethodNotAllowed {
			t.Errorf("%s %s envelope = %+v, want method_not_allowed", tc.method, tc.path, env.Error)
		}
	}
}

// TestAPIShardEndpoint: a shard request through the client returns the
// requested scenarios with digests matching a direct run, malformed
// requests answer bad_request, and the worker counts it in statz.
func TestAPIShardEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{Runner: &scenario.Runner{Workers: 1}})
	client := api.NewClient(srv.URL)
	ctx := context.Background()

	spec := smallSpec()
	spec.Axes.Frequency = []string{"stock", "capped"}
	resp, err := client.RunShard(ctx, api.ShardRequest{
		SweepKey:  api.SpecKey(spec),
		Shard:     0,
		Of:        1,
		Spec:      spec,
		Scenarios: []int{1},
	})
	if err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Scenario.Index != 1 {
		t.Fatalf("shard results = %+v, want scenario 1 only", resp.Results)
	}
	direct, err := (&scenario.Runner{Workers: 1}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].SimDigest != direct.Results[1].SimDigest {
		t.Errorf("shard digest %s != direct digest %s", resp.Results[0].SimDigest, direct.Results[1].SimDigest)
	}

	var apiErr *api.Error
	for name, bad := range map[string]api.ShardRequest{
		"empty indices":      {Spec: spec},
		"descending indices": {Spec: spec, Scenarios: []int{1, 0}},
		"out of range":       {Spec: spec, Scenarios: []int{99}},
		"invalid spec":       {Spec: scenario.Spec{Days: -3}, Scenarios: []int{0}},
	} {
		_, err := client.RunShard(ctx, bad)
		if !errors.As(err, &apiErr) || apiErr.Code != api.ErrBadRequest {
			t.Errorf("%s: err = %v, want bad_request", name, err)
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsServed != 1 {
		t.Errorf("stats shards_served = %d, want 1", st.ShardsServed)
	}
}

// decodeJSON decodes an HTTP response body and closes it.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %d response: %w", resp.StatusCode, err)
	}
	return nil
}
