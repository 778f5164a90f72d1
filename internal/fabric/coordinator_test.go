// Package fabric_test proves the fabric's headline contract end to end:
// a sweep sharded across real worker replicas (full service handlers
// over httptest) merges into results byte-identical to a single-process
// run — at any worker count, and across injected worker failures.
package fabric_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/fabric"
	"github.com/greenhpc/archertwin/internal/scenario"
	"github.com/greenhpc/archertwin/internal/service"
)

// fabricSpec is the acceptance sweep: three axes (frequency x grid mix x
// carbon policy), eight scenarios, small enough to simulate in seconds
// but exercising shared simulations (grid axis), the carbon tables and
// cross-scenario avoided-carbon aggregation.
func fabricSpec() scenario.Spec {
	return scenario.Spec{
		Name:       "fabric-e2e",
		Nodes:      32,
		Days:       2,
		WarmupDays: 1,
		Seed:       7,
		Axes: scenario.Axes{
			Frequency:    []string{"stock", "capped"},
			GridMean:     []float64{200, 65},
			CarbonPolicy: []string{"fcfs", "delay-flexible"},
		},
	}
}

// newWorker starts one full worker replica — a real service with its own
// Runner behind the real HTTP handler — optionally wrapped by mw.
func newWorker(t *testing.T, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	svc, err := service.New(service.Config{Runner: &scenario.Runner{Workers: 2}, MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := service.NewHandler(svc)
	if mw != nil {
		h = mw(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Shutdown)
	return srv
}

func newCoordinator(t *testing.T, workers ...*httptest.Server) *fabric.Coordinator {
	t.Helper()
	c := fabric.New(fabric.Config{Backoff: 5 * time.Millisecond, ShardTimeout: time.Minute})
	for _, w := range workers {
		c.Join(w.URL)
	}
	return c
}

// rendered collects everything a consumer sees: the three tables as
// printed plus the per-scenario simulation digests.
func rendered(t *testing.T, res *scenario.SweepResults) (tables [3]string, digests []string) {
	t.Helper()
	tables[0] = res.Table().String()
	tables[1] = res.RegimeTable().String()
	if res.CarbonSwept() {
		tables[2] = res.CarbonTable().String()
	}
	for _, r := range res.Results {
		if r.SimDigest == "" {
			t.Fatalf("scenario %d (%s) lacks a simulation digest", r.Scenario.Index, r.Scenario.Name)
		}
		digests = append(digests, r.SimDigest)
	}
	return tables, digests
}

// TestFabricShardedSweepIsByteIdentical is the acceptance test: the
// merged fabric results equal a direct single-process Runner.Run —
// per-scenario digests and all rendered tables, byte for byte — at 1, 2
// and 4 workers.
func TestFabricShardedSweepIsByteIdentical(t *testing.T) {
	ctx := context.Background()
	direct, err := (&scenario.Runner{Workers: 2}).Run(ctx, fabricSpec())
	if err != nil {
		t.Fatal(err)
	}
	wantTables, wantDigests := rendered(t, direct)

	for _, n := range []int{1, 2, 4} {
		workers := make([]*httptest.Server, n)
		for i := range workers {
			workers[i] = newWorker(t, nil)
		}
		coord := newCoordinator(t, workers...)

		var lastDone, lastTotal int
		res, err := coord.Run(ctx, fabricSpec(), func(done, total int) { lastDone, lastTotal = done, total })
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		gotTables, gotDigests := rendered(t, res)
		for i := range wantTables {
			if gotTables[i] != wantTables[i] {
				t.Errorf("workers=%d: table %d differs from single-process render:\n--- direct ---\n%s\n--- fabric ---\n%s",
					n, i, wantTables[i], gotTables[i])
			}
		}
		for i := range wantDigests {
			if gotDigests[i] != wantDigests[i] {
				t.Errorf("workers=%d: scenario %d digest %s != direct %s", n, i, gotDigests[i], wantDigests[i])
			}
		}
		if res.Simulations != direct.Simulations {
			t.Errorf("workers=%d: merged Simulations = %d, direct = %d", n, res.Simulations, direct.Simulations)
		}
		if lastTotal != direct.Simulations || lastDone != lastTotal {
			t.Errorf("workers=%d: final progress %d/%d, want %d/%d", n, lastDone, lastTotal, direct.Simulations, direct.Simulations)
		}
	}
}

// TestFabricSurvivesWorkerLoss: with one worker killing every shard
// connection, the coordinator drops it and re-shards onto the survivor —
// and the merged results are still byte-identical to a direct run.
func TestFabricSurvivesWorkerLoss(t *testing.T) {
	ctx := context.Background()
	// Whichever worker receives the first shard request becomes the
	// "crashed" replica: it kills that connection and every later shard
	// connection it sees. Breaking a pre-chosen worker would be flaky —
	// the ring hashes the workers' random httptest ports, so any fixed
	// choice sometimes receives no shards at all.
	var mu sync.Mutex
	brokenID := -1
	var killed atomic.Int32
	breakFirst := func(id int) func(http.Handler) http.Handler {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/shards") {
					mu.Lock()
					if brokenID == -1 {
						brokenID = id
					}
					broken := brokenID == id
					mu.Unlock()
					if broken {
						killed.Add(1)
						// Abort without writing a response: the coordinator sees
						// a transport error — indistinguishable from a crash.
						panic(http.ErrAbortHandler)
					}
				}
				next.ServeHTTP(w, r)
			})
		}
	}
	workers := []*httptest.Server{newWorker(t, breakFirst(0)), newWorker(t, breakFirst(1))}
	coord := newCoordinator(t, workers...)

	res, err := coord.Run(ctx, fabricSpec(), nil)
	if err != nil {
		t.Fatalf("sweep across a failing worker: %v", err)
	}
	direct, err := (&scenario.Runner{Workers: 2}).Run(ctx, fabricSpec())
	if err != nil {
		t.Fatal(err)
	}
	wantTables, wantDigests := rendered(t, direct)
	gotTables, gotDigests := rendered(t, res)
	if gotTables != wantTables {
		t.Error("tables after worker loss differ from single-process render")
	}
	for i := range wantDigests {
		if gotDigests[i] != wantDigests[i] {
			t.Errorf("scenario %d digest %s != direct %s", i, gotDigests[i], wantDigests[i])
		}
	}
	if killed.Load() == 0 || brokenID == -1 {
		t.Fatal("no worker was ever dispatched to — the failure path went unexercised")
	}
	// The failing worker is out of the membership.
	brokenURL := workers[brokenID].URL
	for _, w := range coord.Workers().Workers {
		if w.URL == brokenURL {
			t.Errorf("failed worker %s still registered", w.URL)
		}
	}
}

// TestFabricFailsWithoutWorkers: no membership is a clean error, and a
// membership whose every worker is dead exhausts the bounded rounds
// instead of hanging.
func TestFabricFailsWithoutWorkers(t *testing.T) {
	ctx := context.Background()
	coord := fabric.New(fabric.Config{Backoff: time.Millisecond})
	if _, err := coord.Run(ctx, fabricSpec(), nil); err == nil {
		t.Error("Run with no workers must error")
	}

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	coord = fabric.New(fabric.Config{Backoff: time.Millisecond, MaxRounds: 2})
	coord.Join(dead.URL)
	if _, err := coord.Run(ctx, fabricSpec(), nil); err == nil {
		t.Error("Run with only a dead worker must error, not hang")
	}
}

// TestFabricPermanentErrorFailsFast: a worker that answers a
// deterministic rejection (here: the sweep spec itself is invalid per
// the worker) fails the sweep without burning re-shard rounds.
func TestFabricPermanentErrorFailsFast(t *testing.T) {
	ctx := context.Background()
	rejecting := newWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/shards") {
				api.WriteError(w, http.StatusInternalServerError, api.ErrShardFailed, "scenario 3: simulation diverged")
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	coord := newCoordinator(t, rejecting)
	_, err := coord.Run(ctx, fabricSpec(), nil)
	if err == nil {
		t.Fatal("a permanent shard failure must fail the sweep")
	}
	if !strings.Contains(err.Error(), "shard_failed") {
		t.Errorf("error %v does not carry the worker's shard_failed cause", err)
	}
}

// TestFabricWorkerTTL: a worker that stops heartbeating ages out of the
// membership; a fresh join revives it.
func TestFabricWorkerTTL(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	coord := fabric.New(fabric.Config{WorkerTTL: time.Minute, Now: clock})
	coord.Join("http://10.0.0.1:8990")
	if got := len(coord.Workers().Workers); got != 1 {
		t.Fatalf("membership = %d, want 1", got)
	}
	now = now.Add(2 * time.Minute)
	if got := len(coord.Workers().Workers); got != 0 {
		t.Errorf("membership after TTL expiry = %d, want 0", got)
	}
	coord.Join("http://10.0.0.1:8990")
	if got := len(coord.Workers().Workers); got != 1 {
		t.Errorf("membership after re-join = %d, want 1", got)
	}
}

// TestFabricWorkerTTLDefaults: WorkerTTL defaults to three missed
// heartbeats, a negative TTL disables expiry, and evictions are logged.
func TestFabricWorkerTTLDefaults(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }

	var logged []string
	logf := func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	coord := fabric.New(fabric.Config{Heartbeat: time.Second, Now: clock, Logf: logf})
	coord.Join("http://10.0.0.1:8990")
	now = now.Add(2 * time.Second) // within 3× heartbeat
	if got := len(coord.Workers().Workers); got != 1 {
		t.Fatalf("membership within default TTL = %d, want 1", got)
	}
	now = now.Add(2 * time.Second) // past 3s TTL
	if got := len(coord.Workers().Workers); got != 0 {
		t.Errorf("membership past 3x heartbeat = %d, want 0 (default TTL)", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "evicted") {
		t.Errorf("eviction log = %q, want one eviction line", logged)
	}

	never := fabric.New(fabric.Config{Heartbeat: time.Second, WorkerTTL: -1, Now: clock})
	never.Join("http://10.0.0.2:8990")
	now = now.Add(24 * time.Hour)
	if got := len(never.Workers().Workers); got != 1 {
		t.Errorf("membership with negative TTL = %d, want 1 (never expire)", got)
	}
}

// TestFabricHandlerWorkers: the membership endpoints speak the envelope
// protocol — join via client, list via client, 405 with Allow, invalid
// URLs rejected as bad_request.
func TestFabricHandlerWorkers(t *testing.T) {
	coord := fabric.New(fabric.Config{})
	srv := httptest.NewServer(fabric.Handler(coord, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusNotFound, api.ErrNotFound, "no such resource")
	})))
	t.Cleanup(srv.Close)
	client := api.NewClient(srv.URL)
	ctx := context.Background()

	wl, err := client.Join(ctx, api.JoinRequest{URL: "http://10.0.0.7:8990"})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if len(wl.Workers) != 1 || wl.Workers[0].URL != "http://10.0.0.7:8990" {
		t.Errorf("join ack = %+v, want the joined worker", wl.Workers)
	}
	wl, err = client.Workers(ctx)
	if err != nil || len(wl.Workers) != 1 {
		t.Errorf("Workers = (%+v, %v), want 1 worker", wl.Workers, err)
	}

	for _, bad := range []string{"", "10.0.0.7:8990", "ftp://x", "http://"} {
		if _, err := client.Join(ctx, api.JoinRequest{URL: bad}); err == nil {
			t.Errorf("Join(%q) must be rejected", bad)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/workers", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, POST" {
		t.Errorf("DELETE /v1/workers = %d Allow=%q, want 405 with GET, POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// Non-workers paths fall through to the wrapped handler.
	resp, err = http.Get(srv.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("fall-through status = %d, want the inner handler's 404", resp.StatusCode)
	}
}

// TestFabricWorkersDuringSweeps: the membership listing is safe to poll
// while sweeps dispatch — the per-worker shard counter it reports is
// written by shard goroutines, so under -race any unsynchronized access
// fails this test.
func TestFabricWorkersDuringSweeps(t *testing.T) {
	ctx := context.Background()
	coord := newCoordinator(t, newWorker(t, nil), newWorker(t, nil))
	spec := scenario.Spec{Name: "poll", Nodes: 32, Days: 2, WarmupDays: 1, Seed: 3,
		Axes: scenario.Axes{Frequency: []string{"stock", "capped"}}}

	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				polled <- n
				return
			default:
			}
			for _, w := range coord.Workers().Workers {
				n += w.Shards
			}
		}
	}()
	const sweeps = 40
	for i := 0; i < sweeps; i++ {
		if _, err := coord.Run(ctx, spec, nil); err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	close(stop)
	<-polled
	total := 0
	for _, w := range coord.Workers().Workers {
		total += w.Shards
	}
	if total < sweeps {
		t.Errorf("workers report %d shards over %d sweeps, want at least one per sweep", total, sweeps)
	}
}
