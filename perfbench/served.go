package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/fabric"
	"github.com/greenhpc/archertwin/internal/journal"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/scenario"
	"github.com/greenhpc/archertwin/internal/service"
)

const (
	// checkEvery keeps every checkEvery-th op's response; after the timed
	// loop each kept spec is re-run through a fresh Runner and compared
	// byte for byte.
	checkEvery = 97
	// minTailOps is the op count at which the p99 has ten samples beyond
	// it; untraced loops run at least this long.
	minTailOps = 1000
	// maxLoop caps any timed loop, so a run ends well inside 180 s.
	maxLoop = 60 * time.Second
	// poolSize is how many pre-simulated specs the warm workloads draw from.
	poolSize = 16
	// heartbeat is twinserver's default -heartbeat: workers re-join at
	// this interval, so the coordinator's default 30 s TTL never fires.
	heartbeat = 10 * time.Second
)

// coldSpec is the never-before-used DefaultSpec sweep number i.
func coldSpec(seed uint64, i int) scenario.Spec {
	s := scenario.DefaultSpec()
	s.Seed = rng.DeriveSeed(seed, fmt.Sprintf("cold/%d", i))
	return s
}

// poolSpecs is the warm workloads' seed pool.
func poolSpecs(seed uint64) []scenario.Spec {
	out := make([]scenario.Spec, poolSize)
	for i := range out {
		out[i] = scenario.DefaultSpec()
		out[i].Seed = rng.DeriveSeed(seed, fmt.Sprintf("pool/%d", i))
	}
	return out
}

// renamed resubmits pool spec i%len(pool) under a fresh name, so the
// registry's dedup misses while every simulation hits the memo.
func renamed(pool []scenario.Spec, prefix string, i int) scenario.Spec {
	s := pool[i%len(pool)]
	s.Name = fmt.Sprintf("%s-%d", prefix, i)
	return s
}

// serveHTTP serves h on a loopback port until the returned stop runs.
func serveHTTP(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // idle loopback connections close at once
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// newClient is an api.Client whose every attempt goes through t.
func newClient(url string, t *countingTransport) *api.Client {
	c := api.NewClient(url)
	c.HTTPClient = &http.Client{Transport: t}
	return c
}

// env is one set-up served workload: the servers, the load client and
// what the timed loop needs to drive and check it.
type env struct {
	o    options
	tr   *tracer
	load *countingTransport // the closed-loop client's transport
	// shard counts the coordinator's dispatches (fabric-warm only).
	shard  *countingTransport
	client *api.Client
	// stats lists the /statz of every server that owns a Runner; memo
	// deltas sum over them.
	stats []*api.Client
	// replay is a memo-warm Runner traced ops replay RunScenarios and
	// Assemble on.
	replay *scenario.Runner
	// coreReplay re-simulates each traced op's first scenario to measure
	// the simulation core (serve-cold, where the served path simulates).
	coreReplay bool
	spec       func(i int) scenario.Spec
	// stop reports whether the timed loop ends before op i.
	stop func(i int, elapsed time.Duration) bool
	// afterOp runs after every timed op.
	afterOp func(i int)
	// journal watches the durable server's segments (serve-warm-durable).
	journal *cycleTracker
	// teardown stops every server and goroutine the set-up started, in
	// reverse order.
	teardown []func()
	// extraFailures counts failures outside the load transport (worker
	// heartbeats).
	extraFailures atomic.Int64

	parent   atomic.Int64 // api.http span of the traced op in flight
	runSpan  atomic.Int64 // fabric.run span in flight
	postMu   sync.Mutex
	posts    int
	postSize int64
}

func (e *env) close() {
	for i := len(e.teardown) - 1; i >= 0; i-- {
		e.teardown[i]()
	}
	e.teardown = nil
}

// newEnv prepares the tracing hooks shared by every served workload.
func newEnv(o options, tr *tracer) *env {
	e := &env{o: o, tr: tr}
	e.load = newTransport(func(req *http.Request, _, _ time.Time, n int64) {
		if req.Method == http.MethodPost {
			e.postMu.Lock()
			e.posts++
			e.postSize += n
			e.postMu.Unlock()
		}
	})
	e.teardown = append(e.teardown, e.load.close)
	return e
}

// timedStop ends an untraced loop after both o.seconds and minTailOps
// ops; a traced loop runs a fixed op count so its counts repeat.
func timedStop(o options, traceOps int) func(int, time.Duration) bool {
	return func(i int, el time.Duration) bool {
		if o.trace {
			return i >= traceOps
		}
		return el > maxLoop || (i >= minTailOps && el >= time.Duration(o.seconds)*time.Second)
	}
}

// captured is one kept op: its spec and the raw response body.
type captured struct {
	op   int
	spec scenario.Spec
	body []byte
}

// drive runs the timed loop and the correctness checks.
func (e *env) drive(st *runStats) {
	ctx := context.Background()
	var (
		traced, plain []float64
		keep          []captured
		memo          scenario.CacheStats
		sims          []simTrace
		opErrs        int
	)
	tracedOps := 0
	load0 := e.load.snapshot()
	var shard0 transportCounts
	if e.shard != nil {
		shard0 = e.shard.snapshot()
	}
	start := time.Now()
	for i := 0; !e.stop(i, time.Since(start)); i++ {
		spec := e.spec(i)
		traceOp := e.tr != nil && i%2 == 1
		var before scenario.CacheStats
		var httpID int
		endHTTP := func() {}
		if traceOp {
			tracedOps++
			before = e.memoStats(ctx)
			e.tr.setOp(i)
			httpID, endHTTP = e.tr.begin("api.http", 0)
			e.parent.Store(int64(httpID))
		}
		var buf *bytes.Buffer
		if i%checkEvery == 0 {
			buf = new(bytes.Buffer)
			e.load.setCapture(buf)
		}
		fails0 := e.load.snapshot().failures()
		a0 := heapAllocs()
		t0 := time.Now()
		payload, err := e.client.SubmitSweepWait(ctx, spec)
		lat := sinceMS(t0)
		st.alloc += heapAllocs() - a0
		endHTTP()
		e.load.setCapture(nil)
		st.lat = append(st.lat, lat)
		st.opAt = append(st.opAt, t0)
		st.cal.maybe()
		if e.afterOp != nil {
			e.afterOp(i)
		}
		if err != nil {
			fmt.Fprintf(stdout, "op %d failed: %v\n", i, err)
			if e.load.snapshot().failures() == fails0 {
				opErrs++
			}
			e.tr.setOp(-1)
			continue
		}
		if buf != nil {
			keep = append(keep, captured{op: i, spec: spec, body: buf.Bytes()})
		}
		if traceOp {
			traced = append(traced, lat)
			after := e.memoStats(ctx)
			memo.Hits += after.Hits - before.Hits
			memo.Misses += after.Misses - before.Misses
			memo.Evictions += after.Evictions - before.Evictions
			s, err := e.traceOp(ctx, i, spec, payload, httpID)
			if err != nil {
				fmt.Fprintf(stdout, "op %d trace replay: %v\n", i, err)
				st.mismatches++
			}
			if s != nil {
				sims = append(sims, *s)
			}
			e.tr.setOp(-1)
		} else if e.tr != nil {
			plain = append(plain, lat)
		}
	}

	st.cal.sample()

	// Correctness: every kept response against a fresh Runner.
	fresh := &scenario.Runner{}
	for _, c := range keep {
		if err := checkBody(ctx, fresh, c); err != nil {
			fmt.Fprintf(stdout, "check op %d: %v\n", c.op, err)
			st.mismatches++
		}
	}
	st.notes["checked_ops"] = len(keep)

	lc := e.load.snapshot().sub(load0)
	st.attempted = lc.Attempts
	st.failed = lc.failures() + opErrs + st.mismatches + int(e.extraFailures.Load())
	transport := map[string]any{"load": lc}
	var sc transportCounts
	if e.shard != nil {
		sc = e.shard.snapshot().sub(shard0)
		st.failed += sc.failures()
		transport["shards"] = sc
		st.notes["shards_per_op"] = float64(sc.Attempts) / float64(len(st.lat))
	}
	st.notes["transport"] = transport

	if e.tr != nil {
		e.layerMetrics(st, tracedOps, memo, sims, traced, plain, sc)
	}
}

// memoStats sums the memo counters of every Runner-owning server.
func (e *env) memoStats(ctx context.Context) scenario.CacheStats {
	var sum scenario.CacheStats
	for _, c := range e.stats {
		s, err := c.Stats(ctx)
		if err != nil {
			fmt.Fprintf(stdout, "statz: %v\n", err)
			continue
		}
		sum.Hits += s.Cache.Hits
		sum.Misses += s.Cache.Misses
		sum.Evictions += s.Cache.Evictions
	}
	return sum
}

// traceOp measures a traced op's layers from outside: queue and
// execution from the sweep's status timestamps, and accounting,
// assembly and encoding by replaying them on a memo-warm Runner.
func (e *env) traceOp(ctx context.Context, op int, spec scenario.Spec, payload *api.ResultsPayload, httpID int) (*simTrace, error) {
	stt, err := e.client.Sweep(ctx, payload.ID)
	if err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	if stt.Started != nil && stt.Finished != nil {
		e.tr.add("service.queue", httpID, stt.Submitted, *stt.Started)
		exec := e.tr.add("service.exec", httpID, *stt.Started, *stt.Finished)
		e.tr.reparent(op, httpID, exec, "scenario.run", "fabric.run")
	}
	e.tr.linkByAttr(op, "worker.exec", "fabric.shard")

	idx := make([]int, len(payload.Results))
	for i := range idx {
		idx[i] = i
	}
	t0 := time.Now()
	results, _, err := e.replay.RunScenarios(ctx, spec, idx, nil)
	t1 := time.Now()
	e.tr.add("scenario.account", 0, t0, t1)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Assemble(spec, results, payload.Workers)
	t2 := time.Now()
	e.tr.add("scenario.assemble", 0, t1, t2)
	if err != nil {
		return nil, err
	}
	p := api.ResultsPayload{ID: payload.ID, Spec: res.Spec, Workers: res.Workers,
		Simulations: res.Simulations, Results: res.Results,
		DeltaTable: res.Table(), RegimeTable: res.RegimeTable()}
	if res.CarbonSwept() {
		p.CarbonTable = res.CarbonTable()
	}
	api.WriteJSON(discardWriter{h: http.Header{}}, http.StatusOK, p)
	e.tr.add("api.encode", 0, t2, time.Now())
	for i := range results {
		if results[i].SimDigest != payload.Results[i].SimDigest {
			return nil, fmt.Errorf("replayed scenario %d digest %s, served %s", i,
				results[i].SimDigest, payload.Results[i].SimDigest)
		}
	}
	if !e.coreReplay {
		return nil, nil
	}
	scs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	cfg, _, err := scs[0].BuildConfig(spec.Canonical())
	if err != nil {
		return nil, err
	}
	r, s, err := traceSim(e.tr, 0, cfg)
	if err != nil {
		return nil, err
	}
	if d := r.Digest(); d != payload.Results[0].SimDigest {
		return nil, fmt.Errorf("replayed simulation digest %s, served %s", d, payload.Results[0].SimDigest)
	}
	return &s, nil
}

// layerMetrics turns the traced ops' spans and counters into the
// per-layer metrics.
func (e *env) layerMetrics(st *runStats, tracedOps int, memo scenario.CacheStats, sims []simTrace, traced, plain []float64, sc transportCounts) {
	for k, v := range sumSims(sims) {
		st.layers[k] = v
	}
	rows := map[string]layerTime{}
	for _, r := range e.tr.selfTimes() {
		rows[r.Name] = r
	}
	perOp := func(name string) float64 {
		if tracedOps == 0 {
			return 0
		}
		return ms(rows[name].Total) / float64(tracedOps)
	}
	perSpan := func(name string) float64 {
		r := rows[name]
		if r.Count == 0 {
			return 0
		}
		return ms(r.Total) / float64(r.Count)
	}
	for _, name := range []string{"scenario.run", "scenario.account", "scenario.assemble",
		"service.queue", "service.exec", "api.encode", "fabric.run"} {
		st.layers[name+"_ms"] = perOp(name)
	}
	if tracedOps > 0 {
		st.layers["api.http_ms"] = ms(rows["api.http"].Self) / float64(tracedOps)
		st.layers["scenario.memo_hits"] = float64(memo.Hits) / float64(tracedOps)
		st.layers["scenario.memo_misses"] = float64(memo.Misses) / float64(tracedOps)
		st.layers["scenario.memo_evictions"] = float64(memo.Evictions) / float64(tracedOps)
	}
	if memo.Hits+memo.Misses > 0 {
		st.layers["scenario.memo_hit_ratio"] = float64(memo.Hits) / float64(memo.Hits+memo.Misses)
	}
	e.postMu.Lock()
	if e.posts > 0 {
		st.layers["api.response_kb"] = float64(e.postSize) / float64(e.posts) / 1024
	}
	e.postMu.Unlock()
	if e.shard != nil {
		ops := len(st.lat)
		st.layers["fabric.shards_per_op"] = float64(sc.Attempts) / float64(ops)
		st.layers["fabric.retries"] = float64(sc.failures())
		if sc.Attempts > 0 {
			st.layers["fabric.shard_kb"] = float64(sc.Bytes) / float64(sc.Attempts) / 1024
		}
		st.layers["fabric.shard_ms"] = perSpan("fabric.shard")
		st.layers["worker.exec_ms"] = perSpan("worker.exec")
		st.layers["fabric.merge_ms"] = e.tr.mergeMS()
	}
	st.layers["trace.overhead_pct"] = overheadPct(traced, plain)
	finishTrace(e.o, e.tr, st)
}

// discardWriter is an http.ResponseWriter that drops the body: it times
// api.WriteJSON without any I/O.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header       { return d.h }
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)             {}

// checkBody re-runs a kept op's spec through a fresh Runner and
// compares the served response with it byte for byte: every result
// (simulation digests included) and every rendered table.
func checkBody(ctx context.Context, fresh *scenario.Runner, c captured) error {
	var got struct {
		Results     json.RawMessage `json:"results"`
		DeltaTable  json.RawMessage `json:"delta_table"`
		RegimeTable json.RawMessage `json:"regime_table"`
		CarbonTable json.RawMessage `json:"carbon_table"`
	}
	if err := json.Unmarshal(c.body, &got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	var results []scenario.Result
	if err := json.Unmarshal(got.Results, &results); err != nil {
		return fmt.Errorf("decoding results: %w", err)
	}
	want, err := fresh.Run(ctx, c.spec)
	if err != nil {
		return err
	}
	if len(results) != len(want.Results) {
		return fmt.Errorf("%d results served, %d expected", len(results), len(want.Results))
	}
	for i := range results {
		if results[i].SimDigest != want.Results[i].SimDigest {
			return fmt.Errorf("scenario %d digest %s, fresh run %s", i, results[i].SimDigest, want.Results[i].SimDigest)
		}
	}
	pairs := []struct {
		name string
		raw  json.RawMessage
		want any
	}{
		{"results", got.Results, want.Results},
		{"delta table", got.DeltaTable, want.Table()},
		{"regime table", got.RegimeTable, want.RegimeTable()},
	}
	if want.CarbonSwept() {
		pairs = append(pairs, struct {
			name string
			raw  json.RawMessage
			want any
		}{"carbon table", got.CarbonTable, want.CarbonTable()})
	}
	for _, p := range pairs {
		var served bytes.Buffer
		if err := json.Compact(&served, p.raw); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		exp, err := json.Marshal(p.want)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if !bytes.Equal(served.Bytes(), exp) {
			return fmt.Errorf("%s differs from a fresh run", p.name)
		}
	}
	return nil
}

// setUp sets a served workload up setupReps times, keeping the last
// environment, and records each repetition's time. A GC before each
// keeps the previous repetition's garbage out of its time.
func setUp(st *runStats, build func(rep int) (*env, error)) (*env, error) {
	var e *env
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		st.cal.sample()
		t0 := time.Now()
		var err error
		if e, err = build(rep); err != nil {
			return nil, err
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.setupAt = append(st.setupAt, t0)
	}
	st.cal.sample()
	return e, nil
}

// closeOnError tears e down when the set-up that built it failed.
func closeOnError(e *env, err *error) {
	if *err != nil {
		e.close()
	}
}

// coldFill is how many never-seen sweeps fill the memo to its cap (two
// simulations each) and the registry to MaxFinished (64).
const coldFill = scenario.DefaultMemoCap/2 + 2

// runServeCold is the serve-cold workload: every op is a DefaultSpec
// sweep at a seed never used before, against a server whose memo is at
// its cap and whose registry is full, so each op simulates, admits and
// evicts.
func runServeCold(o options) (*runStats, error) {
	st := &runStats{layers: map[string]float64{}, notes: map[string]any{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	next := 0 // next unused cold spec number
	e, err := setUp(st, func(int) (*env, error) { return setupCold(o, tr, &next) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	first := next
	e.spec = func(i int) scenario.Spec { return coldSpec(o.seed, first+i) }
	e.stop = timedStop(o, 200)
	e.coreReplay = true
	e.drive(st)
	return st, nil
}

// setupCold starts a default non-durable server and fills its memo and
// registry with never-seen specs.
func setupCold(o options, tr *tracer, next *int) (e *env, err error) {
	e = newEnv(o, tr)
	defer closeOnError(e, &err)
	runner := &scenario.Runner{}
	cfg := service.Config{Runner: runner}
	if tr != nil {
		cfg.Run = func(ctx context.Context, spec scenario.Spec, progress func(int, int)) (*scenario.SweepResults, error) {
			_, end := tr.begin("scenario.run", int(e.parent.Load()))
			defer end()
			return runner.RunProgress(ctx, spec, progress)
		}
	}
	svc, err := service.New(cfg)
	if err != nil {
		return e, err
	}
	e.teardown = append(e.teardown, svc.Shutdown)
	url, stop, err := serveHTTP(service.NewHandler(svc))
	if err != nil {
		return e, err
	}
	e.teardown = append(e.teardown, stop)
	e.client = newClient(url, e.load)
	e.stats = []*api.Client{e.client}
	e.replay = runner

	setup := newTransport(nil)
	defer setup.close()
	sc := newClient(url, setup)
	for i := 0; i < coldFill; i++ {
		if _, err = sc.SubmitSweepWait(context.Background(), coldSpec(o.seed, *next)); err != nil {
			return e, fmt.Errorf("filling the memo: %w", err)
		}
		*next++
	}
	if cs := runner.CacheStats(); cs.Size != cs.Capacity {
		err = fmt.Errorf("memo holds %d of %d entries after set-up", cs.Size, cs.Capacity)
	}
	return e, err
}

// runServeWarmDurable is the serve-warm-durable workload: the default
// server in durable mode, every op a pool spec under a fresh name, so
// registry dedup misses, every simulation hits the memo, and the journal
// records each sweep and compacts past the retention bound.
//
// The journal's compaction cycle makes op cost bimodal: after a segment
// seals, every finished sweep re-scans it until its last live sweep
// retires. The timed loop therefore starts on a segment rotation and
// ends on one, covering an even number of whole cycles, so every run
// sees the same share of slow ops and its halves compare like for like.
func runServeWarmDurable(o options) (*runStats, error) {
	st := &runStats{layers: map[string]float64{}, notes: map[string]any{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	pool := poolSpecs(o.seed)
	e, err := setUp(st, func(rep int) (*env, error) { return setupDurable(o, tr, pool, rep) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	ct := e.journal
	st.notes["journal_fs"] = fsType(ct.dir)
	st.notes["journal_sync"] = false

	e.spec = func(i int) scenario.Spec { return renamed(pool, "warm", i) }
	const cycles = 2 // per traced run, and the fewest per untraced run
	e.stop = func(i int, el time.Duration) bool {
		n := len(ct.rotations)
		onBoundary := n > 0 && ct.rotations[n-1] == i-1
		if o.trace {
			return n >= cycles && onBoundary
		}
		if el > maxLoop {
			return true
		}
		return onBoundary && n >= cycles && n%2 == 0 &&
			i >= minTailOps && el >= time.Duration(o.seconds)*time.Second
	}
	ct.reset(o.trace)
	appended0 := ct.jl.Appended()
	e.afterOp = ct.observe
	e.drive(st)

	n := len(ct.rotations)
	if n >= 2 {
		st.half = ct.rotations[n/2-1] + 1
	}
	cycleOps := make([]int, 0, n)
	prev := -1
	for _, r := range ct.rotations {
		cycleOps = append(cycleOps, r-prev)
		prev = r
	}
	slow := 0
	p50 := percentile(st.lat, 50)
	for _, l := range st.lat {
		if l > 5*p50 {
			slow++
		}
	}
	st.notes["cycles"] = n
	st.notes["cycle_ops"] = cycleOps
	st.notes["slow_ops"] = slow
	if ops := len(st.lat); o.trace && ops > 0 {
		st.layers["journal.records_per_op"] = float64(ct.jl.Appended()-appended0) / float64(ops)
		st.layers["journal.kb_per_op"] = float64(ct.bytes) / float64(ops) / 1024
		st.layers["journal.sealed_mb_mean"] = mean(ct.sealed) / (1 << 20)
		st.layers["journal.segments_removed"] = float64(ct.removals)
	}
	return st, nil
}

// setupDurable pre-simulates the pool into a fresh Runner, opens a
// journal under the work directory, starts the durable server, recovers
// (an empty journal, as a fresh twinserver -data-dir does) and runs
// pool sweeps until the first segment rotation, where the compaction
// cycle begins with registry and retention both full.
func setupDurable(o options, tr *tracer, pool []scenario.Spec, rep int) (e *env, err error) {
	ctx := context.Background()
	e = newEnv(o, tr)
	defer closeOnError(e, &err)
	runner := &scenario.Runner{}
	for _, s := range pool {
		if _, err = runner.Run(ctx, s); err != nil {
			return e, fmt.Errorf("pre-simulating the pool: %w", err)
		}
	}
	dir, err := os.MkdirTemp(o.workDir, "journal-")
	if err != nil {
		return e, err
	}
	e.teardown = append(e.teardown, func() { os.RemoveAll(dir) })
	// NoSync keeps fsync of a shared disk out of the measurement: records
	// reach the page cache, which is memory.
	jl, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		return e, err
	}
	e.teardown = append(e.teardown, func() { _ = jl.Close() }) // NoSync: nothing to lose
	svc, err := service.New(service.Config{Runner: runner, Journal: jl})
	if err != nil {
		return e, err
	}
	e.teardown = append(e.teardown, svc.Shutdown)
	if _, err = svc.Recover(ctx); err != nil {
		return e, err
	}
	url, stop, err := serveHTTP(service.NewHandler(svc))
	if err != nil {
		return e, err
	}
	e.teardown = append(e.teardown, stop)
	e.client = newClient(url, e.load)
	e.stats = []*api.Client{e.client}
	e.replay = runner

	e.journal = &cycleTracker{dir: dir, jl: jl}
	e.journal.reset(false)
	setup := newTransport(nil)
	defer setup.close()
	sc := newClient(url, setup)
	for i := 0; len(e.journal.rotations) == 0; i++ {
		if i > 100000 {
			return e, errors.New("journal never rotated during set-up")
		}
		if _, err = sc.SubmitSweepWait(ctx, renamed(pool, fmt.Sprintf("setup%d", rep), i)); err != nil {
			return e, fmt.Errorf("warming the journal: %w", err)
		}
		e.journal.observe(i)
	}
	return e, nil
}

// cycleTracker watches the journal directory after every op: segment
// rotations mark compaction-cycle boundaries, removals count
// compactions, and (traced runs) file growth counts journaled bytes.
type cycleTracker struct {
	dir       string
	jl        *journal.Log
	segs      int
	rotations []int // ops after which a new segment appeared
	removals  int
	// traced runs only
	sizes  map[string]int64
	bytes  int64
	sealed []float64
}

// reset starts a fresh observation window at the current state.
func (c *cycleTracker) reset(sizes bool) {
	names := c.segments()
	c.segs = len(names)
	c.rotations, c.removals, c.bytes, c.sealed = nil, 0, 0, nil
	c.sizes = nil
	if sizes {
		c.sizes = map[string]int64{}
		for _, n := range names {
			c.sizes[n] = fileSize(n)
		}
	}
}

func (c *cycleTracker) segments() []string {
	names, _ := filepath.Glob(filepath.Join(c.dir, "journal-*.log")) // pattern is well-formed
	return names
}

func (c *cycleTracker) observe(op int) {
	names := c.segments()
	if len(names) > c.segs {
		c.rotations = append(c.rotations, op)
	}
	if len(names) < c.segs {
		c.removals += c.segs - len(names)
	}
	c.segs = len(names)
	if c.sizes == nil {
		return
	}
	for i, n := range names {
		size := fileSize(n)
		last, seen := c.sizes[n]
		if !seen {
			last = int64(len("ATJRNL01")) // a new segment starts with its magic
			if i > 0 {
				c.sealed = append(c.sealed, float64(fileSize(names[i-1])))
			}
		}
		if size > last {
			c.bytes += size - last
		}
		c.sizes[n] = size
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// runFabricWarm is the fabric-warm workload: a coordinator sharding
// every sweep over two loopback workers whose memos hold the pool, so
// each op exercises dispatch, shard JSON both ways and the merge.
func runFabricWarm(o options) (*runStats, error) {
	st := &runStats{layers: map[string]float64{}, notes: map[string]any{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	pool := poolSpecs(o.seed)
	e, err := setUp(st, func(rep int) (*env, error) { return setupFabric(o, tr, pool, rep) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	if tr != nil {
		// The replay Runner stands in for the workers' memos.
		e.replay = &scenario.Runner{}
		for _, s := range pool {
			if _, err := e.replay.Run(context.Background(), s); err != nil {
				return nil, err
			}
		}
	}
	e.spec = func(i int) scenario.Spec { return renamed(pool, "fabric", i) }
	e.stop = timedStop(o, 300)
	e.drive(st)
	return st, nil
}

// setupFabric starts two workers and a coordinator on loopback, joins
// the workers with a heartbeat at twinserver's interval, and primes the
// workers' memos by running the pool through the fabric once.
func setupFabric(o options, tr *tracer, pool []scenario.Spec, rep int) (e *env, err error) {
	ctx := context.Background()
	e = newEnv(o, tr)
	defer closeOnError(e, &err)
	var onShard func(*http.Request, time.Time, time.Time, int64)
	if tr != nil {
		onShard = func(req *http.Request, start, end time.Time, _ int64) {
			tr.addAttr("fabric.shard", int(e.runSpan.Load()), start, end, req.URL.Host)
		}
	}
	e.shard = newTransport(onShard)
	e.teardown = append(e.teardown, e.shard.close)

	// The workers carry fixed names, resolved to their loopback ports by
	// the coordinator's transport: the consistent-hash ring places shards
	// by worker URL, so fixed names make placement the same in every run.
	// These two names put DefaultSpec's two simulation groups on different
	// workers, so every op dispatches two shards in parallel.
	workers := []string{"http://worker-0", "http://worker-1"}
	hosts := map[string]string{}
	for i := range workers {
		svc, err := service.New(service.Config{Runner: &scenario.Runner{}})
		if err != nil {
			return e, err
		}
		e.teardown = append(e.teardown, svc.Shutdown)
		var h http.Handler = service.NewHandler(svc)
		host := strings.TrimPrefix(workers[i], "http://")
		if tr != nil {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				t0 := time.Now()
				inner.ServeHTTP(w, r)
				if r.URL.Path == api.PathPrefix+"/shards" {
					tr.addAttr("worker.exec", 0, t0, time.Now(), host)
				}
			})
		}
		url, stop, err := serveHTTP(h)
		if err != nil {
			return e, err
		}
		e.teardown = append(e.teardown, stop)
		hosts[host+":80"] = strings.TrimPrefix(url, "http://")
		e.stats = append(e.stats, newClient(url, e.load))
	}
	e.shard.resolve(hosts)

	coord := fabric.New(fabric.Config{NewClient: func(u string) *api.Client { return newClient(u, e.shard) }})
	run := coord.Run
	if tr != nil {
		run = func(ctx context.Context, spec scenario.Spec, progress func(int, int)) (*scenario.SweepResults, error) {
			id, end := tr.begin("fabric.run", int(e.parent.Load()))
			e.runSpan.Store(int64(id))
			defer end()
			return coord.Run(ctx, spec, progress)
		}
	}
	svc, err := service.New(service.Config{Run: run})
	if err != nil {
		return e, err
	}
	e.teardown = append(e.teardown, svc.Shutdown)
	url, stop, err := serveHTTP(fabric.Handler(coord, service.NewHandler(svc)))
	if err != nil {
		return e, err
	}
	e.teardown = append(e.teardown, stop)
	e.client = newClient(url, e.load)

	// Heartbeats: join now, then every interval until teardown.
	hbT := newTransport(nil)
	e.teardown = append(e.teardown, hbT.close)
	hb := newClient(url, hbT)
	for _, w := range workers {
		if _, err = hb.Join(ctx, api.JoinRequest{URL: w}); err != nil {
			return e, fmt.Errorf("joining worker: %w", err)
		}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				for _, w := range workers {
					if _, err := hb.Join(ctx, api.JoinRequest{URL: w}); err != nil {
						e.extraFailures.Add(1)
					}
				}
			}
		}
	}()
	// Stop the heartbeat before the servers it talks to.
	e.teardown = append(e.teardown, func() { close(quit); wg.Wait() })

	setup := newTransport(nil)
	defer setup.close()
	sc := newClient(url, setup)
	for i, s := range pool {
		s.Name = fmt.Sprintf("prime%d-%d", rep, i)
		if _, err = sc.SubmitSweepWait(ctx, s); err != nil {
			return e, fmt.Errorf("priming the workers: %w", err)
		}
	}
	return e, nil
}
