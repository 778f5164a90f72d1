package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greenhpc/archertwin/internal/core"
	"github.com/greenhpc/archertwin/internal/emissions"
	"github.com/greenhpc/archertwin/internal/grid"
	"github.com/greenhpc/archertwin/internal/report"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

// Result is one scenario's measured outcome over the measurement window.
type Result struct {
	Scenario Scenario

	// MeanPower is the mean cabinet power over the measurement window.
	MeanPower units.Power
	// MeanUtil is the mean node utilisation over the window.
	MeanUtil float64
	// Energy is the facility energy over the window (MeanPower x span).
	Energy units.Energy
	// NodeHours is the delivered node-hours over the whole run.
	NodeHours float64
	// MeanCI is the plain mean grid carbon intensity of the scenario's
	// trace over the window — the grid context, independent of the load.
	MeanCI units.CarbonIntensity
	// Emissions is the scope-2/scope-3 account over the window, computed
	// by integrating the power series against the intensity trace
	// (emissions.AccountTraces), with the embodied share scaled to the
	// scenario's facility size. Emissions.CI is the energy-weighted
	// intensity the load actually experienced: below MeanCI means the
	// schedule successfully chased clean windows.
	Emissions emissions.Window
	// Regime is the paper's operating-strategy classification.
	Regime emissions.Regime

	// AvoidedCarbon is the emissions cut versus this scenario's
	// baseline-policy counterpart (same axes, carbon_policy at the axis
	// baseline); zero for the counterpart itself and when the carbon axis
	// is not swept. Meaningful only when HasBaseline is true.
	AvoidedCarbon units.Mass
	// HasBaseline reports whether a baseline-policy counterpart existed
	// in the sweep (list-mode zips can omit it; the table then shows "—"
	// instead of a fabricated zero).
	HasBaseline bool
	// Holds / HoldDelay are the temporal policy's park events and total
	// parked time over the whole run (zero under fcfs).
	Holds     int
	HoldDelay time.Duration
	// Completed is the number of jobs completed over the whole run;
	// MeanWait is their mean queue wait.
	Completed int
	MeanWait  time.Duration

	// SimDigest is the core.Results digest of the simulation this result
	// was derived from (scenarios sharing a simulation share the digest).
	// It proves result identity across transports: a sweep served from the
	// twinserver memo carries the same digest a direct Runner.Run would.
	SimDigest string
}

// SweepResults aggregates a completed sweep. Results[0] is the baseline.
type SweepResults struct {
	Spec    Spec
	Results []Result
	// Simulations is how many distinct simulations actually ran;
	// scenarios differing only in grid mix share one (see Runner.Run).
	Simulations int
	// Workers is the executor's width clamped to the simulation count:
	// the pool size (0 resolved to GOMAXPROCS) for a local run, the
	// number of contributing workers for a fabric run.
	Workers int
}

// Runner executes a sweep's scenarios on a worker pool, memoizing
// completed simulations across Run calls: a scenario whose memo key
// (its run key and the encoded canonical spec, see memoKeys) matches an
// earlier simulation reuses its results instead of re-simulating. Within one sweep this is how fcfs
// counterparts on the carbon axis cost one simulation instead of one per
// scenario; across sweeps on the same Runner (a tool exploring several
// specs, a baseline shared by consecutive studies) it skips the repeat
// entirely. A Runner must not be copied after first use.
type Runner struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS. Results are
	// byte-identical for every worker count: each scenario's simulator is
	// fully self-contained and seeded from the spec seed and the
	// scenario's simulation-affecting axes only (Scenario.simKey).
	Workers int

	// MemoCap bounds the memo cache: each entry retains a simulation's
	// full results (power/utilisation series included), so the cache holds
	// at most this many distinct simulations, evicting the least recently
	// used beyond that. Zero means DefaultMemoCap; negative disables
	// memoization entirely (within-sweep simulation sharing still works).
	MemoCap int

	// MemoBudgetBytes bounds the memo cache by retained bytes: each entry
	// is priced at its core.Results.MemoryFootprint at admission (after
	// Results.Compact has dropped what the scenario layer never reads)
	// plus the scenario accounts it keeps, and admissions and new
	// accounts evict coldest-first until the total fits. This is
	// the knob that keeps a long-lived twinserver's memory flat — entry
	// counts alone cannot, because a full-machine 13-month result costs
	// ~1000x a 1-day mini sweep. Zero means DefaultMemoBudgetBytes;
	// negative disables the byte bound (entry-count bound only).
	MemoBudgetBytes int64

	// NoFork disables checkpoint/fork execution of mid-sweep divergence
	// families (specs sweeping Axes.MidFrequency): with NoFork set, every
	// branch simulates cold from day zero instead of forking from the
	// shared prefix snapshot. Results are byte-identical either way, so
	// no program sets it: it selects the cold reference that
	// TestGoldenForkSweep compares the forked path against and that
	// BenchmarkColdSweep times.
	NoFork bool

	// runCfg executes one simulation; nil means core.RunConfigContext.
	// Tests substitute it to exercise failure aggregation and
	// cancellation deterministically.
	runCfg func(context.Context, core.Config) (*core.Results, error)

	// memo caches completed simulations by memo key (memoKeys) — the
	// scenario's run key hashed after every spec field that can shape
	// a simulation, so scenarios differing in any simulation-affecting
	// axis (-nodes, -freq, days, oversubscription, carbon tunables, ...)
	// can never collide. LRU-bounded at MemoCap entries; guarded by mu
	// together with the hit/miss counters.
	mu     sync.Mutex
	memo   *memoLRU
	hits   int
	misses int
}

// DefaultMemoCap is the memo-cache bound when Runner.MemoCap is zero.
const DefaultMemoCap = 256

// DefaultMemoBudgetBytes is the memo-cache byte budget when
// Runner.MemoBudgetBytes is zero: 1 GiB, roomy enough for hundreds of
// compacted full-machine results while keeping a warm twinserver
// process's cache growth bounded and predictable.
const DefaultMemoBudgetBytes int64 = 1 << 30

// CacheStats reports the Runner's memoization counters, accumulated
// across every Run call: Misses counts simulations actually executed,
// Hits counts scenarios served from an already-computed simulation
// (within-sweep sharing or a cross-sweep memo hit). Size, Bytes and
// Evictions describe the LRU store itself: entries currently held
// against the Capacity bound, the bytes those entries pin against the
// BudgetBytes bound (0 = unbounded), and how many cold entries have been
// evicted to admit warmer ones.
type CacheStats struct {
	Hits        int   `json:"hits"`
	Misses      int   `json:"misses"`
	Size        int   `json:"size"`
	Capacity    int   `json:"capacity"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	Evictions   int   `json:"evictions"`
}

// CacheStats returns the memoization counters.
func (r *Runner) CacheStats() CacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := CacheStats{Hits: r.hits, Misses: r.misses,
		Capacity: r.memoCap(), BudgetBytes: r.memoBudget()}
	if r.memo != nil {
		cs.Size = r.memo.len()
		cs.Bytes = r.memo.bytes
		cs.Evictions = r.memo.evictions
	}
	return cs
}

// memoCap resolves the effective cache bound from the MemoCap knob.
func (r *Runner) memoCap() int {
	switch {
	case r.MemoCap == 0:
		return DefaultMemoCap
	case r.MemoCap < 0:
		return 0
	}
	return r.MemoCap
}

// memoBudget resolves the effective byte budget from MemoBudgetBytes.
func (r *Runner) memoBudget() int64 {
	switch {
	case r.MemoBudgetBytes == 0:
		return DefaultMemoBudgetBytes
	case r.MemoBudgetBytes < 0:
		return 0
	}
	return r.MemoBudgetBytes
}

// memoKeys builds the memo keys of one sweep's simulations. A key is the
// cache identity of one simulation, known without building its config:
// an FNV-1a hash of the canonical spec's JSON encoding, then of the run
// key (which carries the scenario's axis values) and the diverge value.
// The spec is encoded once per sweep with only the fields that cannot
// shape a simulation cleared, so a field added to Spec or CarbonSpec
// joins every key unless it is cleared here on purpose: a forgotten
// field costs a memo miss, never a wrong hit.
type memoKeys struct {
	seed uint64
	spec uint64 // the hash state after the encoded spec
	// day is "|", which parts it from a mid value's digits, and the diverge
	// value of an active mid-sweep branch ("|0" for the rest): the branch keeps
	// its family's seed, so its key carries its run key and divergence day.
	day string
}

// newMemoKeys encodes the per-sweep part of the canonical spec's memo keys.
func newMemoKeys(spec *Spec) memoKeys {
	keyed := *spec
	// Name, Mode and MaxScenarios shape no simulation; the axes reach the
	// key through the run key, and DivergeDay through the diverge value.
	keyed.Name, keyed.Mode, keyed.MaxScenarios, keyed.Axes, keyed.DivergeDay = "", "", 0, Axes{}, 0
	h := fnv.New64a() // its Sum64 is the hash state key goes on from
	if err := json.NewEncoder(h).Encode(&keyed); err != nil {
		panic(fmt.Sprintf("scenario: encoding spec: %v", err)) // Validate admits only finite floats
	}
	return memoKeys{seed: spec.Seed, spec: h.Sum64(), day: "|" + strconv.Itoa(spec.DivergeDay)}
}

// key is the memo key of scenario sc, whose run key is runKey.
func (m *memoKeys) key(sc *Scenario, runKey string) string {
	day := "|0"
	if sc.midActive() {
		day = m.day
	}
	h := m.spec // FNV-1a, 64-bit, as hash/fnv's New64a
	for _, s := range [...]string{runKey, day} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	var buf [40]byte
	b := append(strconv.AppendUint(buf[:0], m.seed, 10), '-')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[h>>shift&0xf])
	}
	return string(b)
}

// ScenarioError wraps one failed scenario of a sweep.
type ScenarioError struct {
	Index int
	Name  string
	Err   error
}

// Error implements error.
func (e *ScenarioError) Error() string {
	return fmt.Sprintf("scenario %d (%s): %v", e.Index, e.Name, e.Err)
}

// Unwrap exposes the underlying error.
func (e *ScenarioError) Unwrap() error { return e.Err }

// Run expands and executes the sweep. Scenarios sharing a simulation key
// (differing only in grid mix — see Scenario.simKey) share one simulation:
// the worker pool runs each unique configuration once, one pass draws the
// sweep's intensity trace for every grid mean, and one walk over each
// shared power series prices it against every member's trace, so the
// flagship frequency x grid sweep costs two simulations and two
// accounting walks, not eight, with byte-identical output. Completed
// simulations are also memoized on the Runner (see memoKeys) in an LRU
// store bounded at MemoCap, together with the accounts their scenarios
// were given, so repeating or extending a sweep on the same Runner
// re-simulates only what changed, and a repeat draws no trace and walks
// no series; CacheStats reports the hit/miss and eviction counters.
//
// Sweeps over Axes.MidFrequency additionally share their pre-divergence
// history: all branches of one divergence family replay identically up to
// Spec.DivergeDay, so the runner simulates that prefix once, checkpoints
// it (core.Snapshot), and forks each branch from the checkpoint
// (core.Fork) — bit-identical to cold runs, and much cheaper when the
// divergence is late. The checkpoint lives for one call; only results are
// memoized. Set NoFork to force cold runs. When scenarios fail, the
// errors of every failing scenario are joined in scenario-index order
// (each a *ScenarioError), deterministically regardless of which worker
// hit one first — no scenario is ever silently dropped.
//
// Cancelling ctx stops the sweep: queued simulations are abandoned,
// in-flight ones cancel cooperatively (core.RunConfigContext), and Run
// returns ctx's error. Simulations completed before the cancellation are
// still memoized, so a retried sweep resumes where it left off.
func (r *Runner) Run(ctx context.Context, spec Spec) (*SweepResults, error) {
	return r.RunProgress(ctx, spec, nil)
}

// RunProgress is Run with per-sweep progress reporting: it runs the
// sweep loop (RunSweep) over Execute, so progress (when non-nil) gets
// (resolved, total) unique-simulation counts once up front and again as
// each simulation lands. It may be called from worker goroutines, never
// concurrently; the twinserver uses it to serve live sweep status.
func (r *Runner) RunProgress(ctx context.Context, spec Spec, progress func(done, total int)) (*SweepResults, error) {
	part, err := spec.Partition()
	if err != nil {
		return nil, err
	}
	return RunSweep(ctx, part, nil, r.Execute, progress, nil)
}

// RunScenarios partitions the spec and runs the selection through
// RunSelected, once Partition.CheckSelection accepts it.
func (r *Runner) RunScenarios(ctx context.Context, spec Spec, indices []int, progress func(done, total int)) ([]Result, int, error) {
	part, err := spec.Partition()
	if err == nil {
		err = part.CheckSelection(indices)
	}
	if err != nil {
		return nil, 0, err
	}
	return r.RunSelected(ctx, part, indices, progress)
}

// RunSelected executes only the scenarios of part at the given
// expanded-grid indices (which Partition.CheckSelection accepts) — the
// worker half of the distributed sweep fabric: a coordinator partitions
// the grid and each replica runs its slice through this entry point. It
// returns one Result per index, in index order, plus the number of
// distinct simulations the slice resolved; progress (when non-nil)
// counts those as they land.
//
// Each Result is byte-identical to the corresponding entry of a full
// Run: per-scenario seeds derive from the scenario's own axes
// (Scenario.simKey), never from which subset it runs in. The only
// difference is that cross-scenario aggregation (AvoidedCarbon,
// HasBaseline) is left unfilled — a slice cannot see its counterparts;
// Assemble owns that at merge time.
func (r *Runner) RunSelected(ctx context.Context, part Partition, indices []int, progress func(done, total int)) ([]Result, int, error) {
	runKeys := map[string]bool{}
	for _, idx := range indices {
		runKeys[part.RunKeys[idx]] = true
	}
	slots := make([]Result, len(part.RunKeys))
	sims := 0
	if _, err := r.Execute(ctx, part, indices, slots, func([]int, []Result) error {
		if sims++; progress != nil {
			progress(sims, len(runKeys))
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	for j, idx := range indices {
		slots[j] = slots[idx] // indices ascend: this packs in place
	}
	return slots[:len(indices):len(indices)], sims, nil
}

// Execute is the Runner's Executor: it lands each distinct simulation's
// scenarios as soon as it resolves — memo hits first, on the calling
// goroutine and in group order, the rest from the worker pool as their
// simulations finish — accounted against the scenario's grid trace (or
// taken from the memo entry's accounts) and carrying the simulation
// digest. It builds a core.Config only for a simulation it runs.
// Cross-scenario aggregation is left to Assemble. It returns the pool
// width.
func (r *Runner) Execute(ctx context.Context, part Partition, indices []int, slots []Result, land LandFunc) (int, error) {
	spec, scenarios := part.spec, part.scenarios
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer := ctx // ctx is also cancelled by the first land error
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// runPhase drains one batch of tasks through a bounded worker pool.
	// Cancellation abandons the unfed remainder (their error slots stay
	// nil; the sweep-cancelled check below owns that case) and in-flight
	// simulations cancel cooperatively.
	runPhase := func(tasks []func()) {
		if len(tasks) == 0 {
			return
		}
		w := workers
		if w > len(tasks) {
			w = len(tasks)
		}
		ch := make(chan func())
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range ch {
					t()
				}
			}()
		}
	feed:
		for _, t := range tasks {
			select {
			case ch <- t:
			case <-ctx.Done():
				break feed
			}
		}
		close(ch)
		wg.Wait()
	}

	// One trace seed for the whole sweep: the grid's underlying weather is
	// common random numbers across every scenario (Scaled rescales the
	// same noise), so scenarios at equal grid means see identical carbon
	// intensity, and emissions deltas across simulation axes carry no
	// grid-sampling noise. The trace spans the whole run (not just the
	// measurement window) because carbon-aware simulations consume it from
	// day zero; one trace per distinct grid mean, all drawn in one pass,
	// and only if some group still has to be accounted.
	traceOf := map[float64]int{}
	var gridMeans []float64

	// Group scenarios by run key (simulation key plus any active mid-sweep
	// divergence value), as the partition computed them: one record per
	// simulation.
	type group struct {
		key     string     // memo key
		sc      *Scenario  // the first member, whose simulation the group runs
		members []int      // expansion indices, ascending
		means   []float64  // members' grid means, their accounts' keys
		entry   *memoEntry // a hit's memo entry
		res     *core.Results
		digest  string
		cost    int64    // an executed simulation's compacted footprint
		accts   []traced // member accounts, in member order
	}
	var groups []group
	byKey := map[string]int{}
	keys := newMemoKeys(spec)
	for _, idx := range indices {
		sc := &scenarios[idx]
		if _, ok := traceOf[sc.GridMean]; !ok {
			traceOf[sc.GridMean] = len(gridMeans)
			gridMeans = append(gridMeans, sc.GridMean)
		}
		gi, ok := byKey[part.RunKeys[idx]]
		if !ok {
			gi = len(groups)
			byKey[part.RunKeys[idx]] = gi
			groups = append(groups, group{key: keys.key(sc, part.RunKeys[idx]), sc: sc})
		}
		groups[gi].members = append(groups[gi].members, idx)
		groups[gi].means = append(groups[gi].means, sc.GridMean)
	}

	// Resolve memoized simulations; only the rest go to the pool. A memo
	// hit refreshes the entry's recency, so a server's steadily re-run
	// sweeps stay warm while one-off configs age out. A hit whose entry
	// holds every member's account is landed from it: no trace is drawn
	// and no power series walked for it. The other hits (unheld) are
	// accounted here, and their entries keep the accounts afterwards.
	var hits, pending, unheld []int
	r.mu.Lock()
	if r.memo == nil {
		r.memo = newMemoLRU(r.memoCap(), r.memoBudget())
	}
	for g := range groups {
		gr := &groups[g]
		if e, ok := r.memo.get(gr.key); ok {
			gr.entry, gr.res, gr.digest = e, e.res, e.digest
			if gr.accts = e.accounted(gr.means); gr.accts == nil {
				unheld = append(unheld, g)
			}
			hits = append(hits, g)
			continue
		}
		pending = append(pending, g)
	}
	r.mu.Unlock()
	var traces []*timeseries.Series
	if len(pending)+len(unheld) > 0 {
		models := make([]grid.IntensityModel, len(gridMeans))
		for i, m := range gridMeans {
			models[i] = gridModel(m)
		}
		cc := core.CarbonConfig{TraceSeed: rng.DeriveSeed(spec.Seed, "grid-trace")}
		var err error
		if traces, err = cc.Traces(models, sweepStart, sweepStart.AddDate(0, 0, spec.Days)); err != nil {
			return 0, fmt.Errorf("scenario: grid traces: %w", err)
		}
	}

	// Collect mid-sweep divergence families from the pending groups:
	// groups sharing a simulation key differ only in their mid value, so
	// they replay the same timeline up to the divergence point. Each
	// family's shared prefix is simulated once to that point, snapshotted
	// (core.Snapshot), and every branch — including the unchanged "none"
	// branch, so all branches go through the same machinery — forks from
	// the snapshot (core.Fork) and runs only the remainder. The snapshot
	// lives for this call only. A lone pending branch runs cold: one prefix
	// plus one tail costs the same simulated days. Bit-identity of forked
	// and cold branches is proven by the core fork suite and pinned
	// end-to-end by the golden fork test. Forking is skipped when NoFork is
	// set or a test has substituted runCfg (the substitute only knows how
	// to run whole configs cold).
	type family struct {
		branches []int
		snap     *core.Snapshot
		err      error
	}
	var families []*family
	cold := pending
	if !r.NoFork && r.runCfg == nil && len(spec.Axes.MidFrequency) > 0 {
		bySim := map[string]*family{}
		var all []*family
		for _, g := range pending {
			k := part.Keys[groups[g].sc.Index]
			f := bySim[k]
			if f == nil {
				f = &family{}
				bySim[k] = f
				all = append(all, f)
			}
			f.branches = append(f.branches, g)
		}
		cold = nil
		for _, f := range all {
			if len(f.branches) < 2 {
				cold = append(cold, f.branches...)
				continue
			}
			families = append(families, f)
		}
	}

	// Landing. errs holds each scenario's failure (by expansion index); a
	// group lands only when every member accounted cleanly. landMu only
	// serializes land calls, as Executor promises; the first land error
	// cancels the rest of the call.
	errs := make([]error, len(scenarios))
	var (
		landMu  sync.Mutex
		landErr error
	)
	fail := func(g int, err error) {
		for _, idx := range groups[g].members {
			errs[idx] = err
		}
	}
	resolve := func(g int) {
		if ctx.Err() != nil {
			return
		}
		gr := &groups[g]
		shared, window, err := measured(gr.res)
		if err != nil {
			fail(g, err)
			return
		}
		if gr.accts == nil {
			memberTraces := make([]*timeseries.Series, len(gr.means))
			for j, m := range gr.means {
				memberTraces[j] = traces[traceOf[m]]
			}
			if gr.accts, err = account(gr.res, gr.sc.Nodes, window, memberTraces); err != nil {
				fail(g, err)
				return
			}
		}
		for j, idx := range gr.members {
			slots[idx] = gr.accts[j].result(shared, scenarios[idx], gr.digest)
		}
		landMu.Lock()
		defer landMu.Unlock()
		if landErr != nil {
			return
		}
		if landErr = land(gr.members, slots); landErr != nil {
			cancel()
		}
	}

	// finish records an executed simulation and lands its group. The
	// digest is computed once here, then the result is compacted
	// (Results.Compact: capture intermediates dropped, spare series
	// capacity released — digest unchanged by contract) and priced at its
	// compacted footprint for the memo.
	finish := func(g int, sim *core.Results, err error) {
		if err != nil {
			fail(g, err)
			return
		}
		gr := &groups[g]
		gr.digest = sim.Digest()
		sim.Compact()
		gr.cost = sim.MemoryFootprint()
		gr.res = sim
		resolve(g)
	}

	runCfg := r.runCfg
	if runCfg == nil {
		runCfg = core.RunConfigContext
	}
	var executed atomic.Int64
	// configFor builds the config of a simulation about to run and counts
	// it as executed, unless the sweep is cancelled or the config does not
	// build. Only the task that runs a simulation builds its config.
	configFor := func(sc Scenario) (core.Config, error) {
		if err := ctx.Err(); err != nil {
			return core.Config{}, err
		}
		cfg, _, err := sc.BuildConfig(*spec)
		if err == nil {
			executed.Add(1)
		}
		return cfg, err
	}

	// The memo hits land first, here and in group order. Phase one then
	// runs the cold simulations, plus one prefix run per fork family. The
	// prefix runs to the divergence point and checkpoints there; it counts
	// as an executed simulation (a memo miss) like any other.
	for _, g := range hits {
		resolve(g)
	}
	var coldTasks, forkTasks []func()
	for _, g := range cold {
		g := g
		coldTasks = append(coldTasks, func() {
			var res *core.Results
			cfg, err := configFor(*groups[g].sc)
			if err == nil {
				res, err = runCfg(ctx, cfg)
			}
			finish(g, res, err)
		})
	}
	for _, f := range families {
		f := f
		coldTasks = append(coldTasks, func() {
			var sim *core.Simulator
			prefix := *groups[f.branches[0]].sc
			prefix.MidFrequency = MidNone
			cfg, err := configFor(prefix)
			if err == nil {
				sim, err = core.NewSimulator(cfg)
			}
			if err == nil {
				err = sim.RunToContext(ctx, sweepStart.AddDate(0, 0, spec.DivergeDay))
			}
			if err == nil {
				f.snap, err = sim.Snapshot()
			}
			f.err = err
		})
		for _, g := range f.branches {
			g := g
			forkTasks = append(forkTasks, func() {
				if f.err != nil {
					fail(g, fmt.Errorf("fork prefix: %w", f.err))
					return
				}
				var sim *core.Simulator
				var res *core.Results
				cfg, err := configFor(*groups[g].sc)
				if err == nil {
					sim, err = core.Fork(f.snap, cfg)
				}
				if err == nil {
					res, err = sim.RunContext(ctx)
				}
				finish(g, res, err)
			})
		}
	}
	runPhase(coldTasks)

	// Phase two: every branch of every family forks from its family's
	// snapshot — one immutable snapshot seeds all branches concurrently
	// (Fork deep-copies on restore) — and simulates only the divergence
	// tail. A failed prefix fails each of its branches.
	runPhase(forkTasks)

	// Memoize fresh successes in group order, evicting the least-recently-
	// used entries beyond the entry-count and byte bounds — each entry pins
	// a full results series, and a long-lived service sweeping ever-new
	// configs must not grow memory without bound, yet must keep admitting
	// so its hot set stays warm. An entry keeps the accounts its group
	// was given, priced into its cost (an account it holds already is not
	// stored again), so its next hit lands without accounting. Misses
	// count executed simulations; hits count scenarios served from an
	// already-computed simulation.
	r.mu.Lock()
	for _, g := range pending {
		if gr := &groups[g]; gr.res != nil {
			e := &memoEntry{key: gr.key, res: gr.res, digest: gr.digest, cost: gr.cost}
			if gr.accts != nil {
				e.hold(gr.means, gr.accts)
			}
			r.memo.put(e)
		}
	}
	for _, g := range unheld {
		if gr := &groups[g]; gr.accts != nil {
			r.memo.account(gr.entry, gr.means, gr.accts)
		}
	}
	r.misses += int(executed.Load())
	// Hits count scenarios actually served; a cancelled sweep serves
	// nothing, so its memo-resolved groups are not credited.
	if ctx.Err() == nil {
		r.hits += len(indices) - len(pending)
	}
	r.mu.Unlock()

	if landErr != nil {
		return 0, landErr
	}
	// A cancelled sweep reports the cancellation, not the per-scenario
	// fallout of abandoning the queue.
	if err := outer.Err(); err != nil {
		return 0, fmt.Errorf("scenario: sweep cancelled: %w", err)
	}

	// Report every failing scenario, in scenario-index order, rather than
	// just the first: a sweep that half-fails should say exactly which
	// half and why.
	var failed []error
	for idx, err := range errs {
		if err != nil {
			failed = append(failed, &ScenarioError{Index: idx, Name: scenarios[idx].Name, Err: err})
		}
	}
	if len(failed) > 0 {
		return 0, errors.Join(failed...)
	}
	return workers, nil
}

// fullMachineNodes is the node count of the full machine, against which
// a scenario's share of the embodied emissions is scaled.
var fullMachineNodes = core.DefaultConfig().Facility.Nodes

// traced is the part of a scenario Result that reads the scenario's
// intensity trace; the memo keeps it per trace (memoEntry.accounts).
type traced struct {
	meanCI    units.CarbonIntensity
	emissions emissions.Window
	regime    emissions.Regime
}

// measured returns the part of a scenario Result that reads only the
// simulation, which every member of a group shares, and the measurement
// window both parts cover.
func measured(res *core.Results) (Result, core.Window, error) {
	w, ok := res.WindowByLabel("measure")
	if !ok {
		return Result{}, core.Window{}, fmt.Errorf("scenario: measurement window missing")
	}
	return Result{
		MeanPower: w.MeanPower,
		MeanUtil:  w.MeanUtil,
		Energy:    w.MeanPower.EnergyOver(w.Window.To.Sub(w.Window.From)),
		NodeHours: res.TotalUsage.NodeHours,
		Holds:     res.Sched.Holds,
		HoldDelay: res.Sched.HoldDelay,
		Completed: res.Sched.Completed,
		MeanWait:  res.Sched.MeanWait(),
	}, w.Window, nil
}

// account prices a simulation of a nodes-node facility against its
// members' intensity traces over window: one walk over the power series
// (emissions.AccountTraces) gives the account for each trace, in order.
func account(res *core.Results, nodes int, window core.Window, traces []*timeseries.Series) ([]traced, error) {
	// Embodied emissions scale with the slice of the 5,860-node machine
	// being simulated; a group's members share one simulation, so one size.
	params := emissions.ARCHER2Defaults()
	params.Embodied = params.Embodied.Scale(float64(nodes) / float64(fullMachineNodes))
	accts := make([]emissions.Window, len(traces))
	if err := params.AccountTraces(res.Power, traces, window.From, window.To, accts); err != nil {
		return nil, err
	}
	out := make([]traced, len(traces))
	for j, acct := range accts {
		out[j] = traced{
			meanCI:    units.GramsPerKWh(traces[j].MeanBetween(window.From, window.To)),
			emissions: acct,
			regime:    emissions.RegimeOf(acct),
		}
	}
	return out, nil
}

// result joins a scenario's trace-reading part to its group's shared one.
func (t traced) result(shared Result, sc Scenario, digest string) Result {
	shared.Scenario, shared.SimDigest = sc, digest
	shared.MeanCI, shared.Emissions, shared.Regime = t.meanCI, t.emissions, t.regime
	return shared
}

// fillAvoidedCarbon computes each scenario's emissions cut against its
// baseline-policy counterpart: the scenario identical in every other axis,
// with carbon_policy at the axis baseline (the first value, "fcfs" unless
// the spec reorders it).
func fillAvoidedCarbon(spec *Spec, scenarios []Scenario, results []Result) {
	if len(spec.Axes.CarbonPolicy) == 0 {
		return
	}
	basePolicy := spec.Axes.CarbonPolicy[0]
	keys := make([]string, len(scenarios))
	baseTotal := map[string]units.Mass{}
	for i := range scenarios {
		keys[i] = scenarios[i].counterpartKey()
		if scenarios[i].CarbonPolicy == basePolicy {
			baseTotal[keys[i]] = results[i].Emissions.Total
		}
	}
	for i, key := range keys {
		if base, ok := baseTotal[key]; ok {
			results[i].AvoidedCarbon = units.Mass(base.Grams() - results[i].Emissions.Total.Grams())
			results[i].HasBaseline = true
		}
	}
}

// Table renders the cross-scenario comparison: every metric as its value
// plus the signed percentage delta against the baseline scenario.
func (s *SweepResults) Table() *report.DeltaTable {
	t := report.NewDeltaTable(
		"Sweep: "+s.Spec.Name+" ("+strconv.Itoa(len(s.Results))+" scenarios, "+
			strconv.Itoa(s.Spec.Nodes)+" nodes, "+strconv.Itoa(s.Spec.Days)+" days)",
		"scenario",
		report.DeltaColumn{Header: "mean power", Format: report.KW},
		report.DeltaColumn{Header: "energy", Format: mwh},
		report.DeltaColumn{Header: "emissions", Format: tco2},
		report.DeltaColumn{Header: "node-hours", Format: knodeh},
	)
	for i, r := range s.Results {
		vals := []float64{
			r.MeanPower.Kilowatts(),
			r.Energy.MegawattHours(),
			r.Emissions.Total.Tonnes(),
			r.NodeHours,
		}
		if i == 0 {
			t.SetBaseline(r.Scenario.Name, vals...)
		} else {
			t.Add(r.Scenario.Name, vals...)
		}
	}
	return t
}

// RegimeTable renders each scenario's grid context and operating regime —
// the qualitative half of the paper's §2 decision rule.
func (s *SweepResults) RegimeTable() *report.Table {
	t := report.NewTable("Emissions regimes", "scenario", "grid mean",
		"scope 2", "scope 3", "scope-2 share", "regime")
	for _, r := range s.Results {
		t.AddRow(r.Scenario.Name,
			report.Fixed(r.MeanCI.GramsPerKWh(), 0, " g/kWh"),
			tco2(r.Emissions.Scope2.Tonnes()),
			tco2(r.Emissions.Scope3.Tonnes()),
			report.Fixed(r.Emissions.Scope2Share()*100, 0, "%"),
			r.Regime.String())
	}
	return t
}

// CarbonSwept reports whether the sweep explicitly swept the carbon
// policy axis (the condition under which CarbonTable is meaningful).
func (s *SweepResults) CarbonSwept() bool {
	return len(s.Spec.Axes.CarbonPolicy) > 0
}

// CarbonTable renders the temporal-policy comparison: what intensity the
// load actually ran at (energy-weighted, versus the grid's plain mean),
// the scope-2 account, the carbon avoided against the baseline-policy
// counterpart, and the scheduling cost (holds and mean added delay) —
// the "is shifting worth it" table.
func (s *SweepResults) CarbonTable() *report.Table {
	t := report.NewTable("Carbon-aware temporal policies", "scenario",
		"grid mean", "experienced CI", "scope 2", "avoided vs baseline",
		"holds", "mean hold")
	for _, r := range s.Results {
		avoided := "—"
		if r.HasBaseline && r.Scenario.CarbonPolicy != s.Spec.Axes.CarbonPolicy[0] {
			pct := ""
			if base := r.Emissions.Total.Grams() + r.AvoidedCarbon.Grams(); base > 0 {
				pct = " (" + report.Pct(r.AvoidedCarbon.Grams()/base) + ")"
			}
			avoided = tco2(r.AvoidedCarbon.Tonnes()) + pct
		}
		meanHold := "—"
		if r.Holds > 0 {
			meanHold = (r.HoldDelay / time.Duration(r.Holds)).Round(time.Minute).String()
		}
		t.AddRow(r.Scenario.Name,
			report.Fixed(r.MeanCI.GramsPerKWh(), 0, " g/kWh"),
			report.Fixed(r.Emissions.CI.GramsPerKWh(), 1, " g/kWh"),
			tco2(r.Emissions.Scope2.Tonnes()),
			avoided,
			strconv.Itoa(r.Holds),
			meanHold)
	}
	return t
}

func mwh(v float64) string    { return report.Fixed(v, 1, " MWh") }
func tco2(v float64) string   { return report.Fixed(v, 2, " t") }
func knodeh(v float64) string { return report.Fixed(v, 0, "") }
