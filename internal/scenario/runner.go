package scenario

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
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
// completed simulations across Run calls: a scenario whose full derived
// seed and configuration hash match an earlier simulation reuses its
// results instead of re-simulating. Within one sweep this is how fcfs
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
	// Results.Compact has dropped what the scenario layer never reads),
	// and admissions evict coldest-first until the total fits. This is
	// the knob that keeps a long-lived twinserver's memory flat — entry
	// counts alone cannot, because a full-machine 13-month result costs
	// ~1000x a 1-day mini sweep. Zero means DefaultMemoBudgetBytes;
	// negative disables the byte bound (entry-count bound only).
	// Fork-point snapshots (see NoFork) are priced into the same budget at
	// their core.Snapshot.MemoryFootprint.
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

	// memo caches completed simulations by memoKey — the scenario's full
	// derived seed plus a hash of every config-shaping spec field, so
	// scenarios differing in any simulation-affecting axis (-nodes,
	// -freq, days, oversubscription, carbon tunables, ...) can never
	// collide. LRU-bounded at MemoCap entries; guarded by mu together
	// with the hit/miss counters.
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

// memoKey is the cache identity of one simulation: the full derived seed
// (which already folds in the spec seed and the scenario's simulation
// axes) plus a hash over every remaining config-shaping spec field. Each
// field is written explicitly under a stable label — never via struct
// formatting verbs, whose output shifts whenever a field is added,
// renamed or reordered (silently invalidating or, worse, colliding every
// key) and which would fold a pointer address into the identity the
// moment a non-scalar field appears.
func memoKey(spec Spec, sc *Scenario, cfg core.Config) string {
	c := spec.Carbon.withDefaults()
	// The mid-sweep divergence axis changes the simulated timeline without
	// changing the derived seed (common random numbers across branches), so
	// the key carries the run key — simKey plus the active mid value — and
	// the divergence day that anchors the branch's timeline change.
	diverge := 0
	if sc.midActive() {
		diverge = spec.DivergeDay
	}
	h := fnv.New64a()
	fmt.Fprintf(h,
		"seed=%d|sim=%s|days=%d|warmup=%d|oversub=%g|diverge=%d"+
			"|prio.aging=%g"+
			"|carbon.threshold=%g|carbon.maxdelay=%g|carbon.flexshare=%g"+
			"|carbon.budgetfrac=%g|carbon.fsigma=%g|carbon.fgrowth=%g",
		cfg.Seed, sc.runKey(), spec.Days, spec.warmupDays(), spec.OverSubscription, diverge,
		spec.PriorityAgingHours,
		c.ThresholdGrams, c.MaxDelayHours, c.FlexibleShare,
		c.BudgetFraction, c.ForecastSigma, c.ForecastGrowth)
	return fmt.Sprintf("%d-%016x", cfg.Seed, h.Sum64())
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
// simulations are also memoized on the Runner (see memoKey) in an LRU
// store bounded at MemoCap, so repeating or extending a sweep on the same
// Runner re-simulates only what changed; CacheStats reports the hit/miss
// and eviction counters.
//
// Sweeps over Axes.MidFrequency additionally share their pre-divergence
// history: all branches of one divergence family replay identically up to
// Spec.DivergeDay, so the runner simulates that prefix once, checkpoints
// it (core.Snapshot), and forks each branch from the checkpoint
// (core.Fork) — bit-identical to cold runs, and much cheaper when the
// divergence is late. Set NoFork to force cold runs. When scenarios fail, the errors
// of every failing scenario are joined in scenario-index order (each a
// *ScenarioError), deterministically regardless of which worker hit one
// first — no scenario is ever silently dropped.
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
	return RunSweep(ctx, spec, nil, r.Execute, progress, nil)
}

// RunScenarios executes only the scenarios at the given expanded-grid
// indices (ascending, unique, per Spec.Expand order) — the worker half
// of the distributed sweep fabric: a coordinator partitions the grid
// and each replica runs its slice through this entry point. It returns
// one Result per index, in index order, plus the number of distinct
// simulations the slice resolved; progress (when non-nil) counts those
// as they land.
//
// Each Result is byte-identical to the corresponding entry of a full
// Run: per-scenario seeds derive from the scenario's own axes
// (Scenario.simKey), never from which subset it runs in. The only
// difference is that cross-scenario aggregation (AvoidedCarbon,
// HasBaseline) is left unfilled — a slice cannot see its counterparts;
// Assemble owns that at merge time.
func (r *Runner) RunScenarios(ctx context.Context, spec Spec, indices []int, progress func(done, total int)) ([]Result, int, error) {
	part, err := spec.Partition()
	if err != nil {
		return nil, 0, err
	}
	if len(indices) == 0 {
		return nil, 0, fmt.Errorf("scenario: empty scenario selection")
	}
	runKeys := map[string]bool{}
	last := -1
	for _, idx := range indices {
		if idx <= last {
			return nil, 0, fmt.Errorf("scenario: selection indices must be ascending and unique (%d after %d)", idx, last)
		}
		if idx < 0 || idx >= len(part.Keys) {
			return nil, 0, fmt.Errorf("scenario: selection index %d outside expansion of %d scenarios", idx, len(part.Keys))
		}
		runKeys[part.RunKeys[idx]] = true
		last = idx
	}
	results := make([]Result, len(indices))
	sims := 0
	if _, err := r.Execute(ctx, spec, part, indices, func(idxs []int, res []Result) error {
		for j, idx := range idxs {
			results[sort.SearchInts(indices, idx)] = res[j]
		}
		if sims++; progress != nil {
			progress(sims, len(runKeys))
		}
		return nil
	}); err != nil {
		return nil, 0, err
	}
	return results, sims, nil
}

// Execute is the Runner's Executor: it simulates the scenarios at the
// given expansion indices on the worker pool and lands each distinct
// simulation's scenarios as soon as it resolves — at once for a memo
// hit, otherwise when its simulation finishes — accounted against the
// scenario's grid trace and carrying the simulation digest.
// Cross-scenario aggregation is left to Assemble. It returns the pool
// width.
func (r *Runner) Execute(ctx context.Context, spec Spec, part Partition, indices []int, land LandFunc) (int, error) {
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

	spec = spec.withDefaults()
	scenarios := make([]Scenario, len(indices))
	for j, idx := range indices {
		scenarios[j] = part.scenarios[idx]
	}

	// One trace seed for the whole sweep: the grid's underlying weather is
	// common random numbers across every scenario (Scaled rescales the
	// same noise), so scenarios at equal grid means see identical carbon
	// intensity, and emissions deltas across simulation axes carry no
	// grid-sampling noise. The trace spans the whole run (not just the
	// measurement window) because carbon-aware simulations consume it from
	// day zero; one trace per distinct grid mean, all drawn in one pass
	// before anything is accounted, and shared by reference.
	traceOf := map[float64]int{}
	var models []grid.IntensityModel

	// Group scenarios by run key (simulation key plus any active mid-sweep
	// divergence value), as the partition computed them.
	type group struct {
		cfg     core.Config
		key     string
		sc      Scenario
		members []int
	}
	var groups []group
	byKey := map[string]int{}
	for i := range scenarios {
		sc := &scenarios[i]
		cfg, gm, err := sc.BuildConfig(spec)
		if err != nil {
			return 0, fmt.Errorf("scenario %d (%s): %w", sc.Index, sc.Name, err)
		}
		if _, ok := traceOf[sc.GridMean]; !ok {
			traceOf[sc.GridMean] = len(models)
			models = append(models, gm)
		}
		gi, ok := byKey[part.RunKeys[sc.Index]]
		if !ok {
			gi = len(groups)
			byKey[part.RunKeys[sc.Index]] = gi
			groups = append(groups, group{cfg: cfg, key: memoKey(spec, sc, cfg), sc: *sc})
		}
		groups[gi].members = append(groups[gi].members, i)
	}
	cc := core.CarbonConfig{TraceSeed: rng.DeriveSeed(spec.Seed, "grid-trace")}
	traces, err := cc.Traces(models, sweepStart, sweepStart.AddDate(0, 0, spec.Days))
	if err != nil {
		return 0, fmt.Errorf("scenario: grid traces: %w", err)
	}

	// Collect mid-sweep divergence families: groups sharing a simulation
	// key differ only in their mid value, so they replay the same timeline
	// up to the divergence point. Each family's shared prefix is simulated
	// once to that point, snapshotted (core.Snapshot), and every branch —
	// including the unchanged "none" branch, so all branches go through the
	// same machinery — forks from the snapshot (core.Fork) and runs only
	// the remainder. Bit-identity of forked and cold branches is proven by
	// the core fork suite and pinned end-to-end by the golden fork test.
	// Forking is skipped when NoFork is set or a test has substituted
	// runCfg (the substitute only knows how to run whole configs cold).
	type family struct {
		prefixCfg core.Config
		snapKey   string
		branches  []int
		snap      *core.Snapshot
		fromMemo  bool
		err       error
	}
	famOf := make([]int, len(groups))
	for g := range famOf {
		famOf[g] = -1
	}
	var families []*family
	if !r.NoFork && r.runCfg == nil && len(spec.Axes.MidFrequency) > 0 {
		bySim := map[string]int{}
		for g, grp := range groups {
			fi, ok := bySim[part.Keys[grp.sc.Index]]
			if !ok {
				prefixSc := grp.sc
				prefixSc.MidFrequency = MidNone
				prefixCfg, _, err := prefixSc.BuildConfig(spec)
				if err != nil {
					return 0, fmt.Errorf("scenario %d (%s): fork prefix: %w",
						scenarios[grp.members[0]].Index, grp.sc.Name, err)
				}
				fi = len(families)
				bySim[part.Keys[grp.sc.Index]] = fi
				families = append(families, &family{
					prefixCfg: prefixCfg,
					snapKey:   fmt.Sprintf("snap|%s|d%d", memoKey(spec, &prefixSc, prefixCfg), spec.DivergeDay),
				})
			}
			famOf[g] = fi
			families[fi].branches = append(families[fi].branches, g)
		}
		// A single-branch family would pay the prefix run without sharing
		// it; run that group cold instead.
		for _, f := range families {
			if len(f.branches) < 2 {
				for _, g := range f.branches {
					famOf[g] = -1
				}
			}
		}
	}

	// Resolve memoized simulations; only the rest go to the pool. A memo
	// hit refreshes the entry's recency, so a server's steadily re-run
	// sweeps stay warm while one-off configs age out. Fork-point snapshots
	// resolve from the same store, so a repeated divergence study skips
	// even the prefix replay.
	sims := make([]*core.Results, len(groups))
	digests := make([]string, len(groups))
	costs := make([]int64, len(groups))
	var hits, pending []int
	r.mu.Lock()
	if r.memo == nil {
		r.memo = newMemoLRU(r.memoCap(), r.memoBudget())
	}
	for g := range groups {
		if e, ok := r.memo.get(groups[g].key); ok {
			sims[g] = e.res
			digests[g] = e.digest
			hits = append(hits, g)
			continue
		}
		pending = append(pending, g)
	}
	for _, f := range families {
		if e, ok := r.memo.get(f.snapKey); ok && e.snap != nil {
			f.snap, f.fromMemo = e.snap, true
		}
	}
	r.mu.Unlock()

	// Landing. errs holds each scenario's failure (by position in
	// scenarios); a group lands only when every member accounted cleanly.
	// landMu only serializes land calls, as Executor promises; the first
	// land error cancels the rest of the call.
	errs := make([]error, len(scenarios))
	var (
		landMu  sync.Mutex
		landErr error
	)
	fail := func(g int, err error) {
		for _, m := range groups[g].members {
			errs[m] = err
		}
	}
	resolve := func(g int) {
		if ctx.Err() != nil {
			return
		}
		members := groups[g].members
		idxs := make([]int, len(members))
		results := make([]Result, len(members))
		memberTraces := make([]*timeseries.Series, len(members))
		for j, m := range members {
			idxs[j], results[j].Scenario = scenarios[m].Index, scenarios[m]
			memberTraces[j] = traces[traceOf[scenarios[m].GridMean]]
		}
		if err := account(results, memberTraces, sims[g]); err != nil {
			fail(g, err)
			return
		}
		for j := range results {
			results[j].SimDigest = digests[g]
		}
		landMu.Lock()
		defer landMu.Unlock()
		if landErr != nil {
			return
		}
		if landErr = land(idxs, results); landErr != nil {
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
		digests[g] = sim.Digest()
		sim.Compact()
		costs[g] = sim.MemoryFootprint()
		sims[g] = sim
		resolve(g)
	}

	runCfg := r.runCfg
	if runCfg == nil {
		runCfg = core.RunConfigContext
	}
	var executed atomic.Int64

	// Phase one lands the memo hits first, then runs the cold
	// simulations, plus one prefix run per fork family that has pending
	// branches and no memoized snapshot. The prefix runs to the divergence
	// point and checkpoints there; it counts as an executed simulation (a
	// memo miss) like any other.
	var coldTasks, forkTasks []func()
	for _, g := range hits {
		g := g
		coldTasks = append(coldTasks, func() { resolve(g) })
	}
	for _, g := range pending {
		g := g
		if fi := famOf[g]; fi >= 0 {
			f := families[fi]
			forkTasks = append(forkTasks, func() {
				if err := ctx.Err(); err != nil {
					fail(g, err)
					return
				}
				if f.err != nil {
					fail(g, fmt.Errorf("fork prefix: %w", f.err))
					return
				}
				executed.Add(1)
				var res *core.Results
				sim, err := core.Fork(f.snap, groups[g].cfg)
				if err == nil {
					res, err = sim.RunContext(ctx)
				}
				finish(g, res, err)
			})
			continue
		}
		coldTasks = append(coldTasks, func() {
			if err := ctx.Err(); err != nil {
				fail(g, err)
				return
			}
			executed.Add(1)
			res, err := runCfg(ctx, groups[g].cfg)
			finish(g, res, err)
		})
	}
	needPrefix := make([]bool, len(families))
	for _, g := range pending {
		if fi := famOf[g]; fi >= 0 {
			needPrefix[fi] = true
		}
	}
	for fi, f := range families {
		if !needPrefix[fi] || f.snap != nil {
			continue
		}
		f := f
		coldTasks = append(coldTasks, func() {
			if err := ctx.Err(); err != nil {
				f.err = err
				return
			}
			executed.Add(1)
			sim, err := core.NewSimulator(f.prefixCfg)
			if err == nil {
				err = sim.RunToContext(ctx, spec.divergeTime())
			}
			if err == nil {
				f.snap, err = sim.Snapshot()
			}
			f.err = err
		})
	}
	runPhase(coldTasks)

	// Phase two: every pending branch of every family forks from its
	// family's snapshot — one immutable snapshot seeds all branches
	// concurrently (Fork deep-copies on restore) — and simulates only the
	// divergence tail. A failed prefix fails each of its branches.
	runPhase(forkTasks)

	// Memoize fresh successes in group order, evicting the least-recently-
	// used entries beyond the entry-count and byte bounds — each entry pins
	// a full results series, and a long-lived service sweeping ever-new
	// configs must not grow memory without bound, yet must keep admitting
	// so its hot set stays warm. Misses count executed simulations; hits
	// count scenarios served from an already-computed simulation.
	r.mu.Lock()
	for _, g := range pending {
		if sims[g] != nil {
			r.memo.put(&memoEntry{key: groups[g].key, res: sims[g], digest: digests[g], cost: costs[g]})
		}
	}
	// Freshly captured fork-point snapshots are memoized alongside results,
	// priced at their retained bytes, so the next divergence study over the
	// same prefix forks straight from cache.
	for _, f := range families {
		if f.snap != nil && !f.fromMemo && f.err == nil {
			r.memo.put(&memoEntry{key: f.snapKey, snap: f.snap, cost: f.snap.MemoryFootprint()})
		}
	}
	r.misses += int(executed.Load())
	// Hits count scenarios actually served; a cancelled sweep serves
	// nothing, so its memo-resolved groups are not credited.
	if ctx.Err() == nil {
		r.hits += len(scenarios) - len(pending)
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
	for m, err := range errs {
		if err != nil {
			failed = append(failed, &ScenarioError{Index: scenarios[m].Index, Name: scenarios[m].Name, Err: err})
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

// account fills a group's Results — each carrying its Scenario — from
// the simulation they share: one walk over the simulated power series
// (emissions.AccountTraces) prices it against every member's intensity
// trace (traces[j] for results[j]) over the measurement window.
func account(results []Result, traces []*timeseries.Series, res *core.Results) error {
	w, ok := res.WindowByLabel("measure")
	if !ok {
		return fmt.Errorf("scenario: measurement window missing")
	}
	from, to := w.Window.From, w.Window.To

	// Embodied emissions scale with the slice of the 5,860-node machine
	// being simulated; a group's members share one simulation, so one size.
	params := emissions.ARCHER2Defaults()
	params.Embodied = params.Embodied.Scale(float64(results[0].Scenario.Nodes) / float64(fullMachineNodes))
	accts := make([]emissions.Window, len(results))
	if err := params.AccountTraces(res.Power, traces, from, to, accts); err != nil {
		return err
	}
	for j, acct := range accts {
		results[j] = Result{
			Scenario:  results[j].Scenario,
			MeanPower: w.MeanPower,
			MeanUtil:  w.MeanUtil,
			Energy:    w.MeanPower.EnergyOver(to.Sub(from)),
			NodeHours: res.TotalUsage.NodeHours,
			MeanCI:    units.GramsPerKWh(traces[j].MeanBetween(from, to)),
			Emissions: acct,
			Regime:    emissions.RegimeOf(acct),
			Holds:     res.Sched.Holds,
			HoldDelay: res.Sched.HoldDelay,
			Completed: res.Sched.Completed,
			MeanWait:  res.Sched.MeanWait(),
		}
	}
	return nil
}

// fillAvoidedCarbon computes each scenario's emissions cut against its
// baseline-policy counterpart: the scenario identical in every other axis,
// with carbon_policy at the axis baseline (the first value, "fcfs" unless
// the spec reorders it).
func fillAvoidedCarbon(spec Spec, scenarios []Scenario, results []Result) {
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
		fmt.Sprintf("Sweep: %s (%d scenarios, %d nodes, %d days)",
			s.Spec.Name, len(s.Results), s.Spec.Nodes, s.Spec.Days),
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
			fmt.Sprintf("%.0f g/kWh", r.MeanCI.GramsPerKWh()),
			tco2(r.Emissions.Scope2.Tonnes()),
			tco2(r.Emissions.Scope3.Tonnes()),
			fmt.Sprintf("%.0f%%", r.Emissions.Scope2Share()*100),
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
				pct = fmt.Sprintf(" (%s)", report.Pct(r.AvoidedCarbon.Grams()/base))
			}
			avoided = fmt.Sprintf("%.2f t%s", r.AvoidedCarbon.Tonnes(), pct)
		}
		meanHold := "—"
		if r.Holds > 0 {
			meanHold = (r.HoldDelay / time.Duration(r.Holds)).Round(time.Minute).String()
		}
		t.AddRow(r.Scenario.Name,
			fmt.Sprintf("%.0f g/kWh", r.MeanCI.GramsPerKWh()),
			fmt.Sprintf("%.1f g/kWh", r.Emissions.CI.GramsPerKWh()),
			tco2(r.Emissions.Scope2.Tonnes()),
			avoided,
			fmt.Sprint(r.Holds),
			meanHold)
	}
	return t
}

func mwh(v float64) string    { return fmt.Sprintf("%.1f MWh", v) }
func tco2(v float64) string   { return fmt.Sprintf("%.2f t", v) }
func knodeh(v float64) string { return fmt.Sprintf("%.0f", v) }
