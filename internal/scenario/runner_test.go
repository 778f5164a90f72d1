package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/greenhpc/archertwin/internal/core"
)

// tinySpec is a fast 4-scenario sweep used by the runner tests: 32 nodes
// for 3 days is a sub-second simulation per scenario.
func tinySpec() Spec {
	return Spec{
		Nodes:      32,
		Days:       3,
		WarmupDays: 1,
		Axes: Axes{
			Frequency: []string{"stock", "capped"},
			GridMean:  []float64{200, 20},
		},
	}
}

// The headline determinism guarantee: the same spec and seed produce
// byte-identical aggregate results at 1, 4 and 8 workers.
func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := tinySpec()
	ref, err := (&Runner{Workers: 1}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	refTable := ref.Table().String()
	for _, workers := range []int{4, 8} {
		got, err := (&Runner{Workers: workers}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Results, got.Results) {
			t.Errorf("results differ between 1 and %d workers", workers)
		}
		if gt := got.Table().String(); gt != refTable {
			t.Errorf("rendered table differs between 1 and %d workers:\n%s\nvs\n%s",
				workers, refTable, gt)
		}
	}
}

// A different seed must actually change the results (the determinism
// above is not a constant function).
func TestRunnerSeedSensitivity(t *testing.T) {
	spec := tinySpec()
	a, err := (&Runner{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 7
	b, err := (&Runner{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Results, b.Results) {
		t.Error("different seeds produced identical results")
	}
}

func TestRunnerSingleScenario(t *testing.T) {
	spec := Spec{Nodes: 32, Days: 2, WarmupDays: 1}
	res, err := (&Runner{Workers: 8}).Run(context.Background(), spec) // more workers than scenarios
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(res.Results))
	}
	r := res.Results[0]
	if r.MeanPower.Kilowatts() <= 0 || r.Energy.MegawattHours() <= 0 {
		t.Errorf("degenerate baseline result: %+v", r)
	}
	if r.Emissions.Total.Tonnes() <= 0 {
		t.Errorf("no emissions accounted: %+v", r.Emissions)
	}
}

// Physical sanity on the flagship axes: capping the frequency must cut
// mean power, and a cleaner grid must cut emissions at equal power.
func TestRunnerAxisEffects(t *testing.T) {
	res, err := (&Runner{Workers: 4}).Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Result{}
	for _, r := range res.Results {
		byName[r.Scenario.Name] = r
	}
	stock := byName["freq=stock grid=200"]
	capped := byName["freq=capped grid=200"]
	if capped.MeanPower.Watts() >= stock.MeanPower.Watts() {
		t.Errorf("frequency cap did not reduce power: %v vs %v",
			capped.MeanPower, stock.MeanPower)
	}
	clean := byName["freq=stock grid=20"]
	if clean.MeanPower != stock.MeanPower || clean.NodeHours != stock.NodeHours {
		t.Errorf("grid axis perturbed the simulation: %+v vs %+v", clean, stock)
	}
	if clean.Emissions.Total.Tonnes() >= stock.Emissions.Total.Tonnes() {
		t.Errorf("cleaner grid did not reduce emissions: %v vs %v",
			clean.Emissions.Total, stock.Emissions.Total)
	}
	// The converse CRN property: scenarios at the same grid mean share
	// the same weather, so a simulation-axis change never shifts the
	// carbon intensity it is accounted at.
	if capped.MeanCI != stock.MeanCI {
		t.Errorf("frequency axis perturbed the grid trace: %v vs %v",
			capped.MeanCI, stock.MeanCI)
	}
}

func TestRunnerPropagatesExpansionErrors(t *testing.T) {
	spec := tinySpec()
	spec.Axes.Frequency = []string{"warp9"}
	if _, err := (&Runner{}).Run(context.Background(), spec); err == nil {
		t.Fatal("invalid axis value did not fail the run")
	}
}

func TestSweepTables(t *testing.T) {
	res, err := (&Runner{Workers: 4}).Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Table().String()
	// Title, header and rule, then one row per scenario.
	if lines := strings.Split(strings.TrimRight(s, "\n"), "\n"); len(lines) != 3+4 {
		t.Errorf("comparison table has %d lines, want 3+4:\n%s", len(lines), s)
	}
	regimes := res.RegimeTable().String()
	if len(regimes) == 0 {
		t.Fatal("empty regime table")
	}
}

// Scenarios differing only in grid mix must share one simulation: the
// 2x2 tiny sweep has two unique simulation keys, so exactly two
// simulations run for four scenarios.
func TestRunnerDeduplicatesSimulations(t *testing.T) {
	res, err := (&Runner{Workers: 4}).Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(res.Results))
	}
	if res.Simulations != 2 {
		t.Errorf("ran %d simulations for 2 unique configs, want 2", res.Simulations)
	}
}

// carbonSpec is a fast sweep over grids x temporal policies. Offered
// load sits below capacity (0.7): temporal policies can only shift work
// when the machine is not permanently full.
func carbonSpec() Spec {
	return Spec{
		Nodes:            32,
		Days:             4,
		WarmupDays:       1,
		OverSubscription: 0.7,
		Axes: Axes{
			GridMean:     []float64{200, 20},
			CarbonPolicy: []string{"fcfs", "delay-flexible", "carbon-budget"},
		},
	}
}

// The acceptance-criteria run: a sweep over carbon policies must be
// byte-identical at any worker count, and must report avoided-carbon
// deltas against the fcfs baseline.
func TestRunnerCarbonSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := carbonSpec()
	ref, err := (&Runner{Workers: 1}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	refCarbon := ref.CarbonTable().String()
	for _, workers := range []int{3, 8} {
		got, err := (&Runner{Workers: workers}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Results, got.Results) {
			t.Errorf("results differ between 1 and %d workers", workers)
		}
		if ct := got.CarbonTable().String(); ct != refCarbon {
			t.Errorf("carbon table differs between 1 and %d workers:\n%s\nvs\n%s",
				workers, refCarbon, ct)
		}
	}
	// 6 scenarios: 1 shared fcfs sim + 2 policies x 2 grids = 5 sims.
	if ref.Simulations != 5 {
		t.Errorf("ran %d simulations, want 5", ref.Simulations)
	}
	if !ref.CarbonSwept() {
		t.Error("carbon axis not reported as swept")
	}
}

// Temporal policies must actually engage: the delay-flexible scenarios
// hold jobs, the fcfs ones never do, and avoided carbon is populated
// against the matching fcfs counterpart (zero for fcfs itself).
func TestRunnerCarbonPolicyEffects(t *testing.T) {
	res, err := (&Runner{Workers: 4}).Run(context.Background(), carbonSpec())
	if err != nil {
		t.Fatal(err)
	}
	var sawHold bool
	for _, r := range res.Results {
		switch r.Scenario.CarbonPolicy {
		case CarbonFCFS:
			if r.Holds != 0 {
				t.Errorf("fcfs scenario %q held %d jobs", r.Scenario.Name, r.Holds)
			}
			if r.AvoidedCarbon != 0 {
				t.Errorf("fcfs scenario %q has nonzero avoided carbon %v",
					r.Scenario.Name, r.AvoidedCarbon)
			}
		case CarbonDelayFlexible:
			if r.Holds > 0 {
				sawHold = true
			}
		}
		if r.Emissions.CI.GramsPerKWh() <= 0 {
			t.Errorf("scenario %q has no experienced CI", r.Scenario.Name)
		}
	}
	if !sawHold {
		t.Error("no delay-flexible scenario ever held a job")
	}
	// The delay policy chases clean windows: its energy-weighted CI must
	// sit below the fcfs counterpart's on the swingy 200 g/kWh grid.
	byName := map[string]Result{}
	for _, r := range res.Results {
		byName[r.Scenario.Name] = r
	}
	fcfs := byName["grid=200 carbon=fcfs"]
	flex := byName["grid=200 carbon=delay-flexible"]
	if flex.Emissions.CI.GramsPerKWh() >= fcfs.Emissions.CI.GramsPerKWh() {
		t.Errorf("delay-flexible experienced CI %.1f not below fcfs %.1f",
			flex.Emissions.CI.GramsPerKWh(), fcfs.Emissions.CI.GramsPerKWh())
	}
}

// Worker failures must be reported per scenario, joined in index order,
// never silently dropped.
func TestRunnerAggregatesWorkerErrors(t *testing.T) {
	spec := tinySpec()
	boom := errors.New("boom")
	var calls atomic.Int32
	r := Runner{Workers: 2, runCfg: func(_ context.Context, cfg core.Config) (*core.Results, error) {
		calls.Add(1)
		return nil, boom
	}}
	_, err := r.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("worker failures produced no error")
	}
	// Every scenario (4) must be named even though only 2 sims ran.
	var scErrs []*ScenarioError
	for _, e := range multiUnwrap(err) {
		var se *ScenarioError
		if errors.As(e, &se) {
			scErrs = append(scErrs, se)
		}
	}
	if len(scErrs) != 4 {
		t.Fatalf("got %d scenario errors, want 4: %v", len(scErrs), err)
	}
	for i, se := range scErrs {
		if se.Index != i {
			t.Errorf("scenario errors out of order: position %d has index %d", i, se.Index)
		}
		if !errors.Is(se, boom) {
			t.Errorf("scenario error %d does not wrap the cause", i)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("ran %d simulations, want 2 (deduplicated)", n)
	}
}

// multiUnwrap flattens an errors.Join result.
func multiUnwrap(err error) []error {
	if m, ok := err.(interface{ Unwrap() []error }); ok {
		return m.Unwrap()
	}
	return []error{err}
}

// A list-mode zip can produce carbon-aware scenarios with no fcfs
// counterpart; those must render "—" in the carbon table, not a
// fabricated measured zero.
func TestCarbonTableWithoutCounterpart(t *testing.T) {
	spec := Spec{
		Nodes: 32, Days: 2, WarmupDays: 1, Mode: ModeList,
		OverSubscription: 0.7,
		Axes: Axes{
			GridMean:     []float64{200, 65},
			CarbonPolicy: []string{"fcfs", "delay-flexible"},
		},
	}
	res, err := (&Runner{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("zip expanded to %d scenarios, want 2", len(res.Results))
	}
	flex := res.Results[1]
	if flex.Scenario.CarbonPolicy != CarbonDelayFlexible {
		t.Fatalf("unexpected zip order: %+v", flex.Scenario)
	}
	if flex.HasBaseline {
		t.Error("delay-flexible@65 claims a baseline counterpart; fcfs only ran at grid 200")
	}
	rows := strings.Split(res.CarbonTable().String(), "\n")
	if len(rows) < 4 || !strings.Contains(rows[3], "—") {
		t.Errorf("carbon table row without counterpart lacks the — placeholder:\n%s",
			res.CarbonTable().String())
	}
}

// Memoization: re-running a sweep on the same Runner must serve every
// scenario from cache (no fresh simulations), key distinct specs apart
// (different nodes/frequency axes never collide), and produce results
// identical to the fresh run.
func TestRunnerMemoization(t *testing.T) {
	r := &Runner{Workers: 2}
	spec := tinySpec()
	first, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cs := r.CacheStats()
	// 4 scenarios over 2 unique sims: 2 misses, 2 ride-along hits.
	if cs.Misses != 2 || cs.Hits != 2 {
		t.Fatalf("after first run: stats = %+v, want 2 misses, 2 hits", cs)
	}

	second, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cs = r.CacheStats()
	if cs.Misses != 2 || cs.Hits != 6 {
		t.Errorf("after repeat run: stats = %+v, want 2 misses, 6 hits", cs)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Error("memoized run differs from fresh run")
	}

	// A different facility size must miss: the cache keys on the full
	// derived seed + config hash, so -nodes axes never collide.
	bigger := spec
	bigger.Nodes = 48
	if _, err := r.Run(context.Background(), bigger); err != nil {
		t.Fatal(err)
	}
	cs = r.CacheStats()
	if cs.Misses != 4 {
		t.Errorf("distinct -nodes spec hit the cache: stats = %+v, want 4 misses", cs)
	}

	// So must a changed non-axis config knob (days): simKey alone would
	// collide, the config hash must not.
	longer := spec
	longer.Days = 4
	if _, err := r.Run(context.Background(), longer); err != nil {
		t.Fatal(err)
	}
	cs = r.CacheStats()
	if cs.Misses != 6 {
		t.Errorf("distinct -days spec hit the cache: stats = %+v, want 6 misses", cs)
	}
}

// seedSpec is a single-scenario, single-simulation spec distinguished
// only by its seed — the cheapest way to mint distinct cache entries.
func seedSpec(seed uint64) Spec {
	return Spec{Nodes: 32, Days: 2, WarmupDays: 1, Seed: seed}
}

// The memo must be a true LRU: admission beyond MemoCap evicts the
// least-recently-used entry (never stops admitting), a hit refreshes
// recency, and recently-used entries keep hitting. This is the
// regression test for the old cache that silently stopped admitting at
// capacity, permanently cold for every new config.
func TestRunnerMemoLRUEviction(t *testing.T) {
	r := &Runner{Workers: 1, MemoCap: 3}
	run := func(seed uint64) {
		t.Helper()
		if _, err := r.Run(context.Background(), seedSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}

	// Overfill: 6 distinct simulations through a 3-entry cache.
	for seed := uint64(1); seed <= 6; seed++ {
		run(seed)
	}
	cs := r.CacheStats()
	if cs.Size != 3 || cs.Capacity != 3 {
		t.Fatalf("cache size %d (cap %d), want 3/3", cs.Size, cs.Capacity)
	}
	if cs.Misses != 6 || cs.Evictions != 3 {
		t.Fatalf("stats %+v, want 6 misses, 3 evictions", cs)
	}

	// The three most recent (4, 5, 6) are warm; 1-3 were evicted coldest
	// first.
	run(6)
	if cs = r.CacheStats(); cs.Misses != 6 || cs.Hits != 1 {
		t.Fatalf("recent entry missed: %+v", cs)
	}
	run(1)
	if cs = r.CacheStats(); cs.Misses != 7 || cs.Evictions != 4 {
		t.Fatalf("evicted entry hit, or admission stopped: %+v", cs)
	}

	// Recency refresh: cache now holds {5, 6, 1} with 5 coldest. Hitting
	// 5 then admitting a new entry must evict 6, not 5.
	run(5)
	run(2)
	cs = r.CacheStats()
	if cs.Misses != 8 {
		t.Fatalf("unexpected miss pattern: %+v", cs)
	}
	run(5) // refreshed survivor: hit
	if got := r.CacheStats(); got.Misses != 8 {
		t.Fatalf("hit-refreshed entry was evicted: %+v", got)
	}
	run(6) // unrefreshed: evicted, miss
	if got := r.CacheStats(); got.Misses != 9 {
		t.Fatalf("expected LRU (not refreshed) entry to have been evicted: %+v", got)
	}
}

// A negative MemoCap disables cross-sweep memoization without touching
// within-sweep simulation sharing.
func TestRunnerMemoDisabled(t *testing.T) {
	r := &Runner{Workers: 2, MemoCap: -1}
	for i := 0; i < 2; i++ {
		if _, err := r.Run(context.Background(), tinySpec()); err != nil {
			t.Fatal(err)
		}
	}
	cs := r.CacheStats()
	// 2 sims per run, re-simulated both times; ride-along hits remain.
	if cs.Misses != 4 || cs.Hits != 4 || cs.Size != 0 || cs.Capacity != 0 {
		t.Errorf("disabled cache stats %+v, want 4 misses, 4 hits, size 0", cs)
	}
}

// memoKeyOf derives the cache key exactly as Run does for the spec's
// first scenario.
func memoKeyOf(t *testing.T, spec Spec) string {
	t.Helper()
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	keys := newMemoKeys(part.spec)
	return keys.key(&part.scenarios[0], part.RunKeys[0])
}

// The cache identity must be built from explicit named fields: every
// config-shaping spec field perturbs the key (no two perturbations
// collide), and equal specs produce equal keys. This is the regression
// test for hashing structs via fmt "%+v", where adding or reordering
// fields silently changes every key and a future pointer field would
// fold an address into the identity.
func TestMemoKeyDistinguishesEveryConfigField(t *testing.T) {
	base := func() Spec {
		return Spec{
			Nodes: 32, Days: 5, WarmupDays: 1, Seed: 42,
			OverSubscription: 0.7,
			Carbon: CarbonSpec{
				ThresholdGrams: 120, MaxDelayHours: 8, FlexibleShare: 0.5,
				BudgetFraction: 0.85, ForecastSigma: 5, ForecastGrowth: 0.5,
			},
			Axes: Axes{CarbonPolicy: []string{CarbonDelayFlexible}},
		}
	}
	if memoKeyOf(t, base()) != memoKeyOf(t, base()) {
		t.Fatal("equal specs produced different keys")
	}

	perturbations := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"Days", func(s *Spec) { s.Days = 6 }},
		{"WarmupDays", func(s *Spec) { s.WarmupDays = 2 }},
		{"OverSubscription", func(s *Spec) { s.OverSubscription = 0.8 }},
		{"Seed", func(s *Spec) { s.Seed = 43 }},
		{"Carbon.ThresholdGrams", func(s *Spec) { s.Carbon.ThresholdGrams = 121 }},
		{"Carbon.MaxDelayHours", func(s *Spec) { s.Carbon.MaxDelayHours = 9 }},
		{"Carbon.FlexibleShare", func(s *Spec) { s.Carbon.FlexibleShare = 0.6 }},
		{"Carbon.BudgetFraction", func(s *Spec) { s.Carbon.BudgetFraction = 0.9 }},
		{"Carbon.ForecastSigma", func(s *Spec) { s.Carbon.ForecastSigma = 6 }},
		{"Carbon.ForecastGrowth", func(s *Spec) { s.Carbon.ForecastGrowth = 0.6 }},
		{"PriorityAgingHours", func(s *Spec) { s.PriorityAgingHours = 24 }},
		{"Axes.PriorityMix", func(s *Spec) { s.Axes.PriorityMix = []string{PriorityDual} }},
		{"Axes.BackfillPolicy", func(s *Spec) { s.Axes.BackfillPolicy = []string{BackfillConservative} }},
		{"Axes.Preemption", func(s *Spec) { s.Axes.Preemption = []string{PreemptRequeue} }},
		{"Axes.PerfModel", func(s *Spec) { s.Axes.PerfModel = []string{PerfTable} }},
		{"Axes.Fleet", func(s *Spec) { s.Axes.Fleet = []string{FleetHybrid} }},
		{"Axes.Surrogate", func(s *Spec) { s.Axes.Surrogate = []string{Surrogate10x} }},
		{"Axes.Surrogate50x", func(s *Spec) { s.Axes.Surrogate = []string{Surrogate50x} }},
		{"Axes.MidFrequency", func(s *Spec) { s.Axes.MidFrequency = []string{"capped"} }},
		{"DivergeDay(mid-active)", func(s *Spec) {
			s.Axes.MidFrequency = []string{"capped"}
			s.DivergeDay = 2
		}},
	}
	keys := map[string]string{"base": memoKeyOf(t, base())}
	for _, p := range perturbations {
		spec := base()
		p.mutate(&spec)
		key := memoKeyOf(t, spec)
		for name, other := range keys {
			if key == other {
				t.Errorf("perturbing %s collides with %s", p.name, name)
			}
		}
		keys[p.name] = key
	}

	// Fields that shape no simulation must not move the key: the warm
	// served workloads resubmit specs under fresh names, and a scenario
	// that does not diverge (no mid axis, or the axis's "none" branch,
	// scenario 0) runs the same timeline whatever the divergence day.
	invariants := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"Name", func(s *Spec) { s.Name = "renamed" }},
		{"Mode", func(s *Spec) { s.Mode = ModeList }},
		{"MaxScenarios", func(s *Spec) { s.MaxScenarios = 8 }},
		{"DivergeDay(no mid axis)", func(s *Spec) { s.DivergeDay = 2 }},
		{"DivergeDay(mid none branch)", func(s *Spec) {
			s.Axes.MidFrequency = []string{MidNone, "capped"}
			s.DivergeDay = 2
		}},
	}
	for _, p := range invariants {
		spec := base()
		p.mutate(&spec)
		if memoKeyOf(t, spec) != keys["base"] {
			t.Errorf("changing %s moved the key", p.name)
		}
	}
}

// Cancelling the context stops the sweep: in-flight simulations see the
// cancellation, queued ones never start, and Run reports the context
// error rather than per-scenario fallout.
func TestRunnerRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 4)
	r := Runner{Workers: 1, runCfg: func(ctx context.Context, cfg core.Config) (*core.Results, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, tinySpec()) // 2 unique sims on 1 worker
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	cs := r.CacheStats()
	if cs.Size != 0 {
		t.Errorf("failed simulations were memoized: %+v", cs)
	}
	if cs.Misses > 1 {
		t.Errorf("queued simulation started after cancellation: %+v", cs)
	}
}

// A context cancelled before Run starts must not execute anything.
func TestRunnerRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	r := Runner{Workers: 2, runCfg: func(context.Context, core.Config) (*core.Results, error) {
		calls.Add(1)
		return nil, nil
	}}
	if _, err := r.Run(ctx, tinySpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d simulations ran under a pre-cancelled context", n)
	}
}

// Every result must carry its simulation's digest, shared across
// scenarios that shared the simulation and stable across memoized
// re-runs.
func TestRunnerSimDigests(t *testing.T) {
	r := &Runner{Workers: 2}
	first, err := r.Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Result{}
	for _, res := range first.Results {
		if res.SimDigest == "" {
			t.Fatalf("scenario %q has no simulation digest", res.Scenario.Name)
		}
		byName[res.Scenario.Name] = res
	}
	// Grid-axis pairs share a simulation, frequency-axis pairs do not.
	if byName["freq=stock grid=200"].SimDigest != byName["freq=stock grid=20"].SimDigest {
		t.Error("grid-sharing scenarios have different digests")
	}
	if byName["freq=stock grid=200"].SimDigest == byName["freq=capped grid=200"].SimDigest {
		t.Error("distinct simulations share a digest")
	}
	second, err := r.Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Error("memoized re-run changed results or digests")
	}
}

// A cancelled sweep serves nothing, so it must not inflate the hit
// counter for its memo-resolved groups (misses already count only
// executed simulations).
func TestRunnerCancellationDoesNotInflateHits(t *testing.T) {
	var blocking atomic.Bool
	inFlight := make(chan struct{}, 1)
	r := Runner{Workers: 1, runCfg: func(ctx context.Context, cfg core.Config) (*core.Results, error) {
		if blocking.Load() {
			inFlight <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &core.Results{}, nil
	}}

	// Prewarm the memo with the freq=stock simulation group (the fake
	// results fail accounting later, but memoization happens first).
	prewarm := tinySpec()
	prewarm.Axes.Frequency = []string{"stock"}
	_, _ = r.Run(context.Background(), prewarm)
	base := r.CacheStats()
	if base.Size != 1 || base.Hits != 1 {
		t.Fatalf("prewarm stats %+v, want 1 cached sim, 1 ride-along hit", base)
	}

	// Cancel a sweep whose stock group is a memo hit and whose capped
	// group blocks in-flight.
	blocking.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, tinySpec())
		done <- err
	}()
	<-inFlight // the worker is executing the capped group
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	cs := r.CacheStats()
	if cs.Hits != base.Hits {
		t.Errorf("cancelled sweep inflated hits: %d -> %d", base.Hits, cs.Hits)
	}
	if cs.Misses != base.Misses+1 {
		t.Errorf("misses = %d, want %d (one in-flight execution)", cs.Misses, base.Misses+1)
	}
}

// The memo must be byte-bounded: a sweep sequence whose admitted results
// exceed MemoBudgetBytes keeps the cache at or under budget by evicting
// coldest-first, and an entry larger than the whole budget is evicted by
// its own admission rather than pinned. This is the regression test for
// the entry-count-only cache that would let a long-lived twinserver
// accumulate gigabytes of warm Results.
func TestRunnerMemoByteBudget(t *testing.T) {
	// Price one entry with an unbounded-budget runner first.
	probe := &Runner{Workers: 1, MemoBudgetBytes: -1}
	if _, err := probe.Run(context.Background(), seedSpec(1)); err != nil {
		t.Fatal(err)
	}
	cs := probe.CacheStats()
	if cs.Size != 1 || cs.Bytes <= 0 {
		t.Fatalf("probe stats %+v, want 1 priced entry", cs)
	}
	if cs.BudgetBytes != 0 {
		t.Fatalf("negative MemoBudgetBytes reports budget %d, want 0 (unbounded)", cs.BudgetBytes)
	}
	cost := cs.Bytes

	// Budget for two entries: six distinct sims must keep Bytes <= budget
	// throughout, evicting coldest-first.
	budget := 2*cost + cost/2
	r := &Runner{Workers: 1, MemoBudgetBytes: budget}
	for seed := uint64(1); seed <= 6; seed++ {
		if _, err := r.Run(context.Background(), seedSpec(seed)); err != nil {
			t.Fatal(err)
		}
		cs = r.CacheStats()
		if cs.Bytes > cs.BudgetBytes {
			t.Fatalf("after seed %d: cache %d bytes over budget %d", seed, cs.Bytes, cs.BudgetBytes)
		}
	}
	cs = r.CacheStats()
	if cs.BudgetBytes != budget {
		t.Fatalf("budget reported %d, want %d", cs.BudgetBytes, budget)
	}
	if cs.Size != 2 || cs.Evictions != 4 {
		t.Fatalf("stats %+v, want 2 resident entries and 4 byte-budget evictions", cs)
	}
	// The most recent entry is warm, the oldest was evicted.
	if _, err := r.Run(context.Background(), seedSpec(6)); err != nil {
		t.Fatal(err)
	}
	if got := r.CacheStats(); got.Misses != cs.Misses || got.Hits != cs.Hits+1 {
		t.Fatalf("warm entry missed under byte budget: %+v -> %+v", cs, got)
	}
	if _, err := r.Run(context.Background(), seedSpec(1)); err != nil {
		t.Fatal(err)
	}
	if got := r.CacheStats(); got.Misses != cs.Misses+1 {
		t.Fatalf("evicted entry served a hit: %+v", got)
	}

	// An entry bigger than the whole budget must not be pinned: the cache
	// stays at or under budget (here: empty), and the sweep still runs.
	tiny := &Runner{Workers: 1, MemoBudgetBytes: cost / 2}
	for i := 0; i < 2; i++ {
		if _, err := tiny.Run(context.Background(), seedSpec(9)); err != nil {
			t.Fatal(err)
		}
	}
	cs = tiny.CacheStats()
	if cs.Size != 0 || cs.Bytes != 0 {
		t.Fatalf("oversized entry pinned: %+v", cs)
	}
	if cs.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (oversized entries cannot be served warm)", cs.Misses)
	}
}

// Compaction at memo admission must be observationally invisible to the
// sweep: digests computed before compaction, served results identical on
// repeat (memo-hit) runs.
func TestRunnerCompactionPreservesServedResults(t *testing.T) {
	r := &Runner{Workers: 1}
	first, err := r.Run(context.Background(), seedSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(context.Background(), seedSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Error("memo-served sweep differs from the run that admitted it")
	}
	if first.Results[0].SimDigest == "" || first.Results[0].SimDigest != second.Results[0].SimDigest {
		t.Errorf("SimDigest not stable across compacted admission: %q vs %q",
			first.Results[0].SimDigest, second.Results[0].SimDigest)
	}
}

// The memo holds simulation results only: a fork family's prefix
// checkpoint lives for one Execute call. A repeated divergence study is
// served from results; extending it by one branch runs that branch cold;
// extending it by two replays the prefix once and forks both.
func TestMemoHoldsResultsNotForkPoints(t *testing.T) {
	mid := func(values ...string) Spec {
		return Spec{Nodes: 32, Days: 2, DivergeDay: 1, Axes: Axes{MidFrequency: values}}
	}
	digests := func(res *SweepResults) map[string]string {
		m := map[string]string{}
		for _, r := range res.Results {
			m[r.Scenario.MidFrequency] = r.SimDigest
		}
		return m
	}
	r := &Runner{Workers: 2}
	run := func(spec Spec) (map[string]string, CacheStats) {
		t.Helper()
		res, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return digests(res), r.CacheStats()
	}

	first, cs := run(mid(MidNone, "capped"))
	if cs.Misses != 3 || cs.Size != 2 {
		t.Errorf("first run: %+v, want 3 misses (1 prefix + 2 branches) and 2 entries", cs)
	}
	if _, cs = run(mid(MidNone, "capped")); cs.Misses != 3 || cs.Hits != 2 {
		t.Errorf("repeat run: %+v, want 3 misses and 2 hits", cs)
	}

	one, cs := run(mid(MidNone, "capped", "2.0GHz"))
	if cs.Misses != 4 {
		t.Errorf("one added branch: misses = %d, want 4 (the branch runs cold)", cs.Misses)
	}
	for v, d := range first {
		if one[v] != d {
			t.Errorf("mid=%s: SimDigest %s after extension, %s before", v, one[v], d)
		}
	}
	cold, err := (&Runner{Workers: 2, NoFork: true}).Run(context.Background(), mid(MidNone, "capped", "2.0GHz"))
	if err != nil {
		t.Fatal(err)
	}
	if want := digests(cold)["2.0GHz"]; one["2.0GHz"] != want {
		t.Errorf("added branch SimDigest %s, cold run %s", one["2.0GHz"], want)
	}

	if _, cs = run(mid(MidNone, "capped", "2.0GHz", "1.5GHz", "2.25GHz")); cs.Misses != 7 {
		t.Errorf("two added branches: misses = %d, want 7 (1 prefix replay + 2 branches)", cs.Misses)
	}
}

// sweepJSON is a sweep's results as bytes: a warm sweep must match a
// fresh Runner's byte for byte.
func sweepJSON(t *testing.T, res *SweepResults) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// freshJSON runs spec on a new Runner of the given width and returns its
// results as bytes.
func freshJSON(t *testing.T, workers int, spec Spec) string {
	t.Helper()
	res, err := (&Runner{Workers: workers}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return sweepJSON(t, res)
}

// memoAccounts returns how many accounts each held entry keeps, and the
// bytes the entries' simulations pin without them.
func memoAccounts(r *Runner) (accounts []int, simBytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for el := r.memo.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry)
		accounts = append(accounts, len(e.accounts))
		simBytes += e.res.MemoryFootprint()
	}
	return accounts, simBytes
}

// A memo entry keeps the accounts its simulation's scenarios were given
// the first time: a repeated spec lands from them, identical to a fresh
// Runner's sweep, and the accounts are priced into CacheStats.Bytes.
func TestMemoKeepsAccountedResults(t *testing.T) {
	spec := tinySpec() // 2 simulations x 2 grid means
	want := freshJSON(t, 2, spec)
	r := &Runner{Workers: 2}
	for i := 0; i < 2; i++ {
		res, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := sweepJSON(t, res); got != want {
			t.Fatalf("run %d differs from a fresh Runner:\n%s\nvs\n%s", i, got, want)
		}
		accounts, simBytes := memoAccounts(r)
		if !reflect.DeepEqual(accounts, []int{2, 2}) {
			t.Fatalf("run %d: entries hold %v accounts, want [2 2]", i, accounts)
		}
		if cs := r.CacheStats(); cs.Size != 2 || cs.Bytes != simBytes+4*tracedCost {
			t.Fatalf("run %d: %+v, want 2 entries pinning %d + 4 x %d bytes", i, cs, simBytes, tracedCost)
		}
	}
	if cs := r.CacheStats(); cs.Misses != 2 || cs.Hits != 6 {
		t.Errorf("stats %+v, want 2 misses and 2 + 4 hits", cs)
	}
}

// A warm simulation asked for a new grid mean is a memo hit that still
// needs accounting: it is priced against every member's trace, keeps
// the new account, and matches a fresh Runner.
func TestMemoAccountsNewGridMean(t *testing.T) {
	spec := tinySpec()
	r := &Runner{Workers: 2}
	if _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	before := r.CacheStats()
	spec.Axes.GridMean = append(spec.Axes.GridMean, 65)
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sweepJSON(t, res), freshJSON(t, 2, spec); got != want {
		t.Fatalf("extended sweep differs from a fresh Runner:\n%s\nvs\n%s", got, want)
	}
	cs := r.CacheStats()
	if cs.Misses != before.Misses || cs.Size != 2 {
		t.Errorf("stats %+v after %+v: the new grid mean re-simulated", cs, before)
	}
	if cs.Bytes != before.Bytes+2*tracedCost {
		t.Errorf("bytes %d, want %d + 2 new accounts x %d", cs.Bytes, before.Bytes, tracedCost)
	}
	if accounts, _ := memoAccounts(r); !reflect.DeepEqual(accounts, []int{3, 3}) {
		t.Errorf("entries hold %v accounts, want [3 3]", accounts)
	}
}

// A sweep cancelled after a simulation finished but before it was
// accounted memoizes the simulation without accounts; the retried sweep
// accounts it and matches a fresh Runner.
func TestMemoCancelledSweepKeepsNoAccounts(t *testing.T) {
	spec := tinySpec()
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Workers: 1, runCfg: func(ctx context.Context, cfg core.Config) (*core.Results, error) {
		res, err := core.RunConfigContext(ctx, cfg)
		cancel() // the simulation is done; its group is not yet accounted
		return res, err
	}}
	if _, err := r.Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	accounts, simBytes := memoAccounts(r)
	if !reflect.DeepEqual(accounts, []int{0}) {
		t.Fatalf("cancelled sweep left entries with %v accounts, want one entry with none", accounts)
	}
	if cs := r.CacheStats(); cs.Bytes != simBytes {
		t.Errorf("bytes %d, want the simulation's %d alone", cs.Bytes, simBytes)
	}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sweepJSON(t, res), freshJSON(t, 1, spec); got != want {
		t.Fatalf("retried sweep differs from a fresh Runner:\n%s\nvs\n%s", got, want)
	}
	if accounts, _ := memoAccounts(r); !reflect.DeepEqual(accounts, []int{2, 2}) {
		t.Errorf("retried sweep left %v accounts, want [2 2]", accounts)
	}
}

// Accounts live and die with their simulation's entry: under a byte
// budget they count toward the bound, an eviction drops them with the
// simulation, and an entry whose new accounts push it past the whole
// budget is evicted by that growth.
func TestMemoAccountsEvictWithSimulation(t *testing.T) {
	probe := &Runner{Workers: 1, MemoBudgetBytes: -1}
	if _, err := probe.Run(context.Background(), seedSpec(1)); err != nil {
		t.Fatal(err)
	}
	cost := probe.CacheStats().Bytes // one simulation and its one account

	r := &Runner{Workers: 1, MemoBudgetBytes: cost + cost/2}
	for seed := uint64(1); seed <= 2; seed++ {
		if _, err := r.Run(context.Background(), seedSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	cs := r.CacheStats()
	accounts, simBytes := memoAccounts(r)
	if cs.Size != 1 || cs.Evictions != 1 || !reflect.DeepEqual(accounts, []int{1}) {
		t.Fatalf("stats %+v holding %v accounts, want 1 entry with 1 account after 1 eviction", cs, accounts)
	}
	if cs.Bytes != simBytes+tracedCost {
		t.Errorf("bytes %d, want %d + one account %d", cs.Bytes, simBytes, tracedCost)
	}

	// Growing the held entry past the budget evicts it.
	tight := &Runner{Workers: 1, MemoBudgetBytes: cost}
	spec := seedSpec(1)
	if _, err := tight.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	spec.Axes.GridMean = []float64{200, 65}
	res, err := tight.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sweepJSON(t, res), freshJSON(t, 1, spec); got != want {
		t.Fatalf("sweep differs from a fresh Runner:\n%s\nvs\n%s", got, want)
	}
	if cs := tight.CacheStats(); cs.Size != 0 || cs.Bytes != 0 || cs.Evictions != 1 || cs.Misses != 1 {
		t.Errorf("stats %+v, want the grown entry evicted without re-simulating", cs)
	}
}

// Sweeps sharing warm entries from several goroutines read and grow the
// same accounts: each matches a fresh Runner's sweep.
func TestMemoAccountsConcurrentSweeps(t *testing.T) {
	r := &Runner{Workers: 2}
	if _, err := r.Run(context.Background(), tinySpec()); err != nil {
		t.Fatal(err)
	}
	specs := make([]Spec, 4)
	for i := range specs {
		specs[i] = tinySpec()
		specs[i].Axes.GridMean = append(specs[i].Axes.GridMean, float64(40+10*i))
	}
	got := make([]string, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(context.Background(), specs[i])
			if err != nil {
				t.Error(err)
				return
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = string(data)
		}(i)
	}
	wg.Wait()
	for i, spec := range specs {
		if want := freshJSON(t, 2, spec); got[i] != want {
			t.Errorf("sweep %d differs from a fresh Runner:\n%s\nvs\n%s", i, got[i], want)
		}
	}
	if accounts, _ := memoAccounts(r); !reflect.DeepEqual(accounts, []int{6, 6}) {
		t.Errorf("entries hold %v accounts, want [6 6]", accounts)
	}
}
