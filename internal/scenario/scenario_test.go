package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/greenhpc/archertwin/internal/forecast"
)

func TestExpandEmptyAxesSingleScenario(t *testing.T) {
	scs, err := Spec{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("empty axes expanded to %d scenarios, want 1", len(scs))
	}
	sc := scs[0]
	if sc.Index != 0 || sc.Name != "baseline" {
		t.Errorf("baseline scenario = %+v", sc)
	}
	if sc.Frequency != "stock" || sc.Scheduler != "backfill" || sc.Workload != "base" {
		t.Errorf("baseline defaults = %+v", sc)
	}
	if sc.GridMean != 200 || sc.Nodes != 200 {
		t.Errorf("baseline grid/nodes = %v/%v, want 200/200", sc.GridMean, sc.Nodes)
	}
}

func TestExpandGridCartesian(t *testing.T) {
	spec := Spec{Axes: Axes{
		Frequency: []string{"stock", "capped"},
		GridMean:  []float64{200, 65, 20},
	}}
	scs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 6 {
		t.Fatalf("2x3 grid expanded to %d scenarios, want 6", len(scs))
	}
	// First scenario is the baseline: first value of every axis.
	if scs[0].Frequency != "stock" || scs[0].GridMean != 200 {
		t.Errorf("baseline = %+v", scs[0])
	}
	// Names carry only the explicitly swept axes.
	if scs[0].Name != "freq=stock grid=200" {
		t.Errorf("baseline name = %q", scs[0].Name)
	}
	for i, sc := range scs {
		if sc.Index != i {
			t.Errorf("scenario %d has index %d", i, sc.Index)
		}
		if strings.Contains(sc.Name, "sched=") || strings.Contains(sc.Name, "wl=") {
			t.Errorf("name %q mentions an unswept axis", sc.Name)
		}
	}
	// All names unique.
	seen := map[string]bool{}
	for _, sc := range scs {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
}

func TestExpandExplosionGuard(t *testing.T) {
	spec := Spec{
		MaxScenarios: 4,
		Axes: Axes{
			Frequency: []string{"stock", "capped"},
			GridMean:  []float64{200, 65, 20},
		},
	}
	if _, err := spec.Expand(); err == nil {
		t.Fatal("6 > 4 scenarios expanded without tripping the explosion guard")
	}
	// Raising the cap admits the same spec.
	spec.MaxScenarios = 6
	if _, err := spec.Expand(); err != nil {
		t.Fatalf("expansion at the cap failed: %v", err)
	}
}

func TestExpandListMode(t *testing.T) {
	spec := Spec{
		Mode: ModeList,
		Axes: Axes{
			Frequency: []string{"stock", "capped", "capped"},
			GridMean:  []float64{200, 200, 20},
			Scheduler: []string{"fcfs"}, // broadcast
		},
	}
	scs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 3 {
		t.Fatalf("list mode expanded to %d scenarios, want 3", len(scs))
	}
	for _, sc := range scs {
		if sc.Scheduler != "fcfs" {
			t.Errorf("broadcast axis not applied: %+v", sc)
		}
	}
	if scs[2].Frequency != "capped" || scs[2].GridMean != 20 {
		t.Errorf("zip misaligned: %+v", scs[2])
	}

	spec.Axes.GridMean = []float64{200, 20} // length 2 vs 3
	if _, err := spec.Expand(); err == nil {
		t.Fatal("mismatched list-mode axis lengths accepted")
	}
}

func TestExpandRejectsBadAxisValues(t *testing.T) {
	bad := []Spec{
		{Axes: Axes{Frequency: []string{"3.5GHz"}}},       // unsupported P-state
		{Axes: Axes{Frequency: []string{"fast"}}},         // unparseable
		{Axes: Axes{Frequency: []string{"2.0GHz+boost"}}}, // boost only at top base
		{Axes: Axes{Scheduler: []string{"sjf"}}},
		{Axes: Axes{Scheduler: []string{"backfill=-1"}}},
		{Axes: Axes{Workload: []string{"debug"}}},
		{Axes: Axes{GridMean: []float64{-5}}},
		{Axes: Axes{Nodes: []int{2}}},
	}
	for i, spec := range bad {
		if _, err := spec.Expand(); err == nil {
			t.Errorf("bad spec %d expanded without error: %+v", i, spec.Axes)
		}
	}
	// An enumerated axis names the bad value and lists every accepted one.
	for _, c := range []struct {
		axes Axes
		want []string
	}{
		{Axes{CarbonPolicy: []string{"bogus"}}, []string{CarbonFCFS, CarbonDelayFlexible, CarbonBudget}},
		{Axes{PriorityMix: []string{"bogus"}}, []string{PriorityNone, PriorityDual, PriorityTiered}},
		{Axes{BackfillPolicy: []string{"bogus"}}, []string{BackfillEASY, BackfillConservative}},
		{Axes{Preemption: []string{"bogus"}}, []string{PreemptOff, PreemptRequeue, PreemptCancel}},
		{Axes{PerfModel: []string{"bogus"}}, []string{PerfKernel, PerfTable}},
		{Axes{Fleet: []string{"bogus"}}, []string{FleetCPU, FleetHybrid}},
		{Axes{Surrogate: []string{"bogus"}}, []string{SurrogateNone, Surrogate10x, Surrogate50x}},
	} {
		_, err := Spec{Axes: c.axes}.Expand()
		if err == nil {
			t.Errorf("bad spec expanded without error: %+v", c.axes)
			continue
		}
		for _, v := range append(c.want, "bogus") {
			if !strings.Contains(err.Error(), `"`+v+`"`) {
				t.Errorf("error %q does not mention %q", err, v)
			}
		}
	}
}

func TestExpandAcceptsExplicitSettings(t *testing.T) {
	spec := Spec{Axes: Axes{
		Frequency: []string{"1.5GHz", "2.0GHz", "2.25GHz+boost", "stock", "capped"},
		Scheduler: []string{"backfill=8", "fcfs", "backfill"},
		Workload:  []string{"base", "portable", "production", "simd"},
	}}
	if _, err := spec.Expand(); err != nil {
		t.Fatalf("valid axis values rejected: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Days: 5, WarmupDays: 5}).Validate(); err == nil {
		t.Error("warmup == days accepted")
	}
	if err := (Spec{Mode: "random"}).Validate(); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := (Spec{Nodes: 4}).Validate(); err == nil {
		t.Error("tiny facility accepted")
	}
	if err := (Spec{Days: maxDays + 1}).Validate(); err == nil {
		t.Error("sweep longer than a time.Duration accepted")
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec (all defaults) rejected: %v", err)
	}
}

// NaN and the infinities are rejected wherever a spec carries a float:
// they shape no simulation, and encoding/json (the service's spec key,
// the memo key) cannot encode them.
func TestSpecRejectsNonFiniteFloats(t *testing.T) {
	fields := map[string]func(*Spec, float64){
		"oversubscription":     func(s *Spec, v float64) { s.OverSubscription = v },
		"priority aging hours": func(s *Spec, v float64) { s.PriorityAgingHours = v },
		"threshold":            func(s *Spec, v float64) { s.Carbon.ThresholdGrams = v },
		"max delay":            func(s *Spec, v float64) { s.Carbon.MaxDelayHours = v },
		"flexible share":       func(s *Spec, v float64) { s.Carbon.FlexibleShare = v },
		"budget fraction":      func(s *Spec, v float64) { s.Carbon.BudgetFraction = v },
		"forecast sigma":       func(s *Spec, v float64) { s.Carbon.ForecastSigma = v },
		"forecast growth":      func(s *Spec, v float64) { s.Carbon.ForecastGrowth = v },
		"grid mean axis":       func(s *Spec, v float64) { s.Axes.GridMean = []float64{200, v} },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			spec := DefaultSpec()
			set(&spec, v)
			if _, err := spec.Partition(); err == nil {
				t.Errorf("%s %v accepted", name, v)
			}
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name": "x", "typo_field": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	s, err := ParseSpec([]byte(`{"name": "x", "axes": {"frequency": ["stock", "capped"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Axes.Frequency) != 2 {
		t.Errorf("parsed axes = %+v", s.Axes)
	}
}

// Scenarios that differ only in grid mix must share their simulation
// seed (common random numbers), so the grid axis never perturbs the
// simulated power or scheduling.
func TestGridAxisSharesSimulationSeed(t *testing.T) {
	spec := Spec{Axes: Axes{GridMean: []float64{200, 20}}}
	scs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	c0, _, err := scs[0].BuildConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	c1, _, err := scs[1].BuildConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c0.Seed != c1.Seed {
		t.Errorf("grid-only scenarios got different seeds: %d vs %d", c0.Seed, c1.Seed)
	}

	// A frequency change must change the seed label's simulation key but
	// still be deterministic call to call.
	spec2 := Spec{Axes: Axes{Frequency: []string{"stock", "capped"}}}
	scs2, err := spec2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := scs2[1].BuildConfig(spec2)
	b, _, _ := scs2[1].BuildConfig(spec2)
	if a.Seed != b.Seed {
		t.Error("BuildConfig seed not deterministic")
	}
	base, _, _ := scs2[0].BuildConfig(spec2)
	if a.Seed == base.Seed {
		t.Error("frequency change did not change the simulation seed")
	}
}

func TestBuildConfigAppliesAxes(t *testing.T) {
	spec := Spec{Axes: Axes{
		Frequency: []string{"capped"},
		Scheduler: []string{"fcfs"},
		Workload:  []string{"simd"},
		Nodes:     []int{64},
	}}
	scs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg, gm, err := scs[0].BuildConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Facility.Nodes != 64 {
		t.Errorf("nodes = %d, want 64", cfg.Facility.Nodes)
	}
	if cfg.Sched.BackfillDepth != 0 {
		t.Errorf("fcfs backfill depth = %d, want 0", cfg.Sched.BackfillDepth)
	}
	if cfg.FleetVariant == nil || cfg.FleetVariant.CoreActivityFactor <= 1 {
		t.Errorf("simd fleet variant not applied: %+v", cfg.FleetVariant)
	}
	if len(cfg.Timeline.Changes) != 1 || cfg.Timeline.Changes[0].Setting == nil ||
		cfg.Timeline.Changes[0].Setting.Boost {
		t.Errorf("capped timeline not applied: %+v", cfg.Timeline.Changes)
	}
	if len(cfg.Windows) != 1 || cfg.Windows[0].Label != "measure" {
		t.Errorf("measurement window missing: %+v", cfg.Windows)
	}
	if gm.Base != 200 {
		t.Errorf("grid model base = %v, want default 200", gm.Base)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("built config invalid: %v", err)
	}
}

func TestShortSweepWarmupDefaults(t *testing.T) {
	// The default warmup must clamp to fit a short sweep instead of
	// failing validation.
	spec := Spec{Nodes: 32, Days: 2}
	if err := spec.Validate(); err != nil {
		t.Fatalf("2-day sweep with default warmup rejected: %v", err)
	}
	scs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := scs[0].BuildConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w := cfg.Windows[0]; !w.To.After(w.From) {
		t.Errorf("empty measurement window: %+v", w)
	}

	// Explicit -1 measures from day zero.
	spec.WarmupDays = -1
	scs, err = spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err = scs[0].BuildConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Windows[0].From; !got.Equal(cfg.Start) {
		t.Errorf("warmup -1 window starts %v, want %v", got, cfg.Start)
	}
}

func TestExpandCarbonPolicyAxis(t *testing.T) {
	spec := Spec{Axes: Axes{
		GridMean:     []float64{200, 20},
		CarbonPolicy: []string{"fcfs", "delay-flexible", "carbon-budget"},
	}}
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 6 {
		t.Fatalf("expanded %d scenarios, want 6", len(scenarios))
	}
	if scenarios[0].CarbonPolicy != "fcfs" {
		t.Errorf("baseline carbon policy %q, want fcfs", scenarios[0].CarbonPolicy)
	}
	// fcfs scenarios at different grid means share one simulation; the
	// carbon-aware ones are distinct per grid mean.
	keys := map[string]bool{}
	for _, sc := range scenarios {
		keys[sc.simKey()] = true
	}
	if len(keys) != 5 {
		t.Errorf("got %d unique sim keys, want 5 (1 shared fcfs + 2 policies x 2 grids)", len(keys))
	}

	spec.Axes.CarbonPolicy = []string{"time-travel"}
	if _, err := spec.Expand(); err == nil {
		t.Error("invalid carbon policy accepted")
	}
}

// The carbon axis must not perturb the seeds of fcfs scenarios: an fcfs
// scenario's simKey is identical with and without the axis present, so
// every pre-carbon sweep result is unchanged.
func TestCarbonAxisPreservesFCFSSeeds(t *testing.T) {
	plain := Scenario{Frequency: "stock", GridMean: 200, Scheduler: "backfill", Workload: "base", Nodes: 64}
	fcfs := plain
	fcfs.CarbonPolicy = "fcfs"
	if plain.simKey() != fcfs.simKey() {
		t.Errorf("fcfs carbon policy changed the sim key: %q vs %q", plain.simKey(), fcfs.simKey())
	}
	aware := plain
	aware.CarbonPolicy = "delay-flexible"
	if aware.simKey() == plain.simKey() {
		t.Error("carbon-aware policy did not change the sim key")
	}
	// And a carbon-aware scenario's key must depend on the grid mean: the
	// scheduler reads the trace, so different grids are different sims.
	aware2 := aware
	aware2.GridMean = 20
	if aware.simKey() == aware2.simKey() {
		t.Error("carbon-aware sim key ignores the grid mean")
	}
}

func TestBuildConfigCarbon(t *testing.T) {
	spec := Spec{Nodes: 32, Days: 3, WarmupDays: 1,
		Axes: Axes{GridMean: []float64{100}, CarbonPolicy: []string{"delay-flexible"}}}
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := scenarios[0].BuildConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Carbon == nil {
		t.Fatal("carbon-aware scenario built no CarbonConfig")
	}
	if cfg.Carbon.NewPolicy == nil {
		t.Fatal("no policy factory")
	}
	tr, err := cfg.Carbon.Trace(cfg.Start, cfg.End)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := forecast.New(tr, cfg.Carbon.Error)
	if err != nil {
		t.Fatal(err)
	}
	pol := cfg.Carbon.NewPolicy(fc)
	if pol.Name() != "delay-flexible" {
		t.Errorf("policy %q, want delay-flexible", pol.Name())
	}

	// An fcfs scenario must not carry carbon wiring at all.
	plain := Spec{Nodes: 32, Days: 3, WarmupDays: 1}
	psc, err := plain.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pcfg, _, err := psc[0].BuildConfig(plain)
	if err != nil {
		t.Fatal(err)
	}
	if pcfg.Carbon != nil {
		t.Error("fcfs scenario built a CarbonConfig")
	}
}

func TestSpecValidateCarbonTunables(t *testing.T) {
	spec := Spec{Carbon: CarbonSpec{FlexibleShare: 1.5}}
	if err := spec.Validate(); err == nil {
		t.Error("flexible share > 1 accepted")
	}
	spec = Spec{Carbon: CarbonSpec{ForecastSigma: -2}}
	if err := spec.Validate(); err == nil {
		t.Error("negative forecast sigma accepted")
	}
}

// Canonical must be idempotent — a canonicalised spec re-entering
// defaulting (as it does when a service hands it to Runner.Run) must not
// shift. The -1 warmup sentinel is the regression case: resolving it to
// 0 would re-default to 4 days on the second pass.
func TestCanonicalIdempotent(t *testing.T) {
	specs := []Spec{
		{},
		{Days: 2, WarmupDays: -1},
		{Days: 1},
		{Days: 10, WarmupDays: 3, OverSubscription: 0.7},
		{Carbon: CarbonSpec{ThresholdGrams: 50}},
	}
	for _, s := range specs {
		once := s.Canonical()
		twice := once.Canonical()
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("Canonical not idempotent for %+v:\nonce  %+v\ntwice %+v", s, once, twice)
		}
	}
}

// The -1 warmup sentinel must mean "measure from day zero" end to end:
// the measurement window starts at the sweep start, at any defaulting
// depth.
func TestWarmupSentinelMeasuresFromDayZero(t *testing.T) {
	spec := Spec{Nodes: 32, Days: 2, WarmupDays: -1}.Canonical()
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := scenarios[0].BuildConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Windows[0].From.Equal(sweepStart) {
		t.Errorf("measurement window starts %v, want sweep start %v", cfg.Windows[0].From, sweepStart)
	}
}

// The Roofline-v2 axes must not perturb the seeds of scenarios holding
// them at their defaults: a scenario's simKey is identical with and
// without the axes present, so every pre-v2 sweep result is unchanged.
func TestRooflineV2AxesPreserveDefaultSeeds(t *testing.T) {
	plain := Scenario{Frequency: "stock", GridMean: 200, Scheduler: "backfill", Workload: "base", Nodes: 64}
	def := plain
	def.PerfModel, def.Fleet, def.Surrogate = PerfKernel, FleetCPU, SurrogateNone
	if plain.simKey() != def.simKey() {
		t.Errorf("default perf/fleet/surrogate changed the sim key: %q vs %q",
			plain.simKey(), def.simKey())
	}
	seen := map[string]string{"default": plain.simKey()}
	for name, mutate := range map[string]func(*Scenario){
		"perf=table":    func(sc *Scenario) { sc.PerfModel = PerfTable },
		"fleet=hybrid":  func(sc *Scenario) { sc.Fleet = FleetHybrid },
		"surrogate=10x": func(sc *Scenario) { sc.Surrogate = Surrogate10x },
		"surrogate=50x": func(sc *Scenario) { sc.Surrogate = Surrogate50x },
	} {
		sc := plain
		mutate(&sc)
		key := sc.simKey()
		for other, k := range seen {
			if key == k {
				t.Errorf("%s collides with %s: %q", name, other, key)
			}
		}
		seen[name] = key
	}
}

// BuildConfig must wire the Roofline-v2 axes into the core config: the
// table perf model, the hybrid fleet's AI partition (nodes/8, min 4)
// and the surrogate preset.
func TestBuildConfigRooflineV2Axes(t *testing.T) {
	spec := Spec{Nodes: 64, Days: 3, WarmupDays: 1, Axes: Axes{
		PerfModel: []string{"table"},
		Fleet:     []string{"hybrid"},
		Surrogate: []string{"50x"},
	}}
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := scenarios[0].BuildConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PerfModel != "table" {
		t.Errorf("cfg.PerfModel = %q, want table", cfg.PerfModel)
	}
	if len(cfg.Facility.Partitions) != 1 || cfg.Facility.Partitions[0].Nodes != 8 {
		t.Errorf("hybrid partitions = %+v, want one 8-node AI partition", cfg.Facility.Partitions)
	}
	if cfg.Surrogate == nil || cfg.Surrogate.Speedup != 50 || cfg.Surrogate.CoveredFraction != 0.5 {
		t.Errorf("cfg.Surrogate = %+v, want 50x over half the runtime", cfg.Surrogate)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("built config invalid: %v", err)
	}

	// A small facility still gets the 4-node partition floor.
	small := Spec{Nodes: 16, Days: 3, WarmupDays: 1, Axes: Axes{Fleet: []string{"hybrid"}}}
	scs, err := small.Expand()
	if err != nil {
		t.Fatal(err)
	}
	scfg, _, err := scs[0].BuildConfig(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(scfg.Facility.Partitions) != 1 || scfg.Facility.Partitions[0].Nodes != 4 {
		t.Errorf("small hybrid partitions = %+v, want one 4-node AI partition", scfg.Facility.Partitions)
	}

	// Default axes leave the config homogeneous and kernel-modelled.
	base := Spec{Nodes: 64, Days: 3, WarmupDays: 1}
	bscs, err := base.Expand()
	if err != nil {
		t.Fatal(err)
	}
	bcfg, _, err := bscs[0].BuildConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	if bcfg.PerfModel != "" || bcfg.Surrogate != nil || len(bcfg.Facility.Partitions) != 0 {
		t.Errorf("default axes produced non-default config: perf=%q surrogate=%+v partitions=%+v",
			bcfg.PerfModel, bcfg.Surrogate, bcfg.Facility.Partitions)
	}

	// Bad axis values fail at expansion, before any simulation.
	for _, bad := range []Axes{
		{PerfModel: []string{"oracle"}},
		{Fleet: []string{"quantum"}},
		{Surrogate: []string{"1000x"}},
	} {
		if _, err := (Spec{Axes: bad}).Expand(); err == nil {
			t.Errorf("axes %+v accepted", bad)
		}
	}
}
