// Package scenario is the declarative what-if engine of the twin: it
// expands a sweep Spec — axes of CPU frequency cap, grid carbon-intensity
// mix, scheduler policy, workload build variant and facility size — into
// concrete core configurations, runs them concurrently on a worker pool,
// and aggregates baseline-relative comparison tables (mean power, energy,
// emissions) in the style of the paper's before/after figures.
//
// The paper (Jackson, Simpson & Turner, SC-W 2023) is fundamentally a
// what-if study: §3-4 cap the CPU frequency and change the BIOS mode, §2
// asks what happens as the grid decarbonises, and §5 sketches compiler
// variants and demand response. This package turns each such question
// into one row of a sweep instead of a hand-written main.go; the
// carbon_policy axis adds the temporal dimension of §2 (when work runs).
//
// Determinism contract: results are byte-identical at any worker count.
// Every scenario derives its own root seed from the spec seed and its
// simulation-affecting axes via rng.DeriveSeed (see Scenario.simKey), so
// nothing depends on expansion order, worker identity or scheduling;
// scenarios differing only in grid mix share common random numbers (one
// simulation, one weather trace), so grid-axis deltas carry no sampling
// noise. Failures are equally deterministic: every failing scenario is
// reported, joined in index order. docs/sweeps.md documents the full
// spec schema and these guarantees.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/core"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/forecast"
	"github.com/greenhpc/archertwin/internal/grid"
	"github.com/greenhpc/archertwin/internal/policy"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/sched"
	"github.com/greenhpc/archertwin/internal/units"
	"github.com/greenhpc/archertwin/internal/workload"
)

// Expansion modes.
const (
	// ModeGrid takes the cartesian product of all axes (default).
	ModeGrid = "grid"
	// ModeList zips the axes: all multi-valued axes must have the same
	// length N, single-valued axes are broadcast, yielding N scenarios.
	ModeList = "list"
)

// DefaultMaxScenarios guards against accidental cartesian explosion.
const DefaultMaxScenarios = 256

// maxDays is the longest sweep a time.Duration spans (about 292 years).
const maxDays = int(math.MaxInt64 / int64(24*time.Hour))

// Axes are the sweep dimensions. An empty axis means "hold at the
// baseline value". The first value of every axis defines the baseline
// scenario.
type Axes struct {
	// Frequency values: "stock" (2.25 GHz + boost), "capped" (2.0 GHz),
	// or an explicit setting like "1.5GHz" / "2.25GHz+boost".
	Frequency []string `json:"frequency,omitempty"`
	// GridMean values are annual-mean grid carbon intensities in
	// gCO2/kWh; the GB2022 intensity model is rescaled to each.
	GridMean []float64 `json:"grid_mean,omitempty"`
	// Scheduler values: "backfill" (production EASY backfill), "fcfs"
	// (backfill disabled), or "backfill=N" for an explicit depth.
	Scheduler []string `json:"scheduler,omitempty"`
	// Workload values name fleet-wide build variants: "base" (as
	// calibrated), "portable" (scalar -O2), "production" (-O3) or "simd"
	// (vendor libs + wide SIMD), per apps.CommonVariants.
	Workload []string `json:"workload,omitempty"`
	// Nodes values override the spec's facility size per scenario.
	Nodes []int `json:"nodes,omitempty"`
	// CarbonPolicy values select the temporal scheduling policy: "fcfs"
	// (greedy baseline), "delay-flexible" (park flexible jobs until a
	// low-carbon window) or "carbon-budget" (rolling carbon-burn
	// admission throttle). Tunables live in Spec.Carbon.
	CarbonPolicy []string `json:"carbon_policy,omitempty"`
	// MidFrequency values change the default CPU frequency mid-sweep, at
	// Spec.DivergeDay: "none" (no change, the conventional baseline) or
	// any frequency value ("capped", "2.0GHz", ...). Scenarios differing
	// only on this axis share their whole history up to the divergence
	// point — the runner simulates that common prefix once, checkpoints
	// it, and forks each branch from the checkpoint (see Runner), with
	// results bit-identical to running every branch cold.
	MidFrequency []string `json:"mid_frequency,omitempty"`
	// PriorityMix values name job-priority distributions: "none" (all
	// jobs priority 0, the historical single-class behaviour), "dual"
	// (80% bulk at level 0, 20% urgent at level 5) or "tiered" (60/30/10
	// at levels 0/2/5). Per-job levels are drawn by a pure hash of the
	// job ID, so the arrival stream itself is unchanged.
	PriorityMix []string `json:"priority_mix,omitempty"`
	// BackfillPolicy values select the backfill algorithm: "easy"
	// (aggressive, head-protecting — the production default) or
	// "conservative" (every scanned queue job gets a protected planned
	// start).
	BackfillPolicy []string `json:"backfill_policy,omitempty"`
	// Preemption values: "off" (default), "requeue" (evicted jobs
	// restart from scratch at their original queue rank) or "cancel"
	// (evicted jobs terminate). Only meaningful with a priority mix —
	// victims must be strictly lower-priority than the starved head.
	Preemption []string `json:"preemption,omitempty"`
	// PerfModel values select the frequency-response model: "kernel"
	// (the first-order analytic roofline, the default) or "table"
	// (measured operating-point tables, interpolated per application —
	// see docs/model.md, "Roofline v2").
	PerfModel []string `json:"perf_model,omitempty"`
	// Fleet values select the facility composition: "cpu" (the
	// homogeneous production fleet, default) or "hybrid" (adds an AI
	// accelerator partition of nodes/8 — at least 4 — GPU nodes with
	// their own power decomposition and operating point).
	Fleet []string `json:"fleet,omitempty"`
	// Surrogate values model an ML surrogate replacing part of the
	// climate class's numerical work: "none" (default), "10x" or "50x"
	// (the covered half of each job's runtime accelerated by that
	// factor).
	Surrogate []string `json:"surrogate,omitempty"`
}

// Spec declaratively describes a scenario sweep.
type Spec struct {
	// Name titles the sweep in reports.
	Name string `json:"name"`
	// Nodes is the baseline facility size (default 200 compute nodes,
	// scaled from the 5,860-node machine via core.ScaledConfig).
	Nodes int `json:"nodes,omitempty"`
	// Days is the simulated span per scenario (default 28).
	Days int `json:"days,omitempty"`
	// WarmupDays are excluded from the measurement window while the
	// scheduler queue fills. Zero means the default (4, clamped to leave
	// a measurement window on short sweeps); -1 measures from day zero.
	WarmupDays int `json:"warmup_days,omitempty"`
	// Seed is the base seed every scenario seed is derived from
	// (default 42).
	Seed uint64 `json:"seed,omitempty"`
	// OverSubscription overrides offered load relative to capacity for
	// every scenario (0 = the core default, 1.10: saturated like the real
	// service). Temporal carbon policies only have room to shift work
	// when the machine is not permanently full, so carbon sweeps
	// typically set this below 1.
	OverSubscription float64 `json:"oversubscription,omitempty"`
	// DivergeDay is the day offset (from sweep start) at which the
	// mid_frequency axis applies its change — the point where branch
	// scenarios diverge from their shared prefix. Zero defaults to
	// three-quarters of Days when the axis is swept (late divergence,
	// where prefix sharing pays most); unused otherwise.
	DivergeDay int `json:"diverge_day,omitempty"`
	// Mode is ModeGrid (cartesian, default) or ModeList (zip).
	Mode string `json:"mode,omitempty"`
	// MaxScenarios caps the expansion size (default 256).
	MaxScenarios int `json:"max_scenarios,omitempty"`
	// PriorityAgingHours is the scheduler's aging knob when a priority
	// mix is swept: one priority level is worth this many hours of queue
	// wait (0, the default, disables aging — strict priority order).
	PriorityAgingHours float64 `json:"priority_aging_hours,omitempty"`

	// Carbon tunes the carbon-aware temporal policies; zero fields take
	// scenario-derived defaults (see CarbonSpec).
	Carbon CarbonSpec `json:"carbon,omitempty"`

	Axes Axes `json:"axes"`
}

// CarbonSpec tunes the carbon_policy axis. All fields are optional.
type CarbonSpec struct {
	// ThresholdGrams is the delay-flexible policy's "clean enough to
	// start now" intensity. Zero derives 90% of the scenario's grid mean,
	// so the policy chases the diurnal troughs of whatever grid the
	// scenario lives under.
	ThresholdGrams float64 `json:"threshold_g_per_kwh,omitempty"`
	// MaxDelayHours bounds the added wait per flexible job (default 8).
	MaxDelayHours float64 `json:"max_delay_hours,omitempty"`
	// FlexibleShare is the fraction of delay-eligible jobs (default 0.5).
	FlexibleShare float64 `json:"flexible_share,omitempty"`
	// BudgetFraction sizes the carbon-budget throttle relative to the
	// scenario's expected steady-state carbon burn (busy-node target x
	// facility size x grid mean). Default 0.85: the throttle bites
	// whenever the grid runs dirtier than 85% of its own mean would cost.
	BudgetFraction float64 `json:"budget_fraction,omitempty"`
	// ForecastSigma / ForecastGrowth parameterise the forecast error
	// model (gCO2/kWh at zero horizon, and per sqrt-hour of horizon).
	// Zero is a perfect forecast.
	ForecastSigma  float64 `json:"forecast_sigma,omitempty"`
	ForecastGrowth float64 `json:"forecast_growth,omitempty"`
}

// withDefaults fills zero carbon tunables.
func (c CarbonSpec) withDefaults() CarbonSpec {
	if c.MaxDelayHours == 0 {
		c.MaxDelayHours = 8
	}
	if c.FlexibleShare == 0 {
		c.FlexibleShare = 0.5
	}
	if c.BudgetFraction == 0 {
		c.BudgetFraction = 0.85
	}
	return c
}

// DefaultSpec returns the flagship frequency x grid-mix sweep: both paper
// operating points against four grid decarbonisation scenarios — eight
// scenarios answering the paper's §2 question ("when does the cap help?")
// in one run.
func DefaultSpec() Spec {
	return Spec{
		Name: "frequency x grid-mix",
		Axes: Axes{
			Frequency: []string{"stock", "capped"},
			GridMean:  []float64{200, 100, 65, 20},
		},
	}
}

// ParseSpec decodes a JSON sweep spec, rejecting unknown fields.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return s, nil
}

// withDefaults returns the spec with zero fields filled in.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "sweep"
	}
	if s.Nodes == 0 {
		s.Nodes = 200
	}
	if s.Days == 0 {
		s.Days = 28
	}
	// Negative WarmupDays (the "measure from day zero" sentinel) is
	// preserved rather than resolved to 0: a resolved 0 would re-default
	// to 4 on the next withDefaults pass, so collapsing the sentinel
	// would make defaulting non-idempotent (and Canonical unstable).
	// Consumers read the effective value through warmupDays.
	if s.WarmupDays == 0 {
		s.WarmupDays = 4
		if s.WarmupDays >= s.Days {
			s.WarmupDays = s.Days - 1
		}
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if len(s.Axes.MidFrequency) > 0 && s.DivergeDay == 0 {
		s.DivergeDay = s.Days * 3 / 4
		if s.DivergeDay < 1 {
			s.DivergeDay = 1
		}
	}
	if s.Mode == "" {
		s.Mode = ModeGrid
	}
	if s.MaxScenarios == 0 {
		s.MaxScenarios = DefaultMaxScenarios
	}
	s.Carbon = s.Carbon.withDefaults()
	return s
}

// warmupDays is the effective warmup span after defaulting: the negative
// "measure from day zero" sentinel reads as 0.
func (s Spec) warmupDays() int {
	if s.WarmupDays < 0 {
		return 0
	}
	return s.WarmupDays
}

// Canonical returns the spec with every defaultable field — the carbon
// tunables included — resolved to its effective value: the form under
// which two specs that mean the same sweep compare (and JSON-marshal)
// equal, whether defaults were spelled out or omitted. The twinserver
// derives its singleflight/dedup identity from the canonical form, so
// submitting {"days":28} and {} coalesce onto one sweep. Canonical is
// idempotent: Canonical(Canonical(s)) == Canonical(s).
func (s Spec) Canonical() Spec { return s.withDefaults() }

// Validate checks the spec (after defaulting).
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Nodes < 8 {
		return fmt.Errorf("scenario: nodes %d below minimum 8", s.Nodes)
	}
	if s.Days < 1 || s.Days > maxDays {
		return fmt.Errorf("scenario: days %d outside [1, %d]", s.Days, maxDays)
	}
	if s.warmupDays() >= s.Days {
		return fmt.Errorf("scenario: warmup %d days does not leave a measurement window in %d days",
			s.warmupDays(), s.Days)
	}
	if s.Mode != ModeGrid && s.Mode != ModeList {
		return fmt.Errorf("scenario: unknown mode %q (want %q or %q)", s.Mode, ModeGrid, ModeList)
	}
	if s.OverSubscription < 0 {
		return fmt.Errorf("scenario: oversubscription %v must not be negative", s.OverSubscription)
	}
	if len(s.Axes.MidFrequency) > 0 && (s.DivergeDay < 1 || s.DivergeDay >= s.Days) {
		return fmt.Errorf("scenario: diverge day %d not strictly inside the %d-day sweep",
			s.DivergeDay, s.Days)
	}
	if s.PriorityAgingHours < 0 {
		return fmt.Errorf("scenario: priority aging hours %v must not be negative", s.PriorityAgingHours)
	}
	c := s.Carbon
	if c.ThresholdGrams < 0 || c.MaxDelayHours < 0 || c.BudgetFraction < 0 ||
		c.FlexibleShare < 0 || c.FlexibleShare > 1 ||
		c.ForecastSigma < 0 || c.ForecastGrowth < 0 {
		return fmt.Errorf("scenario: invalid carbon tunables %+v", c)
	}
	return nil
}

// Scenario is one concrete point of an expanded sweep.
type Scenario struct {
	// Index is the scenario's position in the expansion; index 0 is the
	// baseline (the first value of every axis).
	Index int
	// Name is the human-readable axis assignment, e.g.
	// "freq=capped grid=65". Only explicitly-swept axes appear.
	Name string

	Frequency      string
	GridMean       float64
	Scheduler      string
	Workload       string
	Nodes          int
	CarbonPolicy   string
	MidFrequency   string
	PriorityMix    string
	BackfillPolicy string
	Preemption     string
	PerfModel      string
	Fleet          string
	Surrogate      string
}

// MidNone is the mid_frequency axis value meaning "no mid-sweep change"
// — the branch that simply continues the shared prefix.
const MidNone = "none"

// Carbon-policy axis values.
const (
	// CarbonFCFS is the greedy baseline: start work as soon as resources
	// allow, blind to the grid.
	CarbonFCFS = "fcfs"
	// CarbonDelayFlexible parks flexible jobs until a low-carbon window.
	CarbonDelayFlexible = "delay-flexible"
	// CarbonBudget throttles admission to a rolling carbon-burn budget.
	CarbonBudget = "carbon-budget"
)

// Priority-mix axis values.
const (
	// PriorityNone runs every job at priority 0 — the single-class
	// historical behaviour (and the only mix whose scenarios keep their
	// pre-axis seeds).
	PriorityNone = "none"
	// PriorityDual is 80% bulk work at level 0, 20% urgent at level 5.
	PriorityDual = "dual"
	// PriorityTiered is 60/30/10 at levels 0/2/5.
	PriorityTiered = "tiered"
)

// Backfill-policy axis values (sched.BackfillPolicy names).
const (
	BackfillEASY         = "easy"
	BackfillConservative = "conservative"
)

// Preemption axis values (sched.PreemptionMode names).
const (
	PreemptOff     = "off"
	PreemptRequeue = "requeue"
	PreemptCancel  = "cancel"
)

// Perf-model axis values (core.Config.PerfModel names).
const (
	PerfKernel = "kernel"
	PerfTable  = "table"
)

// Fleet axis values.
const (
	FleetCPU    = "cpu"
	FleetHybrid = "hybrid"
)

// Surrogate axis values.
const (
	SurrogateNone = "none"
	Surrogate10x  = "10x"
	Surrogate50x  = "50x"
)

// surrogateClass is the fleet class the surrogate axis accelerates —
// climate/ocean modelling, the domain with the most established ML
// surrogates (and the paper's §5 candidate for demand response).
const surrogateClass = "climate-ocean"

// seedRole is an axis's part in a scenario's seed key (see simKey).
type seedRole uint8

const (
	// seedAlways writes the axis's term into every key.
	seedAlways seedRole = iota
	// seedOffBaseline writes it only at a non-baseline value, so sweeps
	// that predate the axis keep their seeds (string axes only).
	seedOffBaseline
	// seedCarbonAware writes it only under a carbon-aware policy, right
	// after the policy's term: such a scheduler reads the grid.
	seedCarbonAware
	// seedNever leaves it out: the axis never reseeds a simulation.
	seedNever
)

// carbonKey labels the carbon_policy axis, the one a carbon-aware seed
// term qualifies and the one avoided carbon is measured across.
const carbonKey = "carbon"

// build is a scenario's configuration under construction, handed to
// each axis in turn.
type build struct {
	cfg  core.Config
	gm   grid.IntensityModel
	sc   Scenario
	spec Spec
}

// choice is one non-baseline value of an enumerated axis and its effect
// on the configuration. The baseline value is the configuration default.
type choice struct {
	value  string
	effect func(*build)
}

// axisDef declares one sweep axis: every per-axis fact lives in its
// axisTable entry. key labels the axis in scenario names and seed keys;
// base is its baseline value, which "" reads as too; seed is its part in
// the seed key. An unswept axis holds at base, or at held's value when
// held is set.
type axisDef struct {
	key  string
	base string
	seed seedRole
	held func(*Spec) string
	// values and field point at the Axes and Scenario fields the axis
	// reads and fills: *[]string and *string for a string axis, or
	// *[]float64 and *float64, or *[]int and *int.
	values func(*Axes) any
	field  func(*Scenario) any
	// An enumerated axis lists its other values and their effects in
	// choices, with noun naming the axis in errors. A free-form axis
	// parses a value instead: parse checks v and applies it to b.
	noun    string
	choices []choice
	parse   func(b *build, v string) error
}

// axisTable declares every sweep axis, in expansion order. Adding an axis
// takes its Axes field, its Scenario field and one entry here.
var axisTable = []axisDef{
	{
		key: "freq", base: "stock", seed: seedAlways,
		values: func(a *Axes) any { return &a.Frequency },
		field:  func(sc *Scenario) any { return &sc.Frequency },
		// Every scenario runs in the modern operating mode (Performance
		// Determinism, the paper's post-May-2022 state) with its frequency
		// in force from day zero.
		parse: func(b *build, v string) error {
			fs, err := parseFrequency(b.cfg.Facility.CPU, v)
			if err != nil {
				return err
			}
			perfDet := cpu.PerformanceDeterminism
			b.cfg.Timeline = policy.Timeline{Changes: []policy.Change{
				// The scenario's operating point.
				{At: sweepStart, Mode: &perfDet, Setting: &fs},
			}}
			return nil
		},
	},
	{
		key: "grid", base: "200", seed: seedCarbonAware,
		values: func(a *Axes) any { return &a.GridMean },
		field:  func(sc *Scenario) any { return &sc.GridMean },
		// The grid mean shapes the intensity model BuildConfig returns.
		parse: func(_ *build, v string) error {
			if gm, err := strconv.ParseFloat(v, 64); err != nil || gm <= 0 {
				return fmt.Errorf("scenario: invalid grid mean %q", v)
			}
			return nil
		},
	},
	{
		key: "sched", base: "backfill", seed: seedAlways,
		values: func(a *Axes) any { return &a.Scheduler },
		field:  func(sc *Scenario) any { return &sc.Scheduler },
		parse:  parseScheduler,
	},
	{
		key: "wl", base: "base", seed: seedAlways,
		values: func(a *Axes) any { return &a.Workload },
		field:  func(sc *Scenario) any { return &sc.Workload },
		parse:  parseWorkload,
	},
	{
		key: "nodes", seed: seedAlways,
		values: func(a *Axes) any { return &a.Nodes },
		field:  func(sc *Scenario) any { return &sc.Nodes },
		held:   func(s *Spec) string { return strconv.Itoa(s.Nodes) },
		// The node count sizes the scaled config BuildConfig starts from.
		parse: func(_ *build, v string) error {
			if n, err := strconv.Atoi(v); err != nil || n < 8 {
				return fmt.Errorf("scenario: nodes axis value %s below minimum 8", v)
			}
			return nil
		},
	},
	{
		key: carbonKey, base: CarbonFCFS, seed: seedOffBaseline, noun: "carbon policy",
		values: func(a *Axes) any { return &a.CarbonPolicy },
		field:  func(sc *Scenario) any { return &sc.CarbonPolicy },
		choices: []choice{
			// Threshold 0 derives 90% of the scenario's grid mean.
			{CarbonDelayFlexible, func(b *build) {
				cs, flexSeed := b.spec.Carbon, rng.DeriveSeed(b.spec.Seed, "carbon-flex")
				threshold := cs.ThresholdGrams
				if threshold <= 0 {
					threshold = 0.9 * b.sc.GridMean
				}
				b.setCarbon(func(fc *forecast.Forecaster) sched.TemporalPolicy {
					return &sched.DelayFlexiblePolicy{Forecast: fc, Threshold: units.GramsPerKWh(threshold),
						MaxDelay:      time.Duration(cs.MaxDelayHours * float64(time.Hour)),
						FlexibleShare: cs.FlexibleShare, Seed: flexSeed}
				})
			}},
			// The budget is a fraction of the expected steady-state burn:
			// every node busy at the calibrated busy-node draw, on a grid
			// at the scenario's mean intensity.
			{CarbonBudget, func(b *build) {
				busyKW := b.cfg.BusyNodeTarget.Watts() * float64(b.sc.Nodes) / 1e3
				budget := units.Grams(b.spec.Carbon.BudgetFraction * busyKW * b.sc.GridMean)
				b.setCarbon(func(fc *forecast.Forecaster) sched.TemporalPolicy {
					return &sched.CarbonBudgetPolicy{Forecast: fc, BudgetPerHour: budget}
				})
			}},
		},
	},
	{
		key: "mid", base: MidNone, seed: seedNever,
		values: func(a *Axes) any { return &a.MidFrequency },
		field:  func(sc *Scenario) any { return &sc.MidFrequency },
		// A mid-sweep change takes effect at the divergence day.
		parse: func(b *build, v string) error {
			if v == "" || v == MidNone {
				return nil
			}
			fs, err := parseFrequency(b.cfg.Facility.CPU, v)
			if err != nil {
				return err
			}
			// The mid-sweep frequency divergence.
			b.cfg.Timeline.Changes = append(b.cfg.Timeline.Changes, policy.Change{
				At:      b.spec.divergeTime(),
				Setting: &fs,
			})
			return nil
		},
	},
	{
		key: "prio", base: PriorityNone, seed: seedOffBaseline, noun: "priority mix",
		values: func(a *Axes) any { return &a.PriorityMix },
		field:  func(sc *Scenario) any { return &sc.PriorityMix },
		choices: []choice{
			{PriorityDual, func(b *build) {
				b.cfg.Priorities = []workload.PriorityClass{{Level: 0, Share: 0.8}, {Level: 5, Share: 0.2}}
			}},
			{PriorityTiered, func(b *build) {
				b.cfg.Priorities = []workload.PriorityClass{
					{Level: 0, Share: 0.6}, {Level: 2, Share: 0.3}, {Level: 5, Share: 0.1}}
			}},
		},
	},
	{
		key: "bf", base: BackfillEASY, seed: seedOffBaseline, noun: "backfill policy",
		values: func(a *Axes) any { return &a.BackfillPolicy },
		field:  func(sc *Scenario) any { return &sc.BackfillPolicy },
		choices: []choice{
			{BackfillConservative, func(b *build) { b.cfg.Sched.Backfill = sched.BackfillConservative }},
		},
	},
	{
		key: "preempt", base: PreemptOff, seed: seedOffBaseline, noun: "preemption mode",
		values: func(a *Axes) any { return &a.Preemption },
		field:  func(sc *Scenario) any { return &sc.Preemption },
		choices: []choice{
			{PreemptRequeue, func(b *build) { b.cfg.Sched.Preemption = sched.PreemptRequeue }},
			{PreemptCancel, func(b *build) { b.cfg.Sched.Preemption = sched.PreemptCancel }},
		},
	},
	{
		key: "perf", base: PerfKernel, seed: seedOffBaseline, noun: "perf model",
		values: func(a *Axes) any { return &a.PerfModel },
		field:  func(sc *Scenario) any { return &sc.PerfModel },
		choices: []choice{
			{PerfTable, func(b *build) { b.cfg.PerfModel = PerfTable }},
		},
	},
	{
		key: "fleet", base: FleetCPU, seed: seedOffBaseline, noun: "fleet",
		values: func(a *Axes) any { return &a.Fleet },
		field:  func(sc *Scenario) any { return &sc.Fleet },
		choices: []choice{
			// The hybrid fleet adds an AI partition of nodes/8, at least 4.
			{FleetHybrid, func(b *build) {
				b.cfg.Facility.Partitions = []facility.Partition{facility.AIPartition(max(b.sc.Nodes/8, 4))}
			}},
		},
	},
	{
		key: "surrogate", base: SurrogateNone, seed: seedOffBaseline, noun: "surrogate",
		values: func(a *Axes) any { return &a.Surrogate },
		field:  func(sc *Scenario) any { return &sc.Surrogate },
		// Both presets cover half of each covered job's runtime, per the
		// Amdahl split typical of hybrid surrogate/numerics pipelines.
		choices: []choice{
			{Surrogate10x, func(b *build) {
				b.cfg.Surrogate = &core.SurrogateConfig{Class: surrogateClass, Speedup: 10, CoveredFraction: 0.5}
			}},
			{Surrogate50x, func(b *build) {
				b.cfg.Surrogate = &core.SurrogateConfig{Class: surrogateClass, Speedup: 50, CoveredFraction: 0.5}
			}},
		},
	},
}

// setCarbon wires a carbon-aware temporal policy into the config. The
// trace seed derives from the base seed only, matching the runner's
// accounting trace, so the scheduler's forecasts and the emissions
// account always describe the same weather.
func (b *build) setCarbon(newPolicy func(*forecast.Forecaster) sched.TemporalPolicy) {
	cs, seed := b.spec.Carbon, b.spec.Seed
	b.cfg.Carbon = &core.CarbonConfig{
		Model:     b.gm,
		TraceSeed: rng.DeriveSeed(seed, "grid-trace"),
		Error: forecast.ErrorModel{
			Sigma0:            cs.ForecastSigma,
			GrowthPerSqrtHour: cs.ForecastGrowth,
			Seed:              rng.DeriveSeed(seed, "forecast-error"),
		},
		NewPolicy: newPolicy,
	}
}

// apply checks value v of the axis and applies it to b.
func (a *axisDef) apply(b *build, v string) error {
	if a.parse != nil {
		return a.parse(b, v)
	}
	if v == "" || v == a.base {
		return nil
	}
	want := []string{a.base}
	for _, c := range a.choices {
		if c.value == v {
			c.effect(b)
			return nil
		}
		want = append(want, c.value)
	}
	return fmt.Errorf("scenario: invalid %s %q (want one of %q)", a.noun, v, want)
}

// store sets the scenario's field on the axis to a checked value.
func (a *axisDef) store(sc *Scenario, v string) {
	switch p := a.field(sc).(type) {
	case *string:
		*p = v
	case *float64:
		*p, _ = strconv.ParseFloat(v, 64)
	case *int:
		*p, _ = strconv.Atoi(v)
	}
}

// appendValue appends the scenario's value on the axis, formatted as the
// axis's values are in scenario names.
func (a *axisDef) appendValue(b []byte, sc *Scenario) []byte {
	switch p := a.field(sc).(type) {
	case *float64:
		return strconv.AppendFloat(b, *p, 'g', -1, 64)
	case *int:
		return strconv.AppendInt(b, int64(*p), 10)
	default:
		return append(b, *p.(*string)...)
	}
}

// atBaseline reports whether a string axis holds its baseline value.
func (a *axisDef) atBaseline(sc *Scenario) bool {
	v := *a.field(sc).(*string)
	return v == "" || v == a.base
}

// term appends the axis's "key=value" term, as scenario names and seed
// keys spell it.
func (a *axisDef) term(key []byte, sc *Scenario) []byte {
	if len(key) > 0 {
		key = append(key, ' ')
	}
	return a.appendValue(append(append(key, a.key...), '='), sc)
}

// axis is one axis of a defaulted spec: its declaration, its values (the
// held value alone when not swept) and its stride through the expansion.
type axis struct {
	def    *axisDef
	values []string
	swept  bool
	stride int
}

// axes reads every axis of the defaulted spec, in axisTable order.
func (s *Spec) axes() []axis {
	ax := make([]axis, len(axisTable))
	for i := range axisTable {
		d := &axisTable[i]
		var vs []string
		switch p := d.values(&s.Axes).(type) {
		case *[]string:
			vs = *p
		case *[]float64:
			for _, v := range *p {
				vs = append(vs, strconv.FormatFloat(v, 'g', -1, 64))
			}
		case *[]int:
			for _, v := range *p {
				vs = append(vs, strconv.Itoa(v))
			}
		}
		ax[i] = axis{def: d, values: vs, swept: true}
		if len(vs) == 0 {
			held := d.base
			if d.held != nil {
				held = d.held(s)
			}
			ax[i].values, ax[i].swept = []string{held}, false
		}
	}
	return ax
}

// Expand turns the spec into its concrete scenario list. The first
// scenario is always the baseline. Every axis value is validated here, so
// a bad spec fails before any simulation runs.
func (s Spec) Expand() ([]Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	ax := s.axes()

	// Grid mode varies the last axis fastest; list mode zips the axes,
	// broadcasting single values.
	n := 1
	switch s.Mode {
	case ModeGrid:
		for i := len(ax) - 1; i >= 0; i-- {
			ax[i].stride = n
			if n *= len(ax[i].values); n > s.MaxScenarios {
				return nil, fmt.Errorf("scenario: expansion exceeds %d scenarios (cartesian explosion guard; raise max_scenarios to override)",
					s.MaxScenarios)
			}
		}
	case ModeList:
		for i := range ax {
			ax[i].stride = 1
			switch k := len(ax[i].values); {
			case k == 1:
			case n == 1:
				n = k
			case k != n:
				return nil, fmt.Errorf("scenario: list mode needs equal axis lengths, got %d and %d", n, k)
			}
		}
		if n > s.MaxScenarios {
			return nil, fmt.Errorf("scenario: expansion exceeds %d scenarios (raise max_scenarios to override)",
				s.MaxScenarios)
		}
	}
	// Check every value once, by applying it to a scratch configuration.
	scratch := &build{spec: s}
	scratch.cfg.Facility.CPU = cpu.EPYC7742()
	for _, a := range ax {
		for _, v := range a.values {
			if err := a.def.apply(scratch, v); err != nil {
				return nil, err
			}
		}
	}

	out := make([]Scenario, n)
	var name []byte
	for i := range out {
		sc := &out[i]
		sc.Index = i
		name = name[:0]
		for _, a := range ax {
			v := a.values[i/a.stride%len(a.values)]
			a.def.store(sc, v)
			if a.swept {
				name = a.def.term(name, sc)
			}
		}
		sc.Name = string(name)
		if sc.Name == "" {
			sc.Name = "baseline"
		}
	}
	return out, nil
}

// parseFrequency resolves a frequency axis value against spec.
func parseFrequency(spec *cpu.Spec, v string) (cpu.FreqSetting, error) {
	switch v {
	case "stock", "":
		return spec.DefaultSetting(), nil
	case "capped":
		return spec.CappedSetting(), nil
	}
	str := v
	boost := false
	if strings.HasSuffix(str, "+boost") {
		boost = true
		str = strings.TrimSuffix(str, "+boost")
	}
	str = strings.TrimSuffix(str, "GHz")
	ghz, err := strconv.ParseFloat(str, 64)
	if err != nil {
		return cpu.FreqSetting{}, fmt.Errorf("scenario: invalid frequency %q (want \"stock\", \"capped\" or e.g. \"2.0GHz\")", v)
	}
	fs := cpu.FreqSetting{Base: units.Gigahertz(ghz), Boost: boost}
	if err := spec.ValidateSetting(fs); err != nil {
		return cpu.FreqSetting{}, fmt.Errorf("scenario: frequency %q: %w", v, err)
	}
	return fs, nil
}

// parseScheduler sets the backfill depth a scheduler axis value names.
func parseScheduler(b *build, v string) error {
	switch v {
	case "backfill", "":
		b.cfg.Sched.BackfillDepth = 64
	case "fcfs":
		b.cfg.Sched.BackfillDepth = 0
	default:
		rest, ok := strings.CutPrefix(v, "backfill=")
		n, err := strconv.Atoi(rest)
		if !ok || err != nil || n < 0 {
			return fmt.Errorf("scenario: invalid scheduler %q (want \"backfill\", \"fcfs\" or \"backfill=N\")", v)
		}
		b.cfg.Sched.BackfillDepth = n
	}
	return nil
}

// parseWorkload sets the fleet build variant a workload axis value names
// ("base" keeps the calibrated mix).
// Variants are matched by name rather than position, so reordering or
// extending apps.CommonVariants fails loudly here instead of silently
// selecting the wrong build.
func parseWorkload(b *build, v string) error {
	switch v {
	case "base", "":
		return nil
	case "portable", "production", "simd":
		for _, c := range apps.CommonVariants() {
			if strings.Contains(strings.ToLower(c.Name), v) {
				b.cfg.FleetVariant = &c
				return nil
			}
		}
		return fmt.Errorf("scenario: workload %q has no matching variant in apps.CommonVariants", v)
	}
	return fmt.Errorf("scenario: invalid workload %q (want \"base\", \"portable\", \"production\" or \"simd\")", v)
}

// sweepStart is the fixed calendar anchor for sweep runs (the paper's
// operational year); scenarios differ by axes, never by date.
var sweepStart = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// divergeTime is the absolute virtual time of the mid-sweep divergence
// point (meaningful only when the mid_frequency axis is swept).
func (s Spec) divergeTime() time.Time {
	return sweepStart.AddDate(0, 0, s.withDefaults().DivergeDay)
}

// simKey is the canonical label of the axes that change the simulation,
// each placed by its seed role in axisTable. Scenario seeds derive from
// it rather than from the full name, so scenarios that differ only in
// grid mix share one stream of common random numbers and their emissions
// delta isolates the grid change. Branch scenarios of the mid_frequency
// axis keep their family's seed, so they share the exact history up to
// the divergence point and the runner can simulate that prefix once and
// fork it. Use runKey where distinct results, not seeds, must differ.
func (sc *Scenario) simKey() string {
	key := make([]byte, 0, 128)
	for i := range axisTable {
		a := &axisTable[i]
		if a.seed == seedAlways || a.seed == seedOffBaseline && !a.atBaseline(sc) {
			key = a.term(key, sc)
		}
		// Carbon-aware terms qualify the policy term, so they follow it.
		if a.key == carbonKey && !a.atBaseline(sc) {
			for j := range axisTable {
				if axisTable[j].seed == seedCarbonAware {
					key = axisTable[j].term(key, sc)
				}
			}
		}
	}
	return string(key)
}

// midActive reports whether the scenario actually diverges mid-sweep.
func (sc *Scenario) midActive() bool {
	return sc.MidFrequency != "" && sc.MidFrequency != MidNone
}

// runKey identifies the scenario's simulation *results*: simKey plus the
// mid-sweep divergence. Scenarios sharing a runKey produce byte-identical
// simulations; scenarios sharing only a simKey share their seed and
// prefix but diverge at DivergeDay.
func (sc *Scenario) runKey() string {
	if !sc.midActive() {
		return sc.simKey()
	}
	return sc.simKey() + " mid=" + sc.MidFrequency
}

// counterpartKey labels the scenario by every axis except carbon_policy:
// scenarios sharing it differ only in their temporal policy.
func (sc *Scenario) counterpartKey() string {
	var key []byte
	for i := range axisTable {
		if a := &axisTable[i]; a.key != carbonKey {
			key = a.term(key, sc)
		}
	}
	return string(key)
}

// BuildConfig materialises the scenario into a runnable core.Config plus
// the grid intensity model for its emissions accounting. The scenario's
// seed is derived from the spec seed and the scenario's simulation axes
// only (see simKey), so the configuration is independent of expansion
// order, axis ordering and worker scheduling.
func (sc Scenario) BuildConfig(s Spec) (core.Config, grid.IntensityModel, error) {
	b := &build{sc: sc, spec: s.withDefaults(), gm: grid.GB2022().Scaled(sc.GridMean)}
	s = b.spec
	b.cfg = core.ScaledConfig(sc.Nodes, sweepStart, s.Days)
	b.cfg.Seed = rng.DeriveSeed(s.Seed, "scenario/"+b.sc.simKey())
	for i := range axisTable {
		// The numeric axes, grid mean and nodes, shaped the intensity
		// model and the scaled config above.
		a := &axisTable[i]
		if v, ok := a.field(&b.sc).(*string); ok {
			if err := a.apply(b, *v); err != nil {
				return core.Config{}, grid.IntensityModel{}, err
			}
		}
	}
	b.cfg.Sched.AgingHours = s.PriorityAgingHours
	if s.OverSubscription > 0 {
		b.cfg.OverSubscription = s.OverSubscription
	}
	b.cfg.Windows = []core.Window{{
		Label: "measure",
		From:  sweepStart.AddDate(0, 0, s.warmupDays()),
		To:    sweepStart.AddDate(0, 0, s.Days),
	}}
	return b.cfg, b.gm, nil
}
