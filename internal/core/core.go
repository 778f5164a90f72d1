// Package core is the public face of the ARCHER2 digital twin: it wires
// the facility hardware model, workload generator, batch scheduler,
// telemetry pipeline and operational-policy timeline onto one
// discrete-event engine, replays the paper's Dec 2021 - Dec 2022
// operational history, and reports the measurement-window means behind
// the paper's Figures 1-3 together with scheduler and energy accounting.
//
// Typical use:
//
//	sim, err := core.NewSimulator(core.DefaultConfig())
//	...
//	res, err := sim.Run()
//	w, _ := res.WindowByLabel("figure1-baseline")
//	fmt.Println(w.MeanPower) // ~3.22 MW, the paper's Figure 1 mean
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/forecast"
	"github.com/greenhpc/archertwin/internal/grid"
	"github.com/greenhpc/archertwin/internal/policy"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/sched"
	"github.com/greenhpc/archertwin/internal/telemetry"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
	"github.com/greenhpc/archertwin/internal/workload"
)

// Window is a measurement window [From, To) with a label.
type Window struct {
	Label string
	From  time.Time
	To    time.Time
}

// Config parameterises a full timeline simulation.
type Config struct {
	Seed uint64

	Facility facility.Config
	Sched    sched.Config
	Policy   policy.Config
	Meter    telemetry.MeterConfig

	// Timeline holds the dated operational changes.
	Timeline policy.Timeline

	// BusyNodeTarget is the mean busy-node power the fleet mix is
	// calibrated to at the pre-change operating point. 505 W reproduces
	// the paper's 3,220 kW cabinet baseline at the ~99% utilisation the
	// saturated backfilling scheduler achieves (the realised job mix runs
	// slightly hotter than the configured shares because backfill favours
	// small jobs; the target absorbs that bias).
	BusyNodeTarget units.Power
	// OverSubscription is offered load relative to capacity; >1 keeps the
	// queue saturated like the real service.
	OverSubscription float64
	// MaxJobNodes caps single-job size (0 = the workload default, 1024).
	// Scaled-down facilities must scale this too or large jobs fragment
	// the node pool and depress utilisation.
	MaxJobNodes int

	// Priorities, when non-empty, assigns each generated job a
	// scheduling priority from these classes, by a pure hash of the job
	// ID under a seed derived from Seed (the workload stream is
	// untouched, so the job shapes and arrival times stay bit-identical
	// to a run without priorities). Empty leaves every job at priority
	// zero. See sched.Config for the queue ordering, aging and
	// preemption knobs the priorities feed.
	Priorities []workload.PriorityClass

	Start time.Time
	End   time.Time

	// Windows are the measurement windows evaluated in Results, in
	// chronological order.
	Windows []Window

	// JobLog retains every finished job's accounting record in
	// Results.JobLog (sacct-style).
	JobLog bool

	// FleetVariant, when non-nil, rebuilds every application in the fleet
	// mix with the given compiler/library variant (paper §5 future work)
	// after power calibration, so the variant's power and performance
	// shifts show up in the fleet figures instead of being absorbed by the
	// busy-power calibration.
	FleetVariant *apps.Variant

	// PerfModel selects the frequency-response implementation for the
	// fleet mix: "" or "kernel" is the scalar roofline kernel (the
	// default, byte-identical to the pre-PerfModel behaviour); "table"
	// attaches the measured operating-point tables
	// (roofline.ARCHER2Tables) to every mix application, interpolated at
	// lookup time. Applied after calibration and any FleetVariant, so the
	// table governs frequency response while power activity stays
	// calibrated.
	PerfModel string

	// Surrogate, when non-nil, models an AI-surrogate deployment: the
	// covered fleet class's runtime distribution shrinks by the covered
	// share at the surrogate's speedup (the class still runs its
	// uncovered fraction at full length). Training-energy amortisation is
	// accounted out of band — see apps.Surrogate and the ai-surrogate
	// example.
	Surrogate *SurrogateConfig

	// Carbon, when non-nil, makes the simulation carbon-aware: a grid
	// carbon-intensity trace is generated over the run, a forecaster is
	// built on it, and (if NewPolicy is set) a temporal scheduling policy
	// is installed in the scheduler. The trace is recorded in
	// Results.CarbonTrace for emissions accounting.
	Carbon *CarbonConfig

	// arrivalRate, when set, installs this already calibrated workload
	// arrival rate instead of re-running the Monte-Carlo calibration
	// estimate. Only Fork sets it (from the snapshot, where the parent
	// recorded the rate it calibrated from the identical configuration):
	// the estimate is the single most expensive construction step, and
	// paying it once per branch would eat the fork path's advantage on
	// small configs.
	arrivalRate float64
}

// SurrogateConfig scales one fleet class's runtime distribution for an
// AI-surrogate deployment: a CoveredFraction share of the class's work
// completes Speedup times faster.
type SurrogateConfig struct {
	// Class names the fleet class the surrogate covers (e.g.
	// "climate-ocean").
	Class string
	// Speedup is the surrogate inference speedup over the full solver
	// (> 1).
	Speedup float64
	// CoveredFraction is the share of the class's runs the surrogate
	// replaces, in (0, 1].
	CoveredFraction float64
}

// Validate checks the surrogate parameters.
func (sc *SurrogateConfig) Validate() error {
	if sc.Class == "" {
		return fmt.Errorf("core: surrogate has no class")
	}
	if sc.Speedup <= 1 {
		return fmt.Errorf("core: surrogate speedup %v must exceed 1", sc.Speedup)
	}
	if sc.CoveredFraction <= 0 || sc.CoveredFraction > 1 {
		return fmt.Errorf("core: surrogate covered fraction %v outside (0, 1]", sc.CoveredFraction)
	}
	return nil
}

// runtimeFactor is the mean runtime scaling the surrogate induces on its
// class.
func (sc *SurrogateConfig) runtimeFactor() float64 {
	return 1 - sc.CoveredFraction + sc.CoveredFraction/sc.Speedup
}

// CarbonConfig connects the grid's carbon intensity to the scheduler.
type CarbonConfig struct {
	// Model generates the intensity trace the run lives under.
	Model grid.IntensityModel
	// TraceSeed seeds the trace's stochastic wind term. Scenario sweeps
	// derive it from the sweep seed only (rng.DeriveSeed(seed,
	// "grid-trace")) so every scenario of a sweep shares one weather
	// realisation — common random numbers across the carbon axis.
	TraceSeed uint64
	// Error is the forecast error model (zero = perfect information).
	Error forecast.ErrorModel
	// NewPolicy, when set, builds the temporal scheduling policy over the
	// run's forecaster; the result is installed as Config.Sched.Temporal.
	NewPolicy func(*forecast.Forecaster) sched.TemporalPolicy
}

// carbonStep is the carbon trace and forecast granularity: the GB
// settlement period.
const carbonStep = 30 * time.Minute

// Trace generates the carbon-intensity series for [from, to) — the same
// series the simulator sees, so out-of-band accounting (the scenario
// runner) and in-simulation forecasting always agree.
func (c *CarbonConfig) Trace(from, to time.Time) (*timeseries.Series, error) {
	return c.Model.Trace(from, to, carbonStep, rng.New(c.TraceSeed))
}

// Traces generates, in one pass (grid.Traces), the series Trace would
// for each of models in place of c.Model: c's seed and step under every
// grid mix, as a sweep's scenarios see them.
func (c *CarbonConfig) Traces(models []grid.IntensityModel, from, to time.Time) ([]*timeseries.Series, error) {
	return grid.Traces(models, from, to, carbonStep, rng.New(c.TraceSeed))
}

// PaperDates returns the paper's simulation span and measurement windows.
func PaperDates() (start, end time.Time, windows []Window) {
	d := func(y int, m time.Month, day int) time.Time {
		return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
	}
	start = d(2021, 12, 1)
	end = d(2022, 12, 31)
	windows = []Window{
		{Label: "figure1-baseline", From: d(2021, 12, 15), To: d(2022, 4, 30)},
		{Label: "figure2-before", From: d(2022, 4, 1), To: d(2022, 5, 10)},
		{Label: "figure2-after", From: d(2022, 5, 20), To: d(2022, 6, 30)},
		{Label: "figure3-before", From: d(2022, 10, 1), To: d(2022, 11, 25)},
		{Label: "figure3-after", From: d(2022, 12, 5), To: d(2022, 12, 31)},
	}
	return start, end, windows
}

// DefaultConfig returns the full ARCHER2 reproduction configuration.
//
// Note on overrides: the per-application module overrides are disabled in
// the default timeline reproduction. The paper's Figure 3 shows the full
// 480 kW reduction from the frequency change; the module overrides were
// a subsequent refinement, and their effect is studied separately as an
// ablation (see BenchmarkAblationOverrides).
func DefaultConfig() Config {
	start, end, windows := PaperDates()
	fc := facility.ARCHER2()
	return Config{
		Seed:             42,
		Facility:         fc,
		Sched:            sched.DefaultConfig(),
		Policy:           policy.Config{OverrideThreshold: 0.10, OverridesEnabled: false},
		Meter:            telemetry.DefaultMeterConfig(),
		Timeline:         policy.ARCHER2Timeline(fc.CPU),
		BusyNodeTarget:   units.Watts(505),
		OverSubscription: 1.10,
		Start:            start,
		End:              end,
		Windows:          windows,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.End.After(c.Start) {
		return fmt.Errorf("core: end %v not after start %v", c.End, c.Start)
	}
	if c.OverSubscription <= 0 {
		return fmt.Errorf("core: oversubscription %v must be positive", c.OverSubscription)
	}
	if c.BusyNodeTarget.Watts() <= 0 {
		return fmt.Errorf("core: busy-node target %v must be positive", c.BusyNodeTarget)
	}
	if c.Meter.Interval <= 0 {
		return fmt.Errorf("core: meter interval %v must be positive", c.Meter.Interval)
	}
	for _, w := range c.Windows {
		if !w.To.After(w.From) {
			return fmt.Errorf("core: window %q empty", w.Label)
		}
	}
	if c.Sched.AgingHours < 0 {
		return fmt.Errorf("core: negative scheduler aging %v", c.Sched.AgingHours)
	}
	if len(c.Priorities) > 0 {
		total := 0.0
		for _, pc := range c.Priorities {
			if pc.Share < 0 {
				return fmt.Errorf("core: negative priority share %v", pc.Share)
			}
			total += pc.Share
		}
		if total <= 0 {
			return fmt.Errorf("core: priority shares sum to zero")
		}
	}
	if c.Carbon != nil {
		if err := c.Carbon.Model.Validate(); err != nil {
			return err
		}
		if err := c.Carbon.Error.Validate(); err != nil {
			return err
		}
	}
	switch c.PerfModel {
	case "", "kernel", "table":
	default:
		return fmt.Errorf("core: unknown perf model %q", c.PerfModel)
	}
	if c.Surrogate != nil {
		if err := c.Surrogate.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// WindowResult is the twin's measurement over one window.
type WindowResult struct {
	Window      Window
	MeanPower   units.Power
	MeanUtil    float64
	SampleCount int
}

// Results collects everything a timeline run produces.
type Results struct {
	Config Config

	// Power is the cabinet power series in kW (nodes + switches), the
	// twin's equivalent of the paper's PMDB figures, sampled at the
	// meter's fixed interval.
	Power *timeseries.Series
	// Util is the node utilisation series.
	Util *timeseries.Series

	// Windows holds per-window means, in the order of Config.Windows.
	Windows []WindowResult

	// Sched is the scheduler statistics over the whole run.
	Sched sched.Stats
	// Usage is per-class delivered work and energy.
	Usage map[string]telemetry.ClassUsage
	// TotalUsage is the fleet total.
	TotalUsage telemetry.ClassUsage

	// Overrides counts jobs a module override moved off the default
	// setting.
	Overrides int

	// MixScale is the activity scalar applied by the fleet calibration.
	MixScale float64

	// JobLog holds per-job accounting when Config.JobLog is set.
	JobLog *telemetry.JobLog

	// CarbonTrace is the grid carbon-intensity series the run lived under
	// (gCO2/kWh), when Config.Carbon is set. Account it against Power via
	// emissions.AccountTraces to capture the temporal correlation the
	// carbon-aware policies create.
	CarbonTrace *timeseries.Series
}

// WindowByLabel returns the window result with the given label.
func (r *Results) WindowByLabel(label string) (WindowResult, bool) {
	for _, w := range r.Windows {
		if w.Window.Label == label {
			return w, true
		}
	}
	return WindowResult{}, false
}

// Simulator is a wired, ready-to-run timeline simulation.
type Simulator struct {
	cfg Config

	eng        *des.Engine
	fac        *facility.Facility
	gen        *workload.Generator
	provider   *policy.Provider
	sch        *sched.Scheduler
	meter      *telemetry.Meter
	accountant *telemetry.Accountant
	jobLog     *telemetry.JobLog
	mixScale   float64

	carbonTrace *timeseries.Series

	// pumpEvent is the arrival pump's event callback, created once so the
	// O(100k) arrivals of a run do not allocate a closure each. The pending
	// pump event is tracked (time, handle) so a checkpoint can capture it
	// and a fork can resume the arrival process mid-stream.
	pumpEvent   des.Event
	pumpAt      time.Time
	pumpHandle  des.Handle
	pumpPending bool

	ran bool
}

// NewSimulator builds and wires a simulation from cfg.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)

	eng := des.NewEngine(cfg.Start)
	fac, err := facility.New(cfg.Facility, root.Split("facility"), cfg.Start)
	if err != nil {
		return nil, err
	}
	spec := cfg.Facility.CPU

	mix, scale, err := apps.CalibrateMixToBusyPower(spec, apps.FleetMix(),
		spec.DefaultSetting(), cpu.PowerDeterminism, cfg.BusyNodeTarget)
	if err != nil {
		return nil, err
	}
	if cfg.FleetVariant != nil {
		for i := range mix {
			va, err := cfg.FleetVariant.Apply(mix[i].App)
			if err != nil {
				return nil, err
			}
			mix[i].App = va
		}
	}
	if cfg.PerfModel == "table" {
		// Attach the measured operating-point tables last, so they
		// govern frequency response on top of whatever calibration and
		// variant produced. Each app is copied: the calibrated mix may be
		// shared with other configs.
		tables, err := roofline.ARCHER2Tables()
		if err != nil {
			return nil, err
		}
		for i := range mix {
			tbl, ok := tables[mix[i].App.Name]
			if !ok {
				return nil, fmt.Errorf("core: no measured table for application %q", mix[i].App.Name)
			}
			a := *mix[i].App
			a.Perf = tbl
			mix[i].App = &a
		}
	}
	wcfg, err := workload.DefaultConfig(mix)
	if err != nil {
		return nil, err
	}
	if cfg.MaxJobNodes > 0 {
		wcfg.MaxJobNodes = cfg.MaxJobNodes
	}
	if cfg.Surrogate != nil {
		if err := applySurrogate(&wcfg, cfg.Surrogate); err != nil {
			return nil, err
		}
	}
	if len(cfg.Priorities) > 0 {
		wcfg.Priorities = append([]workload.PriorityClass(nil), cfg.Priorities...)
		wcfg.PrioritySeed = rng.DeriveSeed(cfg.Seed, "workload-priority")
	}
	if len(cfg.Facility.Partitions) > 0 {
		// Route jobs to partitions proportionally to partition size, with
		// each extra partition capping its jobs at its own node count.
		// Like priorities, the routing hash is seeded separately from the
		// arrival stream, so the generated job shapes stay bit-identical
		// to a homogeneous run.
		parts := fac.Partitions()
		total := fac.NodeCount()
		shares := make([]workload.PartitionShare, len(parts))
		for i, p := range parts {
			ps := workload.PartitionShare{Index: i, Share: float64(p.Nodes) / float64(total)}
			if i > 0 {
				ps.MaxJobNodes = p.Nodes
			}
			shares[i] = ps
		}
		wcfg.Partitions = shares
		wcfg.PartitionSeed = rng.DeriveSeed(cfg.Seed, "workload-partition")
	}
	gen, err := workload.NewGenerator(wcfg, root.Split("workload"))
	if err != nil {
		return nil, err
	}
	if cfg.arrivalRate > 0 {
		err = gen.SetArrivalRate(cfg.arrivalRate)
	} else {
		err = gen.CalibrateArrivalRate(fac.NodeCount(), cfg.OverSubscription)
	}
	if err != nil {
		return nil, err
	}

	provider, err := policy.NewProvider(spec, cfg.Policy)
	if err != nil {
		return nil, err
	}
	var carbonTrace *timeseries.Series
	if cfg.Carbon != nil {
		carbonTrace, err = cfg.Carbon.Trace(cfg.Start, cfg.End)
		if err != nil {
			return nil, err
		}
		if cfg.Carbon.NewPolicy != nil {
			fc, err := forecast.New(carbonTrace, cfg.Carbon.Error)
			if err != nil {
				return nil, err
			}
			cfg.Sched.Temporal = cfg.Carbon.NewPolicy(fc)
		}
	}
	// The simulator owns every job it submits: the arrival pump discards
	// the *Job handle and the telemetry consumers (accountant, job log)
	// copy what they keep, so the scheduler is free to recycle Job structs
	// and node-ID slices through its free list instead of allocating
	// ~300k of each over a 13-month run.
	cfg.Sched.ReuseJobs = true
	sch := sched.New(eng, fac, provider, cfg.Sched)
	meter := telemetry.NewMeter(eng, fac, cfg.Meter, cfg.End, root.Split("meter"))
	accountant := telemetry.NewAccountant(sch)
	var jobLog *telemetry.JobLog
	if cfg.JobLog {
		jobLog = telemetry.NewJobLog(sch)
	}

	if err := cfg.Timeline.Schedule(eng, provider); err != nil {
		return nil, err
	}

	s := &Simulator{
		cfg:        cfg,
		eng:        eng,
		fac:        fac,
		gen:        gen,
		provider:   provider,
		sch:        sch,
		meter:      meter,
		accountant: accountant,
		jobLog:     jobLog,
		mixScale:   scale,
	}
	s.carbonTrace = carbonTrace
	// Kick off the arrival pump at the start time.
	s.pumpEvent = func(time.Time) { s.pump() }
	s.schedulePump(cfg.Start)
	return s, nil
}

// applySurrogate shrinks the covered class's runtime median by the
// surrogate's mean runtime factor.
func applySurrogate(wcfg *workload.Config, sc *SurrogateConfig) error {
	for i := range wcfg.Classes {
		if wcfg.Classes[i].Name == sc.Class {
			wcfg.Classes[i].RuntimeMedian = time.Duration(
				float64(wcfg.Classes[i].RuntimeMedian) * sc.runtimeFactor())
			return nil
		}
	}
	return fmt.Errorf("core: surrogate class %q not in the fleet mix", sc.Class)
}

// schedulePump arms the arrival pump at t and records the pending event.
func (s *Simulator) schedulePump(t time.Time) {
	s.pumpAt = t
	s.pumpHandle = s.eng.At(t, s.pumpEvent)
	s.pumpPending = true
}

// pump submits the next job and reschedules itself after the sampled
// interarrival gap.
func (s *Simulator) pump() {
	s.pumpPending = false
	spec, gap := s.gen.Next()
	s.sch.Submit(spec)
	next := s.eng.Now().Add(gap)
	if next.Before(s.cfg.End) {
		s.schedulePump(next)
	}
}

// Facility exposes the underlying facility (for examples and tools).
func (s *Simulator) Facility() *facility.Facility { return s.fac }

// Scheduler exposes the underlying scheduler.
func (s *Simulator) Scheduler() *sched.Scheduler { return s.sch }

// Engine exposes the simulation engine.
func (s *Simulator) Engine() *des.Engine { return s.eng }

// Run executes the timeline to the configured end and gathers results.
// A simulator can only run once.
func (s *Simulator) Run() (*Results, error) {
	return s.RunContext(context.Background())
}

// cancelCheckEvents is how many events RunContext processes between
// context-cancellation checks: coarse enough that the check is invisible
// next to the event work itself (a full run fires millions of events),
// fine enough that a cancelled 13-month simulation stops within
// milliseconds.
const cancelCheckEvents = 16384

// RunContext is Run with cooperative cancellation: the event loop checks
// ctx between chunks of events and abandons the simulation with ctx's
// error once it is cancelled. A context that can never be cancelled (e.g.
// context.Background) runs on the exact uninterrupted path Run always
// used; either way the executed event sequence — and therefore every
// result — is bit-identical.
func (s *Simulator) RunContext(ctx context.Context) (*Results, error) {
	if s.ran {
		return nil, fmt.Errorf("core: simulator already ran")
	}
	s.ran = true
	if ctx.Done() == nil {
		s.eng.RunUntil(s.cfg.End)
	} else {
		for s.eng.StepsBefore(s.cfg.End, cancelCheckEvents) {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: simulation cancelled: %w", err)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: simulation cancelled: %w", err)
		}
		s.eng.RunUntil(s.cfg.End)
	}
	s.fac.AccrueEnergy(s.cfg.End)

	res := &Results{
		Config:      s.cfg,
		Power:       s.meter.Power(),
		Util:        s.meter.Utilisation(),
		Sched:       s.sch.Stats(),
		Usage:       make(map[string]telemetry.ClassUsage),
		TotalUsage:  s.accountant.Total(),
		Overrides:   s.provider.Overrides(),
		MixScale:    s.mixScale,
		JobLog:      s.jobLog,
		CarbonTrace: s.carbonTrace,
	}
	for _, name := range s.accountant.Classes() {
		res.Usage[name] = s.accountant.Class(name)
	}
	power, util := s.meter.Power(), s.meter.Utilisation()
	for _, w := range s.cfg.Windows {
		// MeanBetween sums the window's samples in order — bit-identical
		// to the materialised Slice-then-Mean this replaces, without
		// copying a window of samples per measurement window.
		res.Windows = append(res.Windows, WindowResult{
			Window:      w,
			MeanPower:   units.Kilowatts(power.MeanBetween(w.From, w.To)),
			MeanUtil:    util.MeanBetween(w.From, w.To),
			SampleCount: power.CountBetween(w.From, w.To),
		})
	}
	return res, nil
}

// RunTo advances the simulation to virtual time t without finishing it:
// every event strictly before t fires and the clock stops exactly at t,
// leaving events at t and later pending. The partial run is a prefix of
// the event sequence Run would execute, so following up with Run (or
// another RunTo) produces bit-identical results to an uninterrupted run.
// Between RunTo and the next advance the simulator is quiescent — the
// moment Snapshot captures.
func (s *Simulator) RunTo(t time.Time) error {
	return s.RunToContext(context.Background(), t)
}

// RunToContext is RunTo with cooperative cancellation (see RunContext).
func (s *Simulator) RunToContext(ctx context.Context, t time.Time) error {
	if s.ran {
		return fmt.Errorf("core: simulator already ran")
	}
	if t.Before(s.eng.Now()) {
		return fmt.Errorf("core: RunTo target %v before current time %v", t, s.eng.Now())
	}
	if t.After(s.cfg.End) {
		return fmt.Errorf("core: RunTo target %v after end %v", t, s.cfg.End)
	}
	if ctx.Done() == nil {
		s.eng.RunUntil(t)
		return nil
	}
	for s.eng.StepsBefore(t, cancelCheckEvents) {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: simulation cancelled: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: simulation cancelled: %w", err)
	}
	s.eng.RunUntil(t)
	return nil
}

// RunConfig builds a simulator from cfg and runs it to completion — the
// one-call entry point used by scenario sweeps and quick experiments.
func RunConfig(cfg Config) (*Results, error) {
	return RunConfigContext(context.Background(), cfg)
}

// RunConfigContext is RunConfig with cooperative cancellation (see
// Simulator.RunContext) — the entry point long-lived services use so an
// in-flight simulation stops promptly when its sweep is cancelled.
func RunConfigContext(ctx context.Context, cfg Config) (*Results, error) {
	sim, err := NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx)
}

// ScaledConfig returns DefaultConfig shrunk to `nodes` compute nodes over
// the span [start, start+days), with windows cleared — used by tests,
// examples and quick experiments that do not need the full machine. The
// interconnect and overhead plant are scaled proportionally so per-node
// intuition carries over.
func ScaledConfig(nodes int, start time.Time, days int) Config {
	cfg := DefaultConfig()
	frac := float64(nodes) / float64(cfg.Facility.Nodes)
	cfg.Facility.Nodes = nodes
	sw := int(float64(cfg.Facility.Interconnect.Switches)*frac + 0.5)
	if sw < 1 {
		sw = 1
	}
	cfg.Facility.Interconnect.Switches = sw
	cab := int(float64(cfg.Facility.Cabinets)*frac + 0.5)
	if cab < 1 {
		cab = 1
	}
	cfg.Facility.Cabinets = cab
	cfg.Facility.Cooling.Cabinets = cab
	cfg.MaxJobNodes = nodes / 6
	if cfg.MaxJobNodes < 8 {
		cfg.MaxJobNodes = 8
	}
	cfg.Start = start
	cfg.End = start.AddDate(0, 0, days)
	cfg.Timeline = policy.Timeline{}
	cfg.Windows = nil
	return cfg
}
