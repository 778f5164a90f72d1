// Temporal scheduling policies: the carbon-aware "when to start" layer of
// the scheduler. The paper's §2 analysis shows that once the grid swings
// between the <30 and >100 gCO2/kWh bands, moving flexible work into
// low-intensity windows changes total emissions as much as any operating
// point does; these policies are the scheduler-side mechanism for that.
//
// A TemporalPolicy is consulted whenever a job is otherwise startable
// (nodes free, power cap clear). It may start the job, defer it without
// blocking (the job is parked in the held list and the queue behind it
// proceeds — used for delay-flexible shifting), or defer it blocking
// (admission as a whole is throttled — used for the carbon-budget
// throttle). A nil policy is the greedy FCFS baseline and leaves the
// scheduler's behaviour byte-identical to a build without this layer.
//
// Determinism: policies draw no randomness at decision time. Flexibility
// is a pure hash of the job ID (rng.DeriveSeed), and forecast queries are
// pure functions of (issue, target) — see the forecast package — so runs
// are reproducible at any worker count.
package sched

import (
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/forecast"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/units"
)

// TemporalDecision is a temporal policy's verdict on a start candidate.
type TemporalDecision struct {
	// Start allows the job to start now.
	Start bool
	// Block, when deferring, stops all admission (head-of-queue blocks)
	// instead of parking just this job.
	Block bool
	// Recheck is when to re-evaluate a deferred job (zero means on the
	// next scheduling event only).
	Recheck time.Time
}

// TemporalPolicy decides whether an otherwise-startable job may start
// now. committed is the scheduler's current busy-power estimate and
// jobPower the candidate's estimated draw, so budget-style policies can
// throttle on projected totals.
type TemporalPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide is called at most once per job per scheduling pass.
	Decide(j *Job, now time.Time, committed, jobPower units.Power) TemporalDecision
}

// DelayFlexiblePolicy parks flexible jobs until a low-carbon window: when
// the current intensity is above Threshold, a flexible job is deferred to
// the forecast-optimal start within its delay allowance instead of
// starting immediately. Inflexible jobs, and any job whose allowance has
// run out, start unconditionally, bounding the worst-case added wait by
// MaxDelay.
type DelayFlexiblePolicy struct {
	// Forecast supplies intensity forecasts (required).
	Forecast *forecast.Forecaster
	// Threshold is the intensity below which "now" is good enough and no
	// delay is considered.
	Threshold units.CarbonIntensity
	// MaxDelay bounds the added wait per job, measured from submission.
	MaxDelay time.Duration
	// FlexibleShare is the fraction of jobs eligible for delaying,
	// selected by a deterministic hash of the job ID.
	FlexibleShare float64
	// Seed decorrelates the flexibility hash between experiments.
	Seed uint64
}

// Name implements TemporalPolicy.
func (p *DelayFlexiblePolicy) Name() string { return "delay-flexible" }

// Flexible reports whether the job is delay-eligible under this policy:
// a pure hash of the job ID against FlexibleShare, independent of call
// order and of every random stream the simulation consumes.
func (p *DelayFlexiblePolicy) Flexible(id int) bool {
	if p.FlexibleShare >= 1 {
		return true
	}
	if p.FlexibleShare <= 0 {
		return false
	}
	h := rng.DeriveSeed(p.Seed, fmt.Sprintf("flex/%d", id))
	return float64(h>>11)/(1<<53) < p.FlexibleShare
}

// Decide implements TemporalPolicy.
func (p *DelayFlexiblePolicy) Decide(j *Job, now time.Time, _, _ units.Power) TemporalDecision {
	deadline := j.Submit.Add(p.MaxDelay)
	if !p.Flexible(j.Spec.ID) || !now.Before(deadline) {
		return TemporalDecision{Start: true}
	}
	ci, ok := p.Forecast.Now(now)
	if !ok || ci.GramsPerKWh() <= p.Threshold.GramsPerKWh() {
		return TemporalDecision{Start: true}
	}
	best, bestCI, ok := p.Forecast.BestStart(now, deadline.Sub(now), j.Spec.RefRuntime)
	if !ok || !best.After(now) || bestCI.GramsPerKWh() >= ci.GramsPerKWh() {
		// No forecast window beats starting now.
		return TemporalDecision{Start: true}
	}
	return TemporalDecision{Recheck: best}
}

// CarbonBudgetPolicy is a rolling carbon-budget throttle: a job may start
// only while the projected carbon burn rate — committed busy power plus
// the candidate's draw, times the current grid intensity — stays within
// BudgetPerHour. Over budget, admission blocks as a whole (like the
// power cap, but denominated in gCO2e/h, so the same budget admits more
// work on a cleaner grid) and is re-evaluated every forecast step.
type CarbonBudgetPolicy struct {
	// Forecast supplies the current intensity (required).
	Forecast *forecast.Forecaster
	// BudgetPerHour is the admissible carbon burn rate.
	BudgetPerHour units.Mass
}

// Name implements TemporalPolicy.
func (p *CarbonBudgetPolicy) Name() string { return "carbon-budget" }

// BurnRate returns the carbon burn rate of drawing `power` at the
// intensity in force at t (zero when the trace has no value yet).
func (p *CarbonBudgetPolicy) BurnRate(power units.Power, t time.Time) units.Mass {
	ci, ok := p.Forecast.Now(t)
	if !ok {
		return 0
	}
	return units.Grams(power.Kilowatts() * ci.GramsPerKWh())
}

// Decide implements TemporalPolicy.
func (p *CarbonBudgetPolicy) Decide(j *Job, now time.Time, committed, jobPower units.Power) TemporalDecision {
	if p.BudgetPerHour.Grams() <= 0 {
		return TemporalDecision{Start: true}
	}
	projected := p.BurnRate(committed+jobPower, now)
	if projected.Grams() <= p.BudgetPerHour.Grams() {
		return TemporalDecision{Start: true}
	}
	// Over budget: block admission and re-evaluate when the intensity
	// next changes (one trace step) — finishes also retrigger scheduling.
	return TemporalDecision{Block: true, Recheck: now.Add(p.Forecast.Step())}
}
