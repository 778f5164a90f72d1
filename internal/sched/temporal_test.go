package sched

import (
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/forecast"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

// squareTrace builds an intensity trace alternating high/low every
// `period`, starting high at t0, for `days` days at 30-minute steps.
func squareTrace(days int, period time.Duration, high, low float64) *timeseries.Series {
	s := timeseries.New("ci", "gCO2/kWh", 30*time.Minute, 0)
	end := t0.AddDate(0, 0, days)
	for ts := t0; ts.Before(end); ts = ts.Add(30 * time.Minute) {
		v := high
		if (ts.Sub(t0)/period)%2 == 1 {
			v = low
		}
		s.MustAppend(ts, v)
	}
	return s
}

func mustForecaster(t *testing.T, tr *timeseries.Series, em forecast.ErrorModel) *forecast.Forecaster {
	t.Helper()
	f, err := forecast.New(tr, em)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// greedyPolicy starts every job as soon as resources allow.
type greedyPolicy struct{}

func (greedyPolicy) Name() string { return "greedy" }

func (greedyPolicy) Decide(*Job, time.Time, units.Power, units.Power) TemporalDecision {
	return TemporalDecision{Start: true}
}

// A policy that always starts must be behaviourally identical to no
// policy at all: same starts, same stats, no holds.
func TestGreedyPolicyMatchesNilPolicy(t *testing.T) {
	run := func(cfg Config) Stats {
		r := newRig(t, 16, cfg)
		for i := 0; i < 12; i++ {
			r.s.Submit(r.spec(i, 4, 2*time.Hour))
		}
		r.eng.Run()
		return r.s.Stats()
	}
	nilStats := run(Config{BackfillDepth: 8, MaxQueue: 100})
	greedy := run(Config{BackfillDepth: 8, MaxQueue: 100, Temporal: greedyPolicy{}})
	if nilStats != greedy {
		t.Errorf("greedy policy diverged from nil policy:\n%+v\nvs\n%+v", nilStats, greedy)
	}
	if greedy.Holds != 0 || greedy.HoldDelay != 0 {
		t.Errorf("greedy policy held jobs: %+v", greedy)
	}
}

// Delay-flexible must park flexible jobs submitted in a high-carbon
// window and start them in the next low-carbon window.
func TestDelayFlexibleShiftsIntoLowWindow(t *testing.T) {
	// 6-hour high/low square wave: high at t0, low from +6h.
	tr := squareTrace(2, 6*time.Hour, 300, 40)
	pol := &DelayFlexiblePolicy{
		Forecast:      mustForecaster(t, tr, forecast.ErrorModel{}),
		Threshold:     units.GramsPerKWh(100),
		MaxDelay:      12 * time.Hour,
		FlexibleShare: 1, // every job is flexible
	}
	r := newRig(t, 16, Config{BackfillDepth: 8, MaxQueue: 100, Temporal: pol})
	jobs := make([]*Job, 4)
	for i := range jobs {
		jobs[i] = r.s.Submit(r.spec(i, 4, time.Hour))
	}
	if r.s.BusyNodes() != 0 {
		t.Fatalf("jobs started during the high-carbon window (busy=%d)", r.s.BusyNodes())
	}
	if r.s.HeldJobs() != 4 {
		t.Fatalf("held %d jobs, want 4", r.s.HeldJobs())
	}
	r.eng.Run()
	st := r.s.Stats()
	if st.Completed != 4 {
		t.Fatalf("completed %d jobs, want 4: %+v", st.Completed, st)
	}
	if st.Holds == 0 || st.HoldDelay == 0 {
		t.Fatalf("no holds recorded: %+v", st)
	}
	lowStart := t0.Add(6 * time.Hour)
	for i, j := range jobs {
		if j.Start.Before(lowStart) {
			t.Errorf("job %d started at %v, before the low-carbon window at %v",
				i, j.Start, lowStart)
		}
	}
}

// An inflexible job (share 0) must start immediately even in a
// high-carbon window, and a flexible job past its delay allowance must
// start too (the policy bounds worst-case added wait).
func TestDelayFlexibleBounds(t *testing.T) {
	tr := squareTrace(3, 36*time.Hour, 300, 40) // high for the first 36h
	fc := mustForecaster(t, tr, forecast.ErrorModel{})

	inflex := &DelayFlexiblePolicy{Forecast: fc, Threshold: units.GramsPerKWh(100), MaxDelay: 12 * time.Hour}
	r := newRig(t, 16, Config{BackfillDepth: 8, MaxQueue: 100, Temporal: inflex})
	if j := r.s.Submit(r.spec(1, 4, time.Hour)); j.State != Running {
		t.Fatalf("inflexible job deferred: %v", j.State)
	}

	// Flexible, but the whole 12h allowance is inside the high window and
	// the forecast shows no better start: the job must run, not park.
	flex := &DelayFlexiblePolicy{Forecast: fc, Threshold: units.GramsPerKWh(100),
		MaxDelay: 12 * time.Hour, FlexibleShare: 1}
	r2 := newRig(t, 16, Config{BackfillDepth: 8, MaxQueue: 100, Temporal: flex})
	j := r2.s.Submit(r2.spec(1, 4, time.Hour))
	r2.eng.Run()
	if j.State != Completed {
		t.Fatalf("flexible job never ran: %v", j.State)
	}
	if got := j.WaitTime(); got > 12*time.Hour {
		t.Errorf("added wait %v exceeds the 12h allowance", got)
	}
}

// The satellite property test: with a zero-error forecast, every policy
// decision — and therefore the entire simulation outcome — is identical
// to a perfect-information run.
func TestZeroErrorForecastMatchesPerfectInformation(t *testing.T) {
	tr := squareTrace(3, 6*time.Hour, 250, 30)
	run := func(em forecast.ErrorModel) ([]time.Time, Stats) {
		fc := mustForecaster(t, tr, em)
		pol := &DelayFlexiblePolicy{Forecast: fc, Threshold: units.GramsPerKWh(100),
			MaxDelay: 10 * time.Hour, FlexibleShare: 0.7, Seed: 11}
		r := newRig(t, 16, Config{BackfillDepth: 8, MaxQueue: 100, Temporal: pol})
		var jobs []*Job
		for i := 0; i < 20; i++ {
			jobs = append(jobs, r.s.Submit(r.spec(i, 2+i%4, time.Duration(1+i%3)*time.Hour)))
		}
		r.eng.Run()
		starts := make([]time.Time, len(jobs))
		for i, j := range jobs {
			starts[i] = j.Start
		}
		return starts, r.s.Stats()
	}
	zeroStarts, zeroStats := run(forecast.ErrorModel{Seed: 99}) // zero sigmas, seed irrelevant
	perfStarts, perfStats := run(forecast.ErrorModel{})
	for i := range zeroStarts {
		if !zeroStarts[i].Equal(perfStarts[i]) {
			t.Fatalf("job %d start differs: zero-error %v vs perfect %v",
				i, zeroStarts[i], perfStarts[i])
		}
	}
	if zeroStats != perfStats {
		t.Fatalf("stats differ:\n%+v\nvs\n%+v", zeroStats, perfStats)
	}

	// And a noisy forecast must actually change decisions somewhere —
	// otherwise the property above is vacuous.
	noisyStarts, _ := run(forecast.ErrorModel{Sigma0: 120, GrowthPerSqrtHour: 60, Seed: 2})
	same := true
	for i := range noisyStarts {
		if !noisyStarts[i].Equal(perfStarts[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("a heavily noisy forecast changed no decision; error model not wired through")
	}
}

// The carbon-budget throttle must keep the projected burn rate under
// budget: with a budget sized for half the fleet, only about half the
// nodes may run during the high-intensity phase, and admission recovers
// in the low phase.
func TestCarbonBudgetThrottle(t *testing.T) {
	tr := squareTrace(2, 6*time.Hour, 200, 20)
	fc := mustForecaster(t, tr, forecast.ErrorModel{})

	// Measure the unthrottled committed power of the full 16-node fleet.
	probe := newRig(t, 16, Config{BackfillDepth: 8, MaxQueue: 100})
	for i := 0; i < 4; i++ {
		probe.s.Submit(probe.spec(i, 4, 8*time.Hour))
	}
	fullKW := probe.s.EstimatedBusyPower().Kilowatts()

	// Budget: half the full-fleet burn at 200 g/kWh.
	budget := units.Grams(fullKW / 2 * 200)
	pol := &CarbonBudgetPolicy{Forecast: fc, BudgetPerHour: budget}
	r := newRig(t, 16, Config{BackfillDepth: 8, MaxQueue: 100, Temporal: pol})
	jobs := make([]*Job, 4)
	for i := range jobs {
		jobs[i] = r.s.Submit(r.spec(i, 4, 8*time.Hour))
	}
	if got := r.s.EstimatedBusyPower().Kilowatts(); got > fullKW/2*1.01 {
		t.Fatalf("throttle admitted %v kW, budget allows ~%v", got, fullKW/2)
	}
	burn := pol.BurnRate(r.s.EstimatedBusyPower(), t0)
	if burn.Grams() > budget.Grams() {
		t.Fatalf("burn rate %v over budget %v", burn, budget)
	}
	if r.s.BusyNodes() == 0 {
		t.Fatal("throttle blocked everything; budget should admit some work")
	}
	// At +6h the grid drops to 20 g/kWh: the same budget admits the rest.
	r.eng.RunUntil(t0.Add(7 * time.Hour))
	if r.s.BusyNodes() != 16 {
		t.Errorf("clean-grid window did not unthrottle: busy=%d want 16", r.s.BusyNodes())
	}
	r.eng.Run()
	if st := r.s.Stats(); st.Completed != 4 {
		t.Errorf("completed %d, want 4: %+v", st.Completed, st)
	}
}
