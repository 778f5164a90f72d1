// Package forecast provides carbon-intensity forecasts for the temporal
// scheduling policies: a Forecaster wraps a grid carbon-intensity trace
// (see grid.IntensityModel.Trace) and answers "what will the intensity be
// at time T, as seen from time now?" with a tunable error model, so
// carbon-aware policies can be stress-tested against imperfect forecasts
// as well as run with perfect information.
//
// The paper's §2 analysis (Jackson, Simpson & Turner, SC-W 2023) shows
// that below the scope-2/scope-3 crossover intensity, *when* work runs
// matters as much as how it runs; a scheduler can only exploit that with
// a forecast. Real grid forecasts degrade with horizon, so the error
// model draws horizon-growing noise: a nowcast error Sigma0 plus
// GrowthPerSqrtHour·sqrt(h) at horizon h, the scaling of a random-walk
// forecast error.
//
// Determinism contract: a forecast query is a pure function of the trace,
// the error model and the (issue, target) pair — the error draw is hashed
// from the model seed and both timestamps, never from a shared mutable
// stream — so query order, concurrency and unrelated queries cannot
// change any answer, and sweep results stay byte-identical at any worker
// count.
package forecast

import (
	"fmt"
	"math"
	"time"

	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

// ErrorModel parameterises forecast error as a function of horizon. The
// zero value is a perfect forecast (no error, no bias).
type ErrorModel struct {
	// Sigma0 is the standard deviation (gCO2/kWh) of the error at zero
	// horizon — the nowcast error of the intensity feed itself.
	Sigma0 float64
	// GrowthPerSqrtHour grows the standard deviation with the square
	// root of the horizon in hours, the scaling of a random-walk error.
	GrowthPerSqrtHour float64
	// Bias is a constant additive bias (gCO2/kWh), to model a feed that
	// systematically under- or over-estimates.
	Bias float64
	// Seed decorrelates the error draws of independent forecasters.
	Seed uint64
}

// IsPerfect reports whether the model adds no error at any horizon.
func (e ErrorModel) IsPerfect() bool {
	return e.Sigma0 == 0 && e.GrowthPerSqrtHour == 0 && e.Bias == 0
}

// Validate checks the parameters.
func (e ErrorModel) Validate() error {
	if e.Sigma0 < 0 || e.GrowthPerSqrtHour < 0 {
		return fmt.Errorf("forecast: negative error sigma %+v", e)
	}
	return nil
}

// sigma returns the error standard deviation at horizon h (clamped at 0).
func (e ErrorModel) sigma(h time.Duration) float64 {
	if h < 0 {
		h = 0
	}
	return e.Sigma0 + e.GrowthPerSqrtHour*math.Sqrt(h.Hours())
}

// draw returns the deterministic error for a query issued at `issue`
// targeting `target`. The draw is a pure function of (seed, issue,
// target): re-asking the same question always returns the same error.
func (e ErrorModel) draw(issue, target time.Time) float64 {
	if e.IsPerfect() {
		return 0
	}
	s := e.sigma(target.Sub(issue))
	if s == 0 {
		return e.Bias
	}
	label := fmt.Sprintf("forecast/%d/%d", issue.Unix(), target.Unix())
	r := rng.New(rng.DeriveSeed(e.Seed, label))
	return e.Bias + r.Normal(0, s)
}

// Forecaster answers carbon-intensity forecast queries against a trace.
type Forecaster struct {
	trace *timeseries.Series
	em    ErrorModel
}

// New builds a forecaster over a carbon-intensity trace (gCO2/kWh, a
// grid.IntensityModel.Trace output) with the given error model. Window
// searches walk the trace at its sampling step. It returns an error for
// empty traces or invalid models.
func New(trace *timeseries.Series, em ErrorModel) (*Forecaster, error) {
	if err := em.Validate(); err != nil {
		return nil, err
	}
	if trace == nil || trace.Len() == 0 {
		return nil, fmt.Errorf("forecast: empty intensity trace")
	}
	return &Forecaster{trace: trace, em: em}, nil
}

// Step returns the trace sampling step used for window searches.
func (f *Forecaster) Step() time.Duration { return f.trace.Step() }

// At forecasts the intensity at target as seen from issue. ok is false
// when target precedes the trace (no value is in force yet); queries past
// the trace end hold the last value, like any forecast beyond its feed.
// Negative horizons (target before issue) are hindcasts and return the
// true value.
func (f *Forecaster) At(issue, target time.Time) (units.CarbonIntensity, bool) {
	v, ok := f.trace.ValueAt(target)
	if !ok {
		return 0, false
	}
	if !target.After(issue) {
		return units.GramsPerKWh(v), true
	}
	ci := v + f.em.draw(issue, target)
	if ci < 0 {
		ci = 0
	}
	return units.GramsPerKWh(ci), true
}

// Now returns the true intensity in force at t (zero-horizon query).
func (f *Forecaster) Now(t time.Time) (units.CarbonIntensity, bool) {
	return f.At(t, t)
}

// MeanOver returns the forecast mean intensity over [start, start+dur) as
// seen from issue, walking the trace step. ok is false when the window
// has no forecastable samples.
func (f *Forecaster) MeanOver(issue, start time.Time, dur time.Duration) (units.CarbonIntensity, bool) {
	if dur <= 0 {
		dur = f.Step()
	}
	var sum float64
	n := 0
	for t := start; t.Before(start.Add(dur)); t = t.Add(f.Step()) {
		ci, ok := f.At(issue, t)
		if !ok {
			continue
		}
		sum += ci.GramsPerKWh()
		n++
	}
	if n == 0 {
		return 0, false
	}
	return units.GramsPerKWh(sum / float64(n)), true
}

// BestStart returns the start time in [issue, issue+maxDelay] minimising
// the forecast mean intensity over a job of length dur, searched at the
// trace step, together with that forecast mean. Ties resolve to the
// earliest start (least disruption for equal carbon). ok is false when no
// candidate start is forecastable.
func (f *Forecaster) BestStart(issue time.Time, maxDelay, dur time.Duration) (time.Time, units.CarbonIntensity, bool) {
	if maxDelay < 0 {
		maxDelay = 0
	}
	best := issue
	var bestCI units.CarbonIntensity
	found := false
	for t := issue; !t.After(issue.Add(maxDelay)); t = t.Add(f.Step()) {
		ci, ok := f.MeanOver(issue, t, dur)
		if !ok {
			continue
		}
		if !found || ci.GramsPerKWh() < bestCI.GramsPerKWh() {
			best, bestCI, found = t, ci, true
		}
	}
	return best, bestCI, found
}
