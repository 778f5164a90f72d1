// Package emissions implements the paper's §2 emissions accounting for a
// large HPC facility: operational (scope 2) emissions from electricity,
// embodied (scope 3) emissions amortised over the service life, the
// regime classification that drives operational strategy, and the
// emissions-efficiency metrics used to compare operating points.
//
// The paper's qualitative rule, reproduced here as code:
//
//   - scope 3 dominant (grid < 30 gCO2/kWh): maximise application output
//     per node-hour — any performance loss worsens emissions efficiency;
//   - comparable (30-100 gCO2/kWh): balance energy efficiency against
//     application performance;
//   - scope 2 dominant (grid > 100 gCO2/kWh): maximise output per kWh,
//     even at some cost in output per node-hour.
package emissions

import (
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

// Params describes a facility's emissions profile.
type Params struct {
	// Embodied is the total scope-3 emissions of the hardware: manufacture,
	// shipping and decommissioning.
	Embodied units.Mass
	// Lifetime is the service life over which Embodied is amortised.
	Lifetime time.Duration
}

// ARCHER2Defaults returns the calibrated default profile. The paper's
// detailed audit is unpublished; §2 states that in the 30-100 gCO2/kWh
// band scope 2 and scope 3 are roughly equal, which at the facility's
// ~3.5 MW draw and mid-band 65 gCO2/kWh implies ~2 ktCO2e/yr of amortised
// embodied emissions — 12 ktCO2e over a six-year life.
func ARCHER2Defaults() Params {
	return Params{
		Embodied: units.Kilotonnes(12),
		Lifetime: 6 * 365 * 24 * time.Hour,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Embodied.Grams() < 0 || p.Lifetime <= 0 {
		return fmt.Errorf("emissions: invalid params %+v", p)
	}
	return nil
}

// AmortisedScope3 returns the share of embodied emissions attributed to a
// window of the given length.
func (p Params) AmortisedScope3(window time.Duration) units.Mass {
	if window <= 0 {
		return 0
	}
	return p.Embodied.Scale(window.Seconds() / p.Lifetime.Seconds())
}

// Scope2 returns operational emissions for the given energy at the given
// carbon intensity.
func Scope2(e units.Energy, ci units.CarbonIntensity) units.Mass {
	return e.Emissions(ci)
}

// Window is an emissions account over a time window.
type Window struct {
	Duration time.Duration
	Energy   units.Energy
	CI       units.CarbonIntensity

	Scope2 units.Mass
	Scope3 units.Mass
	Total  units.Mass
}

// Account computes a Window for mean facility power `power` sustained for
// `window` at intensity ci.
func (p Params) Account(power units.Power, window time.Duration, ci units.CarbonIntensity) Window {
	e := power.EnergyOver(window)
	s2 := Scope2(e, ci)
	s3 := p.AmortisedScope3(window)
	return Window{
		Duration: window,
		Energy:   e,
		CI:       ci,
		Scope2:   s2,
		Scope3:   s3,
		Total:    units.Mass(s2.Grams() + s3.Grams()),
	}
}

// AccountSeries computes a Window by integrating a facility power series
// (unit kW, the telemetry meter's cabinet series) against a grid
// carbon-intensity series (unit gCO2/kWh, a grid.IntensityModel trace)
// over [from, to): scope 2 is the sum over intensity segments of
// mean-power x segment-length x intensity, so work that runs in
// low-intensity windows genuinely emits less. This is what makes
// temporal-shifting policies visible in the accounting — the mean x mean
// shortcut of Account would erase any correlation between when work runs
// and how clean the grid is.
//
// The reported CI is the energy-weighted mean intensity the load actually
// experienced; comparing it against the trace's plain mean measures how
// much of the window's carbon the schedule avoided (or hit).
//
// It is the one-trace case of AccountTraces' walk.
func (p Params) AccountSeries(powerKW, ci *timeseries.Series, from, to time.Time) Window {
	cis := [1]*timeseries.Series{ci}
	var scope2g [1]float64
	energyKWh := walk(powerKW, cis[:], from, to, scope2g[:])
	return p.window(energyKWh, scope2g[0], from, to)
}

// AccountTraces prices one power series against several intensity traces
// in a single walk: out[k] is bit for bit p.AccountSeries(powerKW, cis[k],
// from, to). The traces must share one cadence — epoch, step and length,
// as every trace of a sweep does — so that they cut the window into the
// same segments; a trace that does not is an error, never mis-priced.
func (p Params) AccountTraces(powerKW *timeseries.Series, cis []*timeseries.Series, from, to time.Time, out []Window) error {
	if len(out) != len(cis) {
		return fmt.Errorf("emissions: %d windows for %d traces", len(out), len(cis))
	}
	if len(cis) == 0 {
		return nil
	}
	for k, ci := range cis {
		if !ci.SameCadence(cis[0]) {
			return fmt.Errorf("emissions: trace %d (%v x %d) is off the cadence of trace 0 (%v x %d)",
				k, ci.Step(), ci.Len(), cis[0].Step(), cis[0].Len())
		}
	}
	scope2g := make([]float64, len(cis))
	energyKWh := walk(powerKW, cis, from, to, scope2g)
	for k := range out {
		out[k] = p.window(energyKWh, scope2g[k], from, to)
	}
	return nil
}

// walk integrates powerKW over each intensity segment of [from, to) —
// sample i of the traces holds from its timestamp to the next, or to `to`
// — and adds the segment's kWh to the energy and, times trace k's
// intensity, to scope2g[k], in segment order. The traces share one
// cadence, so a segment's kWh depends only on the power series: it is
// integrated once however many traces price it, and every trace gets the
// sums a walk of its own would. The segments sweep forward in time, so
// one accumulator walks the power series in a single pass (O(P+C)), on an
// integer clock: the trace epoch and the window bounds become offsets
// from the power epoch once, and segment i is base + i*step clipped to
// [f, t) — the Durations time.Time.Sub gives, so the same floats.
func walk(powerKW *timeseries.Series, cis []*timeseries.Series, from, to time.Time, scope2g []float64) (energyKWh float64) {
	nCI := cis[0].Len()
	if nCI == 0 || powerKW.Len() == 0 {
		return 0
	}
	epoch := powerKW.At(0).T
	f, t := from.Sub(epoch), to.Sub(epoch)
	base, step := cis[0].At(0).T.Sub(epoch), cis[0].Step()
	acc := powerKW.Accumulator()
	for i := 0; i < nCI; i++ {
		segFrom, segTo := base+time.Duration(i)*step, t
		if i+1 < nCI && segFrom+step < t {
			segTo = segFrom + step
		}
		if segFrom < f {
			segFrom = f
		}
		if segTo <= segFrom {
			continue
		}
		kwh := acc.TimeWeightedMean(segFrom, segTo) * timeseries.Span(segFrom, segTo).Hours()
		energyKWh += kwh
		for k, ci := range cis {
			scope2g[k] += kwh * ci.Value(i)
		}
	}
	return energyKWh
}

// window assembles the account of one trace's walk sums.
func (p Params) window(energyKWh, scope2g float64, from, to time.Time) Window {
	e := units.KilowattHours(energyKWh)
	window := to.Sub(from)
	s2 := units.Grams(scope2g)
	s3 := p.AmortisedScope3(window)
	meanCI := 0.0
	if energyKWh > 0 {
		meanCI = scope2g / energyKWh
	}
	return Window{
		Duration: window,
		Energy:   e,
		CI:       units.GramsPerKWh(meanCI),
		Scope2:   s2,
		Scope3:   s3,
		Total:    units.Mass(s2.Grams() + s3.Grams()),
	}
}

// Scope2Share returns scope 2 as a fraction of total emissions (0 when the
// total is zero).
func (w Window) Scope2Share() float64 {
	if w.Total.Grams() == 0 {
		return 0
	}
	return w.Scope2.Grams() / w.Total.Grams()
}

// Regime is the paper's operational-strategy classification.
type Regime int

const (
	// Scope3Dominated: optimise application performance.
	Scope3Dominated Regime = iota
	// Balanced: trade performance against energy efficiency.
	Balanced
	// Scope2Dominated: optimise energy efficiency.
	Scope2Dominated
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case Scope3Dominated:
		return "scope-3 dominated"
	case Balanced:
		return "balanced"
	case Scope2Dominated:
		return "scope-2 dominated"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// Strategy returns the paper's recommended operating strategy for the
// regime.
func (r Regime) Strategy() string {
	switch r {
	case Scope3Dominated:
		return "maximise application output per node-hour; avoid any performance sacrifice"
	case Balanced:
		return "balance energy efficiency against application performance"
	case Scope2Dominated:
		return "maximise application output per kWh, even at reduced output per node-hour"
	default:
		return "unknown"
	}
}

// RegimeOf classifies a window by the scope2:scope3 balance: below 2:3 it
// is scope-3 dominated, above 3:2 scope-2 dominated, else balanced.
func RegimeOf(w Window) Regime {
	s2, s3 := w.Scope2.Grams(), w.Scope3.Grams()
	switch {
	case s2 < s3*2/3:
		return Scope3Dominated
	case s2 > s3*3/2:
		return Scope2Dominated
	default:
		return Balanced
	}
}

// CrossoverIntensity returns the grid carbon intensity at which scope 2
// equals amortised scope 3 for a facility drawing `power` on average.
// Returns 0 for non-positive power.
func (p Params) CrossoverIntensity(power units.Power) units.CarbonIntensity {
	if power.Watts() <= 0 {
		return 0
	}
	annualEnergy := power.EnergyOver(365 * 24 * time.Hour)
	annualScope3 := p.AmortisedScope3(365 * 24 * time.Hour)
	return units.GramsPerKWh(annualScope3.Grams() / annualEnergy.KilowattHours())
}

// Efficiency summarises output-vs-emissions metrics for an operating
// point, the quantities the paper's strategy rule trades off.
type Efficiency struct {
	// NodeHoursPerTonne is delivered node-hours per tCO2e (total).
	NodeHoursPerTonne float64
	// NodeHoursPerMWh is delivered node-hours per MWh of energy.
	NodeHoursPerMWh float64
	// KWhPerNodeHour is the energy cost of a node-hour.
	KWhPerNodeHour float64
}

// ComputeEfficiency derives the metrics from delivered node-hours, energy
// and a total emissions mass. Zero denominators yield zero metrics.
func ComputeEfficiency(nodeHours float64, e units.Energy, total units.Mass) Efficiency {
	var out Efficiency
	if t := total.Tonnes(); t > 0 {
		out.NodeHoursPerTonne = nodeHours / t
	}
	if mwh := e.MegawattHours(); mwh > 0 {
		out.NodeHoursPerMWh = nodeHours / mwh
	}
	if nodeHours > 0 {
		out.KWhPerNodeHour = e.KilowattHours() / nodeHours
	}
	return out
}

// ScenarioPoint is one row of a carbon-intensity sweep (the quantitative
// version of the paper's §2 narrative).
type ScenarioPoint struct {
	CI     units.CarbonIntensity
	Window Window
	Regime Regime
}

// Sweep evaluates the facility's annual emissions across a set of grid
// carbon intensities.
func (p Params) Sweep(power units.Power, intensities []float64) []ScenarioPoint {
	year := 365 * 24 * time.Hour
	out := make([]ScenarioPoint, len(intensities))
	for i, g := range intensities {
		ci := units.GramsPerKWh(g)
		w := p.Account(power, year, ci)
		out[i] = ScenarioPoint{CI: ci, Window: w, Regime: RegimeOf(w)}
	}
	return out
}
