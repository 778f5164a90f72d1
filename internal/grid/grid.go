// Package grid provides a synthetic model of the electricity grid the
// facility draws from: a carbon-intensity trace generator with the
// seasonal, diurnal and stochastic (wind-driven) structure of the GB
// grid, plus grid-stress event generation for demand-response studies.
//
// The paper's emissions analysis (§2) needs carbon-intensity scenarios
// spanning <30, 30-100 and >100 gCO2/kWh; real trace data is a gated
// external service, so the generator is calibrated to the published GB
// statistics instead (2022 annual mean ~200 gCO2/kWh, winter evening
// peaks >300, windy summer nights <50).
package grid

import (
	"fmt"
	"math"
	"time"

	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

// IntensityModel generates carbon-intensity traces.
type IntensityModel struct {
	// Base is the annual mean intensity (gCO2/kWh).
	Base float64
	// SeasonalAmp is the winter-summer swing amplitude.
	SeasonalAmp float64
	// DiurnalAmp is the day-night swing amplitude.
	DiurnalAmp float64
	// NoiseSigma is the stationary standard deviation of the
	// Ornstein-Uhlenbeck wind term.
	NoiseSigma float64
	// NoiseTau is the OU relaxation time (weather system scale).
	NoiseTau time.Duration
	// Min and Max clamp the output.
	Min, Max float64
}

// GB2022 returns a model calibrated to published GB grid statistics for
// the paper's period.
func GB2022() IntensityModel {
	return IntensityModel{
		Base:        200,
		SeasonalAmp: 40,
		DiurnalAmp:  45,
		NoiseSigma:  55,
		NoiseTau:    18 * time.Hour,
		Min:         25,
		Max:         420,
	}
}

// Scaled returns a copy of m with the deterministic components scaled so
// the annual mean becomes `mean` — a simple way to build low-carbon future
// scenarios ("what if the grid averaged 50 gCO2/kWh?").
func (m IntensityModel) Scaled(mean float64) IntensityModel {
	if m.Base <= 0 {
		return m
	}
	k := mean / m.Base
	out := m
	out.Base = mean
	out.SeasonalAmp *= k
	out.DiurnalAmp *= k
	out.NoiseSigma *= k
	out.Min *= k
	out.Max *= k
	return out
}

// Validate checks the parameters.
func (m IntensityModel) Validate() error {
	if m.Base <= 0 || m.Min < 0 || m.Max <= m.Min || m.NoiseTau <= 0 {
		return fmt.Errorf("grid: invalid intensity model %+v", m)
	}
	return nil
}

// seasonCos and diurnalCos tabulate the calendar cosines by day of the
// year (1-366) and minute of the day (0-1439), with the expressions a
// per-step evaluation uses, so a lookup returns the same float.
var (
	seasonCos  [367]float64
	diurnalCos [24 * 60]float64
)

func init() {
	for d := 1; d <= 366; d++ {
		// Peak in mid-January (yearFrac ~ 0.04).
		yearFrac := float64(d-1) / 365
		seasonCos[d] = math.Cos(2 * math.Pi * (yearFrac - 0.04))
	}
	for m := range diurnalCos {
		// Evening peak ~18:00, night trough ~03:00.
		hour := float64(m/60) + float64(m%60)/60
		diurnalCos[m] = math.Cos(2 * math.Pi * (hour - 18) / 24)
	}
}

// calendar returns the seasonal and diurnal cosines at t, which every
// model scales by its own amplitudes: table lookups by day of the year and
// minute of the day, so seconds do not enter.
func calendar(t time.Time) (season, day float64) {
	h, m, _ := t.Clock()
	return seasonCos[t.YearDay()], diurnalCos[h*60+m]
}

// level returns the deterministic season+diurnal component for the
// calendar cosines of one timestamp.
func (m IntensityModel) level(season, day float64) float64 {
	seasonal := m.SeasonalAmp * season
	diurnal := m.DiurnalAmp * day
	return m.Base + seasonal + diurnal
}

// Trace generates an intensity series from `from` to `to` (exclusive) at
// the given step, using stream r for the wind term. The trace is exactly
// step-periodic with implicit timestamps — a year at the GB settlement
// cadence is one 140 kB float block. It is the one-model case of Traces.
func (m IntensityModel) Trace(from, to time.Time, step time.Duration, r *rng.Stream) (*timeseries.Series, error) {
	var out [1]*timeseries.Series
	if err := generate([]IntensityModel{m}, from, to, step, r, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// Traces generates one intensity series per model over [from, to) at the
// given step, all under one weather realisation drawn from r (common
// random numbers): series k is exactly models[k].Trace(from, to, step, r')
// for a fresh copy r' of r. The polar-method pair, the calendar terms and
// both cosines are the same for every model, so each is drawn or computed
// once per step; only the scaling is per model, in Normal's expression
// shape, so a sweep's grid means cost one pass instead of one each.
func Traces(models []IntensityModel, from, to time.Time, step time.Duration, r *rng.Stream) ([]*timeseries.Series, error) {
	out := make([]*timeseries.Series, len(models))
	if err := generate(models, from, to, step, r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// generate is Traces writing series k to out[k]. Each model's samples are
// written in place into the exact-length slice its series owns, and the
// per-model wind state lives on the stack for up to eight models, so a
// single Trace allocates nothing beyond its series.
func generate(models []IntensityModel, from, to time.Time, step time.Duration, r *rng.Stream, out []*timeseries.Series) error {
	for _, m := range models {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	window := to.Sub(from)
	if step <= 0 || window <= 0 || window == math.MaxInt64 {
		return fmt.Errorf("grid: invalid trace window [%v, %v) step %v", from, to, step)
	}
	n := int((window-1)/step) + 1 // steps starting in [from, to)
	// Exact OU discretisation: x' = x*a + sigma*sqrt(1-a^2)*N(0,1), from
	// a stationary start x = N(0, sigma).
	type ou struct {
		x, a, q float64
		v       []float64 // the samples, owned by out[k]
	}
	var buf [8]ou
	wind := buf[:]
	if len(models) > len(buf) {
		wind = make([]ou, len(models))
	}
	u, f := r.Polar()
	for k := range models {
		m := &models[k]
		a := math.Exp(-step.Seconds() / m.NoiseTau.Seconds())
		wind[k] = ou{x: 0 + m.NoiseSigma*u*f, a: a, q: m.NoiseSigma * math.Sqrt(1-a*a), v: make([]float64, n)}
		out[k] = timeseries.FromValues("carbon_intensity", "gCO2/kWh", from, step, wind[k].v)
	}
	t := from
	for i := 0; i < n; i++ {
		season, day := calendar(t)
		u, f := r.Polar()
		z := 0 + 1*u*f
		for k := range models {
			m, w := &models[k], &wind[k]
			v := m.level(season, day) + w.x
			if v < m.Min {
				v = m.Min
			}
			if v > m.Max {
				v = m.Max
			}
			w.v[i] = v
			w.x = w.x*w.a + w.q*z
		}
		t = t.Add(step)
	}
	return nil
}

// MeanIntensity returns the series mean as a typed carbon intensity.
func MeanIntensity(s *timeseries.Series) units.CarbonIntensity {
	return units.GramsPerKWh(s.Mean())
}

// StressEvent is a period of grid stress (scarce capacity, high prices),
// like the GB winter 2022/23 margin notices that motivated the paper's
// power reductions.
type StressEvent struct {
	Start time.Time
	End   time.Time
}

// Duration returns the event length.
func (e StressEvent) Duration() time.Duration { return e.End.Sub(e.Start) }

// StressEvents generates winter weekday evening stress events between from
// and to: on cold-season weekdays, with probability p, a 17:00-20:00 local
// event occurs.
func StressEvents(from, to time.Time, p float64, r *rng.Stream) []StressEvent {
	var out []StressEvent
	day := time.Date(from.Year(), from.Month(), from.Day(), 0, 0, 0, 0, from.Location())
	for ; day.Before(to); day = day.AddDate(0, 0, 1) {
		m := day.Month()
		cold := m == time.November || m == time.December || m == time.January || m == time.February
		if !cold || day.Weekday() == time.Saturday || day.Weekday() == time.Sunday {
			continue
		}
		if r.Float64() >= p {
			continue
		}
		start := day.Add(17 * time.Hour)
		if start.Before(from) || !day.Add(20*time.Hour).Before(to) {
			continue
		}
		out = append(out, StressEvent{Start: start, End: day.Add(20 * time.Hour)})
	}
	return out
}

// IntensityBand classifies an intensity into the paper's §2 bands.
type IntensityBand int

const (
	// VeryLowCarbon: < 30 gCO2/kWh — scope 3 dominates.
	VeryLowCarbon IntensityBand = iota
	// ModerateCarbon: 30-100 gCO2/kWh — scope 2 and 3 comparable.
	ModerateCarbon
	// HighCarbon: > 100 gCO2/kWh — scope 2 dominates.
	HighCarbon
)

// String implements fmt.Stringer.
func (b IntensityBand) String() string {
	switch b {
	case VeryLowCarbon:
		return "very-low-carbon (<30 g/kWh)"
	case ModerateCarbon:
		return "moderate-carbon (30-100 g/kWh)"
	case HighCarbon:
		return "high-carbon (>100 g/kWh)"
	default:
		return fmt.Sprintf("IntensityBand(%d)", int(b))
	}
}

// BandOf returns the paper's band for an intensity.
func BandOf(ci units.CarbonIntensity) IntensityBand {
	switch g := ci.GramsPerKWh(); {
	case g < 30:
		return VeryLowCarbon
	case g <= 100:
		return ModerateCarbon
	default:
		return HighCarbon
	}
}
