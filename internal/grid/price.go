package grid

import (
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

// Price modelling: the paper's §1 motivation includes that "lifetime
// electricity costs now matching or even exceeding the capital costs" of
// large HPC systems. The price model mirrors the intensity model's
// structure — wholesale electricity prices on the GB grid are strongly
// correlated with fossil generation share, plus scarcity spikes during
// stress events.

// PriceModel generates electricity tariff traces (currency per kWh).
type PriceModel struct {
	// Base is the mean price per kWh.
	Base float64
	// IntensityCoupling converts intensity deviation from its base into a
	// price deviation (price per kWh per gCO2/kWh above base intensity).
	IntensityCoupling float64
	// IntensityBase is the intensity at which the price equals Base.
	IntensityBase float64
	// ScarcityMultiplier is applied during stress events.
	ScarcityMultiplier float64
	// Min floors the price (can be near zero in wind surpluses, but not
	// below the floor — negative pricing is out of scope).
	Min float64
}

// GB2022Prices returns a model for the 2022 GB wholesale market, a year of
// extreme prices (~0.25/kWh average commercial rate).
func GB2022Prices() PriceModel {
	return PriceModel{
		Base:               0.25,
		IntensityCoupling:  0.0012,
		IntensityBase:      200,
		ScarcityMultiplier: 3.0,
		Min:                0.02,
	}
}

// Validate checks the model.
func (m PriceModel) Validate() error {
	if m.Base <= 0 || m.ScarcityMultiplier < 1 || m.Min < 0 || m.Min > m.Base {
		return fmt.Errorf("grid: invalid price model %+v", m)
	}
	return nil
}

// PriceAt converts one intensity sample into a price, applying scarcity if
// t falls inside any of the given stress events.
func (m PriceModel) PriceAt(t time.Time, intensity float64, events []StressEvent) units.CostPerKWh {
	p := m.Base + m.IntensityCoupling*(intensity-m.IntensityBase)
	for _, ev := range events {
		if !t.Before(ev.Start) && t.Before(ev.End) {
			p *= m.ScarcityMultiplier
			break
		}
	}
	if p < m.Min {
		p = m.Min
	}
	return units.CostPerKWh(p)
}

// PriceTrace derives a price series from an intensity trace and stress
// events, one price sample per intensity sample on the same cadence.
func (m PriceModel) PriceTrace(intensity *timeseries.Series, events []StressEvent) (*timeseries.Series, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := intensity.Len()
	out := timeseries.New("electricity_price", "per_kWh", intensity.Step(), n)
	for i := 0; i < n; i++ {
		smp := intensity.At(i)
		out.MustAppend(smp.T, float64(m.PriceAt(smp.T, smp.V, events)))
	}
	return out, nil
}

// EnergyCost integrates a power series (kW) against a price series using
// sample-and-hold on both, over [from, to). The two series need not share
// timestamps. Returns the total cost and the total energy.
func EnergyCost(powerKW, price *timeseries.Series, from, to time.Time, step time.Duration) (units.Cost, units.Energy, error) {
	if step <= 0 || !to.After(from) {
		return 0, 0, fmt.Errorf("grid: invalid cost window [%v, %v) step %v", from, to, step)
	}
	var cost units.Cost
	var energy units.Energy
	for t := from; t.Before(to); t = t.Add(step) {
		p, okP := powerKW.ValueAt(t)
		pr, okPr := price.ValueAt(t)
		if !okP || !okPr {
			continue
		}
		e := units.Kilowatts(p).EnergyOver(step)
		energy += e
		cost += units.CostPerKWh(pr).Over(e)
	}
	return cost, energy, nil
}

// AnnualCostEstimate is the paper's §1 cost point: mean power times a flat
// tariff over a year.
func AnnualCostEstimate(meanPower units.Power, tariff units.CostPerKWh) units.Cost {
	return tariff.Over(meanPower.EnergyOver(365 * 24 * time.Hour))
}

// TraceWithPrices is a convenience bundling intensity, price and events
// over a window.
type TraceWithPrices struct {
	Intensity *timeseries.Series
	Price     *timeseries.Series
	Events    []StressEvent
}

// GenerateYear builds a coherent (intensity, price, stress) year with one
// stream.
func GenerateYear(im IntensityModel, pm PriceModel, start time.Time, stressProb float64, r *rng.Stream) (*TraceWithPrices, error) {
	end := start.AddDate(1, 0, 0)
	intensity, err := im.Trace(start, end, time.Hour, r.Split("intensity"))
	if err != nil {
		return nil, err
	}
	events := StressEvents(start, end, stressProb, r.Split("stress"))
	price, err := pm.PriceTrace(intensity, events)
	if err != nil {
		return nil, err
	}
	return &TraceWithPrices{Intensity: intensity, Price: price, Events: events}, nil
}
