// Package units provides typed physical quantities used throughout the
// facility model: power, energy, frequency, carbon intensity and CO2e mass.
//
// All quantities are stored in SI base units (watts, joules, hertz,
// grams CO2e) as float64 wrappers. The distinct types prevent the classic
// power-vs-energy and kW-vs-W unit mistakes at compile time, while the
// conversion methods keep call sites readable:
//
//	p := units.Kilowatts(3220)
//	e := p.EnergyOver(24 * time.Hour) // 77,280 kWh
//
// The types mirror the paper's reporting units: cabinet power in kW
// (Figures 1-3), energy in kWh/MWh, grid carbon intensity in gCO2/kWh
// (§2) and emissions masses in tCO2e.
package units

import (
	"fmt"
	"math"
	"time"
)

// Power is an instantaneous power draw, stored in watts.
type Power float64

// Power constructors.
func Watts(w float64) Power      { return Power(w) }
func Kilowatts(kw float64) Power { return Power(kw * 1e3) }
func Megawatts(mw float64) Power { return Power(mw * 1e6) }

// Watts returns the power in watts.
func (p Power) Watts() float64 { return float64(p) }

// Kilowatts returns the power in kilowatts.
func (p Power) Kilowatts() float64 { return float64(p) / 1e3 }

// Megawatts returns the power in megawatts.
func (p Power) Megawatts() float64 { return float64(p) / 1e6 }

// EnergyOver returns the energy consumed if this power is sustained for d.
func (p Power) EnergyOver(d time.Duration) Energy {
	return Energy(float64(p) * d.Seconds())
}

// Scale returns p multiplied by the dimensionless factor k.
func (p Power) Scale(k float64) Power { return Power(float64(p) * k) }

// String renders the power with an auto-selected scale, e.g. "3.22 MW".
func (p Power) String() string {
	w := math.Abs(float64(p))
	switch {
	case w >= 1e6:
		return fmt.Sprintf("%.3g MW", p.Megawatts())
	case w >= 1e3:
		return fmt.Sprintf("%.4g kW", p.Kilowatts())
	default:
		return fmt.Sprintf("%.4g W", float64(p))
	}
}

// Energy is an amount of energy, stored in joules.
type Energy float64

// Energy constructors.
func Joules(j float64) Energy          { return Energy(j) }
func KilowattHours(kwh float64) Energy { return Energy(kwh * 3.6e6) }
func MegawattHours(mwh float64) Energy { return Energy(mwh * 3.6e9) }
func GigawattHours(gwh float64) Energy { return Energy(gwh * 3.6e12) }

// Joules returns the energy in joules.
func (e Energy) Joules() float64 { return float64(e) }

// KilowattHours returns the energy in kWh.
func (e Energy) KilowattHours() float64 { return float64(e) / 3.6e6 }

// MegawattHours returns the energy in MWh.
func (e Energy) MegawattHours() float64 { return float64(e) / 3.6e9 }

// GigawattHours returns the energy in GWh.
func (e Energy) GigawattHours() float64 { return float64(e) / 3.6e12 }

// Scale returns e multiplied by the dimensionless factor k.
func (e Energy) Scale(k float64) Energy { return Energy(float64(e) * k) }

// Emissions returns the scope-2 CO2e mass from generating this energy at the
// given carbon intensity.
func (e Energy) Emissions(ci CarbonIntensity) Mass {
	return Mass(e.KilowattHours() * float64(ci))
}

// String renders the energy with an auto-selected scale, e.g. "77.3 MWh".
func (e Energy) String() string {
	j := math.Abs(float64(e))
	switch {
	case j >= 3.6e12:
		return fmt.Sprintf("%.4g GWh", e.GigawattHours())
	case j >= 3.6e9:
		return fmt.Sprintf("%.4g MWh", e.MegawattHours())
	case j >= 3.6e6:
		return fmt.Sprintf("%.4g kWh", e.KilowattHours())
	case j >= 1e3:
		return fmt.Sprintf("%.4g kJ", float64(e)/1e3)
	default:
		return fmt.Sprintf("%.4g J", float64(e))
	}
}

// Frequency is a clock frequency, stored in hertz.
type Frequency float64

// Frequency constructors.
func Hertz(hz float64) Frequency      { return Frequency(hz) }
func Megahertz(mhz float64) Frequency { return Frequency(mhz * 1e6) }
func Gigahertz(ghz float64) Frequency { return Frequency(ghz * 1e9) }

// Hertz returns the frequency in Hz.
func (f Frequency) Hertz() float64 { return float64(f) }

// Gigahertz returns the frequency in GHz.
func (f Frequency) Gigahertz() float64 { return float64(f) / 1e9 }

// Ratio returns f divided by g. It returns +Inf when g is zero and f is
// positive, mirroring float64 division.
func (f Frequency) Ratio(g Frequency) float64 { return float64(f) / float64(g) }

// String renders the frequency, e.g. "2.25 GHz".
func (f Frequency) String() string {
	hz := math.Abs(float64(f))
	switch {
	case hz >= 1e9:
		return fmt.Sprintf("%.4g GHz", f.Gigahertz())
	case hz >= 1e6:
		return fmt.Sprintf("%.4g MHz", float64(f)/1e6)
	default:
		return fmt.Sprintf("%.4g Hz", float64(f))
	}
}

// CarbonIntensity is grid carbon intensity in grams CO2e per kilowatt-hour.
type CarbonIntensity float64

// GramsPerKWh constructs a carbon intensity.
func GramsPerKWh(g float64) CarbonIntensity { return CarbonIntensity(g) }

// GramsPerKWh returns the intensity in gCO2e/kWh.
func (ci CarbonIntensity) GramsPerKWh() float64 { return float64(ci) }

// String renders the intensity, e.g. "65 gCO2/kWh".
func (ci CarbonIntensity) String() string {
	return fmt.Sprintf("%.4g gCO2/kWh", float64(ci))
}

// Mass is a mass of CO2-equivalent, stored in grams.
type Mass float64

// Mass constructors.
func Grams(g float64) Mass       { return Mass(g) }
func Kilograms(kg float64) Mass  { return Mass(kg * 1e3) }
func Tonnes(t float64) Mass      { return Mass(t * 1e6) }
func Kilotonnes(kt float64) Mass { return Mass(kt * 1e9) }

// Grams returns the mass in grams.
func (m Mass) Grams() float64 { return float64(m) }

// Kilograms returns the mass in kilograms.
func (m Mass) Kilograms() float64 { return float64(m) / 1e3 }

// Tonnes returns the mass in tonnes.
func (m Mass) Tonnes() float64 { return float64(m) / 1e6 }

// Kilotonnes returns the mass in kilotonnes.
func (m Mass) Kilotonnes() float64 { return float64(m) / 1e9 }

// Scale returns m multiplied by the dimensionless factor k.
func (m Mass) Scale(k float64) Mass { return Mass(float64(m) * k) }

// String renders the mass with an auto-selected scale, e.g. "2 ktCO2e".
func (m Mass) String() string {
	g := math.Abs(float64(m))
	switch {
	case g >= 1e9:
		return fmt.Sprintf("%.4g ktCO2e", m.Kilotonnes())
	case g >= 1e6:
		return fmt.Sprintf("%.4g tCO2e", m.Tonnes())
	case g >= 1e3:
		return fmt.Sprintf("%.4g kgCO2e", m.Kilograms())
	default:
		return fmt.Sprintf("%.4g gCO2e", float64(m))
	}
}

// Cost is a monetary amount in an unspecified currency (the service's
// operating currency; GBP for ARCHER2). Stored as a plain value.
type Cost float64

// CostPerKWh is an electricity tariff.
type CostPerKWh float64

// Over returns the cost of the given energy at this tariff.
func (c CostPerKWh) Over(e Energy) Cost { return Cost(float64(c) * e.KilowattHours()) }
