package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestPowerConversions(t *testing.T) {
	cases := []struct {
		p  Power
		w  float64
		kw float64
		mw float64
	}{
		{Watts(510), 510, 0.51, 0.00051},
		{Kilowatts(3220), 3.22e6, 3220, 3.22},
		{Megawatts(3.5), 3.5e6, 3500, 3.5},
		{Watts(0), 0, 0, 0},
	}
	for _, c := range cases {
		if got := c.p.Watts(); !almostEqual(got, c.w, 1e-12) {
			t.Errorf("Watts() = %v, want %v", got, c.w)
		}
		if got := c.p.Kilowatts(); !almostEqual(got, c.kw, 1e-12) {
			t.Errorf("Kilowatts() = %v, want %v", got, c.kw)
		}
		if got := c.p.Megawatts(); !almostEqual(got, c.mw, 1e-12) {
			t.Errorf("Megawatts() = %v, want %v", got, c.mw)
		}
	}
}

func TestPowerEnergyOver(t *testing.T) {
	// 3220 kW for 24h = 77,280 kWh.
	e := Kilowatts(3220).EnergyOver(24 * time.Hour)
	if got := e.KilowattHours(); !almostEqual(got, 77280, 1e-12) {
		t.Fatalf("energy = %v kWh, want 77280", got)
	}
	// Round trip back to mean power.
	p := Power(float64(e) / (24 * time.Hour).Seconds())
	if got := p.Kilowatts(); !almostEqual(got, 3220, 1e-12) {
		t.Fatalf("mean power = %v kW, want 3220", got)
	}
}

func TestEnergyConversions(t *testing.T) {
	e := KilowattHours(1)
	if got := e.Joules(); !almostEqual(got, 3.6e6, 1e-12) {
		t.Errorf("1 kWh = %v J, want 3.6e6", got)
	}
	if got := MegawattHours(1).KilowattHours(); !almostEqual(got, 1000, 1e-12) {
		t.Errorf("1 MWh = %v kWh, want 1000", got)
	}
	if got := GigawattHours(1).MegawattHours(); !almostEqual(got, 1000, 1e-12) {
		t.Errorf("1 GWh = %v MWh, want 1000", got)
	}
}

func TestEmissionsCalculation(t *testing.T) {
	// 1 MWh at 100 g/kWh = 100 kg CO2e.
	m := MegawattHours(1).Emissions(GramsPerKWh(100))
	if got := m.Kilograms(); !almostEqual(got, 100, 1e-12) {
		t.Fatalf("emissions = %v kg, want 100", got)
	}
	// Facility-scale check: 3.5 MW for a year at 65 g/kWh ~ 1993 tCO2e.
	e := Megawatts(3.5).EnergyOver(8760 * time.Hour)
	m = e.Emissions(GramsPerKWh(65))
	if got := m.Tonnes(); !almostEqual(got, 3.5*8760*65/1000, 1e-9) {
		t.Fatalf("annual emissions = %v t, want %v", got, 3.5*8760*65/1000)
	}
}

func TestMassConversions(t *testing.T) {
	if got := Tonnes(2).Kilograms(); !almostEqual(got, 2000, 1e-12) {
		t.Errorf("2 t = %v kg", got)
	}
	if got := Kilotonnes(12).Tonnes(); !almostEqual(got, 12000, 1e-12) {
		t.Errorf("12 kt = %v t", got)
	}
	if got := Kilograms(1).Grams(); !almostEqual(got, 1000, 1e-12) {
		t.Errorf("1 kg = %v g", got)
	}
}

func TestFrequencyRatio(t *testing.T) {
	r := Gigahertz(2.0).Ratio(Gigahertz(2.8))
	if !almostEqual(r, 2.0/2.8, 1e-12) {
		t.Fatalf("ratio = %v, want %v", r, 2.0/2.8)
	}
	if got := Megahertz(2250).Gigahertz(); !almostEqual(got, 2.25, 1e-12) {
		t.Fatalf("2250 MHz = %v GHz", got)
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		s    string
		want string
	}{
		{Kilowatts(3220).String(), "MW"},
		{Watts(510).String(), "W"},
		{Kilowatts(2.5).String(), "kW"},
		{KilowattHours(1).String(), "kWh"},
		{GigawattHours(30).String(), "GWh"},
		{Gigahertz(2.25).String(), "GHz"},
		{Tonnes(2000).String(), "ktCO2e"},
		{Kilograms(5).String(), "kgCO2e"},
		{GramsPerKWh(65).String(), "gCO2/kWh"},
	}
	for _, c := range cases {
		if !strings.Contains(c.s, c.want) {
			t.Errorf("%q does not contain unit %q", c.s, c.want)
		}
	}
}

func TestCostPerKWh(t *testing.T) {
	// 30 GWh at 0.25/kWh = 7.5M.
	c := CostPerKWh(0.25).Over(GigawattHours(30))
	if !almostEqual(float64(c), 7.5e6, 1e-12) {
		t.Fatalf("cost = %v, want 7.5e6", float64(c))
	}
}

// Property: energy over a duration then mean power over the same duration is
// the identity (for positive durations).
func TestPropertyPowerEnergyRoundTrip(t *testing.T) {
	f := func(kw float64, hours uint8) bool {
		if math.IsNaN(kw) || math.IsInf(kw, 0) || math.Abs(kw) > 1e12 {
			return true // out of modelled range
		}
		d := time.Duration(int(hours)+1) * time.Hour
		p := Kilowatts(kw)
		back := Power(float64(p.EnergyOver(d)) / d.Seconds())
		return almostEqual(back.Watts(), p.Watts(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: emissions are additive in energy and linear in intensity.
func TestPropertyEmissionsLinear(t *testing.T) {
	f := func(a, b float64, ci float64) bool {
		if !finiteInRange(a, 1e9) || !finiteInRange(b, 1e9) || !finiteInRange(ci, 1e6) {
			return true
		}
		ea, eb := KilowattHours(a), KilowattHours(b)
		g := GramsPerKWh(ci)
		sum := Energy(float64(ea) + float64(eb)).Emissions(g)
		parts := Mass(float64(ea.Emissions(g)) + float64(eb.Emissions(g)))
		return almostEqual(float64(sum), float64(parts), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func finiteInRange(x, lim float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) <= lim
}

func TestScale(t *testing.T) {
	if got := Kilowatts(100).Scale(0.93).Kilowatts(); !almostEqual(got, 93, 1e-12) {
		t.Errorf("power scale = %v", got)
	}
	if got := KilowattHours(100).Scale(0.5).KilowattHours(); !almostEqual(got, 50, 1e-12) {
		t.Errorf("energy scale = %v", got)
	}
	if got := Tonnes(10).Scale(1.5).Tonnes(); !almostEqual(got, 15, 1e-12) {
		t.Errorf("mass scale = %v", got)
	}
}

func TestRemainingAccessors(t *testing.T) {
	if got := KilowattHours(1).Joules(); !almostEqual(got, 3.6e6, 1e-12) {
		t.Errorf("Joules() = %v", got)
	}
	if got := Hertz(50).Hertz(); got != 50 {
		t.Errorf("Hertz() = %v", got)
	}
	if got := Gigahertz(2).Hertz(); !almostEqual(got, 2e9, 1e-12) {
		t.Errorf("GHz Hertz() = %v", got)
	}
	if got := GramsPerKWh(65).GramsPerKWh(); got != 65 {
		t.Errorf("GramsPerKWh() = %v", got)
	}
	if got := Kilograms(2).Grams(); !almostEqual(got, 2000, 1e-12) {
		t.Errorf("Grams() = %v", got)
	}
}

func TestStringScaleBranches(t *testing.T) {
	cases := []struct{ s, want string }{
		{KilowattHours(0.001).String(), "kJ"},
		{Joules(12).String(), "J"},
		{GigawattHours(2).String(), "GWh"},
		{MegawattHours(5).String(), "MWh"},
		{Hertz(10).String(), "Hz"},
		{Megahertz(250).String(), "MHz"},
		{Grams(3).String(), "gCO2e"},
		{Tonnes(4).String(), "tCO2e"},
	}
	for _, c := range cases {
		if !strings.Contains(c.s, c.want) {
			t.Errorf("%q missing %q", c.s, c.want)
		}
	}
}
