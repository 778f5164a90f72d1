package grid

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

func TestPriceModelValidate(t *testing.T) {
	if err := GB2022Prices().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []PriceModel{
		{Base: 0, ScarcityMultiplier: 2},
		{Base: 0.2, ScarcityMultiplier: 0.5},
		{Base: 0.2, ScarcityMultiplier: 2, Min: 0.3},
		{Base: 0.2, ScarcityMultiplier: 2, Min: -0.1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad price model %d accepted", i)
		}
	}
}

func TestPriceAtCoupling(t *testing.T) {
	m := GB2022Prices()
	// At base intensity, base price.
	p := m.PriceAt(t0, 200, nil)
	if math.Abs(float64(p)-0.25) > 1e-12 {
		t.Fatalf("base price = %v", p)
	}
	// Higher intensity -> higher price.
	hi := m.PriceAt(t0, 300, nil)
	lo := m.PriceAt(t0, 50, nil)
	if float64(hi) <= float64(p) || float64(lo) >= float64(p) {
		t.Fatalf("coupling wrong: lo=%v base=%v hi=%v", lo, p, hi)
	}
	// Floor applies.
	floor := m.PriceAt(t0, -1e6, nil)
	if float64(floor) != m.Min {
		t.Fatalf("floor = %v", floor)
	}
}

func TestPriceScarcity(t *testing.T) {
	m := GB2022Prices()
	ev := []StressEvent{{Start: t0.Add(17 * time.Hour), End: t0.Add(20 * time.Hour)}}
	in := m.PriceAt(t0.Add(18*time.Hour), 200, ev)
	out := m.PriceAt(t0.Add(21*time.Hour), 200, ev)
	if math.Abs(float64(in)-0.75) > 1e-12 {
		t.Fatalf("scarcity price = %v, want 0.75", in)
	}
	if math.Abs(float64(out)-0.25) > 1e-12 {
		t.Fatalf("post-event price = %v", out)
	}
}

func TestPriceTrace(t *testing.T) {
	im := GB2022()
	tr, err := im.Trace(t0, t0.AddDate(0, 1, 0), time.Hour, rng.New(3).Split("grid"))
	if err != nil {
		t.Fatal(err)
	}
	pm := GB2022Prices()
	prices, err := pm.PriceTrace(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prices.Len() != tr.Len() {
		t.Fatalf("price samples = %d, want %d", prices.Len(), tr.Len())
	}
	for i := 0; i < prices.Len(); i++ {
		if p := prices.At(i).V; p < pm.Min-1e-12 {
			t.Fatalf("price below floor: %v", p)
		}
	}
	if mean := prices.Mean(); mean < 0.1 || mean > 0.5 {
		t.Fatalf("mean price = %v, want ~0.25", mean)
	}
	bad := pm
	bad.Base = 0
	if _, err := bad.PriceTrace(tr, nil); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestEnergyCost(t *testing.T) {
	power := timeseries.New("p", "kW", 15*time.Minute, 0)
	price := timeseries.New("c", "per_kWh", time.Hour, 0)
	power.MustAppend(t0, 100) // 100 kW flat
	price.MustAppend(t0, 0.20)
	price.MustAppend(t0.Add(time.Hour), 0.40)

	cost, energy, err := EnergyCost(power, price, t0, t0.Add(2*time.Hour), 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// 200 kWh total; 100 kWh at 0.20 + 100 kWh at 0.40 = 60.
	if math.Abs(energy.KilowattHours()-200) > 1e-9 {
		t.Fatalf("energy = %v kWh", energy.KilowattHours())
	}
	if math.Abs(float64(cost)-60) > 1e-9 {
		t.Fatalf("cost = %v, want 60", float64(cost))
	}
	if _, _, err := EnergyCost(power, price, t0, t0, time.Minute); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, _, err := EnergyCost(power, price, t0, t0.Add(time.Hour), 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestAnnualCostEstimate(t *testing.T) {
	// 3.5 MW at 0.25/kWh: 3.5e3 kW * 8760 h * 0.25 = 7.665M.
	got := AnnualCostEstimate(units.Megawatts(3.5), 0.25)
	if math.Abs(float64(got)-7.6650e6) > 1 {
		t.Fatalf("annual cost = %v", float64(got))
	}
}

func TestGenerateYear(t *testing.T) {
	y, err := GenerateYear(GB2022(), GB2022Prices(), t0, 0.3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if y.Intensity.Len() != 8760 || y.Price.Len() != 8760 {
		t.Fatalf("lengths = %d, %d", y.Intensity.Len(), y.Price.Len())
	}
	if len(y.Events) == 0 {
		t.Fatal("no stress events generated")
	}
	// Prices during stress events are elevated: compare the mean price in
	// events to the overall mean.
	var inSum float64
	var inN int
	for _, ev := range y.Events {
		v, ok := y.Price.ValueAt(ev.Start.Add(time.Hour))
		if ok {
			inSum += v
			inN++
		}
	}
	if inN == 0 {
		t.Fatal("no event prices sampled")
	}
	if inSum/float64(inN) <= y.Price.Mean()*1.5 {
		t.Fatalf("event prices not elevated: %v vs %v", inSum/float64(inN), y.Price.Mean())
	}
}
