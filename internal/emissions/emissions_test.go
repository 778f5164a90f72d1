package emissions

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

func TestDefaultsCrossoverInModerateBand(t *testing.T) {
	// The calibration requirement from §2: at the facility's mean draw, the
	// scope2=scope3 crossover lies inside the 30-100 gCO2/kWh band.
	p := ARCHER2Defaults()
	x := p.CrossoverIntensity(units.Megawatts(3.5)).GramsPerKWh()
	if x < 30 || x > 100 {
		t.Fatalf("crossover = %v g/kWh, want within [30, 100]", x)
	}
	// And close to the band middle (~65).
	if math.Abs(x-65) > 15 {
		t.Fatalf("crossover = %v g/kWh, want ~65", x)
	}
}

func TestAmortisedScope3(t *testing.T) {
	p := ARCHER2Defaults()
	year := p.AmortisedScope3(365 * 24 * time.Hour)
	if got := year.Tonnes(); math.Abs(got-2000) > 20 {
		t.Fatalf("annual scope 3 = %v t, want ~2000", got)
	}
	if p.AmortisedScope3(0) != 0 {
		t.Fatal("zero window nonzero scope 3")
	}
	if p.AmortisedScope3(-time.Hour) != 0 {
		t.Fatal("negative window nonzero scope 3")
	}
	// Full lifetime returns the whole embodied mass.
	full := p.AmortisedScope3(p.Lifetime)
	if math.Abs(full.Grams()-p.Embodied.Grams()) > 1 {
		t.Fatal("lifetime amortisation != embodied total")
	}
}

func TestValidate(t *testing.T) {
	if err := ARCHER2Defaults().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{Embodied: units.Tonnes(-1), Lifetime: time.Hour}).Validate(); err == nil {
		t.Error("negative embodied accepted")
	}
	if err := (Params{Embodied: units.Tonnes(1)}).Validate(); err == nil {
		t.Error("zero lifetime accepted")
	}
}

func TestAccountWindow(t *testing.T) {
	p := ARCHER2Defaults()
	w := p.Account(units.Megawatts(3.5), 365*24*time.Hour, units.GramsPerKWh(200))
	// 30.66 GWh * 200 g/kWh = 6132 t scope 2.
	if got := w.Scope2.Tonnes(); math.Abs(got-6132) > 10 {
		t.Fatalf("scope 2 = %v t, want ~6132", got)
	}
	if got := w.Total.Grams(); math.Abs(got-(w.Scope2.Grams()+w.Scope3.Grams())) > 1 {
		t.Fatal("total != scope2 + scope3")
	}
	if s := w.Scope2Share(); s < 0.7 || s > 0.8 {
		t.Fatalf("scope 2 share = %v, want ~0.75", s)
	}
	if (Window{}).Scope2Share() != 0 {
		t.Fatal("empty window share nonzero")
	}
}

func TestPaperRegimeBands(t *testing.T) {
	// The paper's three bands must map to the three regimes at the
	// facility's operating point.
	p := ARCHER2Defaults()
	power := units.Megawatts(3.5)
	year := 365 * 24 * time.Hour
	cases := []struct {
		g    float64
		want Regime
	}{
		{5, Scope3Dominated},
		{20, Scope3Dominated},
		{65, Balanced},
		{150, Scope2Dominated},
		{250, Scope2Dominated},
	}
	for _, c := range cases {
		w := p.Account(power, year, units.GramsPerKWh(c.g))
		if got := RegimeOf(w); got != c.want {
			t.Errorf("regime at %v g/kWh = %v, want %v (s2=%v s3=%v)",
				c.g, got, c.want, w.Scope2, w.Scope3)
		}
	}
}

func TestRegimeStringsAndStrategies(t *testing.T) {
	for _, r := range []Regime{Scope3Dominated, Balanced, Scope2Dominated, Regime(9)} {
		if r.String() == "" || r.Strategy() == "" {
			t.Fatalf("empty text for regime %d", int(r))
		}
	}
	// Strategy phrasing matches the paper's direction of optimisation.
	if s := Scope3Dominated.Strategy(); s == Scope2Dominated.Strategy() {
		t.Fatal("regime strategies indistinct")
	}
}

func TestCrossoverZeroPower(t *testing.T) {
	if got := ARCHER2Defaults().CrossoverIntensity(0); got != 0 {
		t.Fatalf("crossover at 0 power = %v", got)
	}
}

func TestComputeEfficiency(t *testing.T) {
	// 1000 node-hours, 2 t total.
	e := ComputeEfficiency(1000, units.Tonnes(2))
	if math.Abs(e.NodeHoursPerTonne-500) > 1e-9 {
		t.Errorf("nodeh/t = %v", e.NodeHoursPerTonne)
	}
	if z := ComputeEfficiency(0, 0); z.NodeHoursPerTonne != 0 {
		t.Fatal("zero inputs produced nonzero metrics")
	}
}

func TestSweepMonotone(t *testing.T) {
	p := ARCHER2Defaults()
	intensities := []float64{5, 20, 40, 65, 100, 150, 250}
	pts := p.Sweep(units.Megawatts(3.5), intensities)
	if len(pts) != len(intensities) {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Window.Total.Grams() <= pts[i-1].Window.Total.Grams() {
			t.Fatal("total emissions not increasing with intensity")
		}
		if pts[i].Regime < pts[i-1].Regime {
			t.Fatal("regime not monotone in intensity")
		}
	}
	// Endpoints hit the extreme regimes.
	if pts[0].Regime != Scope3Dominated || pts[len(pts)-1].Regime != Scope2Dominated {
		t.Fatalf("endpoint regimes: %v .. %v", pts[0].Regime, pts[len(pts)-1].Regime)
	}
}

// Property: emissions accounting is additive over windows.
func TestPropertyWindowAdditivity(t *testing.T) {
	p := ARCHER2Defaults()
	f := func(kw uint16, hoursA, hoursB uint8, g uint16) bool {
		power := units.Kilowatts(float64(kw))
		ci := units.GramsPerKWh(float64(g % 400))
		da := time.Duration(hoursA) * time.Hour
		db := time.Duration(hoursB) * time.Hour
		wa := p.Account(power, da, ci)
		wb := p.Account(power, db, ci)
		wab := p.Account(power, da+db, ci)
		sum := wa.Total.Grams() + wb.Total.Grams()
		return math.Abs(sum-wab.Total.Grams()) < 1e-3*(1+wab.Total.Grams())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: scope-2 share increases with carbon intensity.
func TestPropertyScope2ShareMonotone(t *testing.T) {
	p := ARCHER2Defaults()
	f := func(a, b uint16) bool {
		ga, gb := float64(a%500), float64(b%500)
		if ga > gb {
			ga, gb = gb, ga
		}
		year := 365 * 24 * time.Hour
		wa := p.Account(units.Megawatts(3.5), year, units.GramsPerKWh(ga))
		wb := p.Account(units.Megawatts(3.5), year, units.GramsPerKWh(gb))
		return wa.Scope2Share() <= wb.Scope2Share()+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// accountOne accounts powerKW against the one trace ci with AccountTraces.
func accountOne(t *testing.T, p Params, powerKW, ci *timeseries.Series, from, to time.Time) Window {
	t.Helper()
	var out [1]Window
	if err := p.AccountTraces(powerKW, []*timeseries.Series{ci}, from, to, out[:]); err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// Accounting constant power against constant intensity must agree with
// the mean x mean Account to floating-point tolerance.
func TestAccountSeriesMatchesAccountWhenConstant(t *testing.T) {
	p := ARCHER2Defaults()
	from := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(48 * time.Hour)
	power := timeseries.New("cabinet_power", "kW", 30*time.Minute, 0)
	ci := timeseries.New("carbon_intensity", "gCO2/kWh", 30*time.Minute, 0)
	for ts := from.Add(-time.Hour); ts.Before(to.Add(time.Hour)); ts = ts.Add(30 * time.Minute) {
		power.MustAppend(ts, 3220)
		ci.MustAppend(ts, 150)
	}
	got := accountOne(t, p, power, ci, from, to)
	want := p.Account(units.Kilowatts(3220), 48*time.Hour, units.GramsPerKWh(150))
	if math.Abs(got.Scope2.Grams()-want.Scope2.Grams()) > 1e-6*want.Scope2.Grams() {
		t.Errorf("scope 2: got %v want %v", got.Scope2, want.Scope2)
	}
	if got.Scope3 != want.Scope3 {
		t.Errorf("scope 3: got %v want %v", got.Scope3, want.Scope3)
	}
	if math.Abs(got.CI.GramsPerKWh()-150) > 1e-9 {
		t.Errorf("energy-weighted CI %v, want 150", got.CI)
	}
	if math.Abs(got.Energy.KilowattHours()-want.Energy.KilowattHours()) > 1e-6*want.Energy.KilowattHours() {
		t.Errorf("energy: got %v want %v", got.Energy, want.Energy)
	}
}

// The whole point of accounting against a trace: a load anti-correlated with intensity
// (power high when the grid is clean) must account less scope 2 than the
// mean x mean shortcut, and a correlated load more.
func TestAccountSeriesCapturesTemporalCorrelation(t *testing.T) {
	p := ARCHER2Defaults()
	from := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(48 * time.Hour)
	ci := timeseries.New("ci", "gCO2/kWh", 30*time.Minute, 0)
	anti := timeseries.New("p", "kW", 30*time.Minute, 0)
	corr := timeseries.New("p", "kW", 30*time.Minute, 0)
	for ts := from; ts.Before(to); ts = ts.Add(30 * time.Minute) {
		highGrid := (ts.Sub(from)/(6*time.Hour))%2 == 0
		g, pw := 250.0, 1000.0
		if !highGrid {
			g, pw = 50.0, 3000.0
		}
		ci.MustAppend(ts, g)
		anti.MustAppend(ts, pw)      // runs hard when clean
		corr.MustAppend(ts, 4000-pw) // runs hard when dirty
	}
	wAnti := accountOne(t, p, anti, ci, from, to)
	wCorr := accountOne(t, p, corr, ci, from, to)
	// Same total energy by construction (both average 2000 kW).
	if math.Abs(wAnti.Energy.KilowattHours()-wCorr.Energy.KilowattHours()) > 1 {
		t.Fatalf("energy differs: %v vs %v", wAnti.Energy, wCorr.Energy)
	}
	naive := p.Account(units.Kilowatts(2000), 48*time.Hour, units.GramsPerKWh(150))
	if !(wAnti.Scope2.Grams() < naive.Scope2.Grams() && naive.Scope2.Grams() < wCorr.Scope2.Grams()) {
		t.Errorf("correlation not captured: anti %v naive %v corr %v",
			wAnti.Scope2, naive.Scope2, wCorr.Scope2)
	}
	if !(wAnti.CI.GramsPerKWh() < 150 && wCorr.CI.GramsPerKWh() > 150) {
		t.Errorf("energy-weighted CI not shifted: anti %v corr %v", wAnti.CI, wCorr.CI)
	}
}

// An empty window or trace yields a zero account, not NaNs.
func TestAccountSeriesDegenerate(t *testing.T) {
	p := ARCHER2Defaults()
	from := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	w := accountOne(t, p, timeseries.New("p", "kW", time.Hour, 0), timeseries.New("ci", "g", time.Hour, 0), from, from.Add(time.Hour))
	if w.Scope2 != 0 || w.Energy != 0 || w.CI != 0 {
		t.Errorf("degenerate account not zero: %+v", w)
	}
	if math.IsNaN(w.Scope2Share()) {
		t.Error("NaN scope-2 share")
	}
}

// refAccountSeries is the per-trace accounting walk AccountTraces
// replaced, kept as the reference it must match bit for bit: one walk over
// the power series for every trace, on time.Time segment bounds, each
// segment integrated by Series.TimeWeightedMean.
func refAccountSeries(p Params, powerKW, ci *timeseries.Series, from, to time.Time) Window {
	var energyKWh, scope2g float64
	nCI := ci.Len()
	for i := 0; i < nCI; i++ {
		smp := ci.At(i)
		segFrom, segTo := smp.T, to
		if i+1 < nCI {
			if next := ci.At(i + 1).T; next.Before(to) {
				segTo = next
			}
		}
		if segFrom.Before(from) {
			segFrom = from
		}
		if !segTo.After(segFrom) {
			continue
		}
		meanKW := powerKW.TimeWeightedMean(segFrom, segTo)
		kwh := meanKW * segTo.Sub(segFrom).Hours()
		energyKWh += kwh
		scope2g += kwh * smp.V
	}
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

// sameWindow reports whether two accounts agree bit for bit.
func sameWindow(a, b Window) bool {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	return a.Duration == b.Duration &&
		bits(a.Energy.Joules()) == bits(b.Energy.Joules()) &&
		bits(a.CI.GramsPerKWh()) == bits(b.CI.GramsPerKWh()) &&
		bits(a.Scope2.Grams()) == bits(b.Scope2.Grams()) &&
		bits(a.Scope3.Grams()) == bits(b.Scope3.Grams()) &&
		bits(a.Total.Grams()) == bits(b.Total.Grams())
}

// TestAccountTracesMatchesPerTraceWalk prices random power series against
// several random traces sharing one random cadence, over random windows,
// and checks every account — and the one-trace case of each trace alone —
// against a walk of its own per trace, bit for bit.
func TestAccountTracesMatchesPerTraceWalk(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	p := ARCHER2Defaults()
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	series := func(name string, epoch time.Time, step time.Duration, n int, level float64) *timeseries.Series {
		s := timeseries.New(name, "u", step, n)
		for i := 0; i < n; i++ {
			s.MustAppend(epoch.Add(time.Duration(i)*step), level*(1+rnd.Float64()))
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		pStep := time.Duration(1+rnd.Intn(90)) * time.Minute
		power := series("p", base.Add(time.Duration(rnd.Intn(7200)-3600)*time.Second), pStep, rnd.Intn(400), 3000)
		ciStep := []time.Duration{15 * time.Minute, 30 * time.Minute, time.Hour, 7 * time.Minute}[rnd.Intn(4)]
		ciEpoch := base.Add(time.Duration(rnd.Intn(7200)-3600) * time.Second)
		nCI := rnd.Intn(300)
		cis := make([]*timeseries.Series, 1+rnd.Intn(5))
		for k := range cis {
			cis[k] = series("ci", ciEpoch, ciStep, nCI, 20+rnd.Float64()*300)
		}
		from := base.Add(time.Duration(rnd.Int63n(int64(96*time.Hour))) - 24*time.Hour)
		to := from.Add(time.Duration(rnd.Int63n(int64(120*time.Hour))) - 6*time.Hour)
		if rnd.Intn(20) == 0 {
			to = from.AddDate(300, 0, 0)
		}

		out := make([]Window, len(cis))
		if err := p.AccountTraces(power, cis, from, to, out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k, ci := range cis {
			want := refAccountSeries(p, power, ci, from, to)
			if !sameWindow(out[k], want) {
				t.Fatalf("trial %d trace %d: AccountTraces %+v, per-trace walk %+v", trial, k, out[k], want)
			}
			if got := accountOne(t, p, power, ci, from, to); !sameWindow(got, want) {
				t.Fatalf("trial %d trace %d: one-trace AccountTraces %+v, per-trace walk %+v", trial, k, got, want)
			}
		}
	}
}

// Traces off each other's cadence cut the window into different segments:
// AccountTraces must refuse them rather than price one by another's.
func TestAccountTracesRejectsMixedCadence(t *testing.T) {
	p := ARCHER2Defaults()
	from := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(epoch time.Time, step time.Duration, n int) *timeseries.Series {
		s := timeseries.New("s", "u", step, n)
		for i := 0; i < n; i++ {
			s.MustAppend(epoch.Add(time.Duration(i)*step), 100)
		}
		return s
	}
	power := mk(from, 15*time.Minute, 96)
	ci := mk(from, 30*time.Minute, 48)
	for name, other := range map[string]*timeseries.Series{
		"step":   mk(from, time.Hour, 48),
		"length": mk(from, 30*time.Minute, 47),
		"epoch":  mk(from.Add(time.Minute), 30*time.Minute, 48),
	} {
		out := make([]Window, 2)
		if err := p.AccountTraces(power, []*timeseries.Series{ci, other}, from, from.Add(24*time.Hour), out); err == nil {
			t.Errorf("trace off the cadence by %s accepted", name)
		}
	}
	if err := p.AccountTraces(power, []*timeseries.Series{ci}, from, from.Add(time.Hour), nil); err == nil {
		t.Error("AccountTraces accepted fewer windows than traces")
	}
}
