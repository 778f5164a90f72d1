package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/units"
)

func TestSpecBasics(t *testing.T) {
	s := EPYC7742()
	if s.Cores != 64 {
		t.Errorf("cores = %d", s.Cores)
	}
	if got := s.DefaultSetting(); got.Base.Gigahertz() != 2.25 || !got.Boost {
		t.Errorf("default setting = %v", got)
	}
	if got := s.CappedSetting(); got.Base.Gigahertz() != 2.0 || got.Boost {
		t.Errorf("capped setting = %v", got)
	}
}

func TestValidateSetting(t *testing.T) {
	s := EPYC7742()
	valid := []FreqSetting{
		{Base: units.Gigahertz(1.5)},
		{Base: units.Gigahertz(2.0)},
		{Base: units.Gigahertz(2.25)},
		{Base: units.Gigahertz(2.25), Boost: true},
	}
	for _, fs := range valid {
		if err := s.ValidateSetting(fs); err != nil {
			t.Errorf("ValidateSetting(%v) = %v", fs, err)
		}
	}
	invalid := []FreqSetting{
		{Base: units.Gigahertz(3.0)},
		{Base: units.Gigahertz(2.0), Boost: true},
	}
	for _, fs := range invalid {
		if err := s.ValidateSetting(fs); err == nil {
			t.Errorf("ValidateSetting(%v) accepted", fs)
		}
	}
}

func TestEffectiveFrequency(t *testing.T) {
	s := EPYC7742()
	if got := s.EffectiveFrequency(s.DefaultSetting()); got != s.BoostFreq {
		t.Errorf("boost effective = %v", got)
	}
	if got := s.EffectiveFrequency(s.CappedSetting()); got.Gigahertz() != 2.0 {
		t.Errorf("capped effective = %v", got)
	}
}

func TestVoltageCurve(t *testing.T) {
	s := EPYC7742()
	cases := []struct {
		ghz  float64
		want float64
	}{
		{1.5, 0.85}, {2.0, 0.95}, {2.25, 1.00}, {2.8, 1.18},
		{1.0, 0.85}, // clamp below
		{3.2, 1.18}, // clamp above
	}
	for _, c := range cases {
		got := s.VoltageAt(units.Gigahertz(c.ghz))
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("V(%v GHz) = %v, want %v", c.ghz, got, c.want)
		}
	}
	// Interpolation between 2.0 and 2.25.
	got := s.VoltageAt(units.Gigahertz(2.125))
	if math.Abs(got-0.975) > 1e-9 {
		t.Errorf("V(2.125) = %v, want 0.975", got)
	}
}

func TestDynFraction(t *testing.T) {
	s := EPYC7742()
	if got := s.DynFraction(s.BoostFreq); math.Abs(got-1) > 1e-9 {
		t.Fatalf("d(boost) = %v, want 1", got)
	}
	d20 := s.DynFraction(units.Gigahertz(2.0))
	want := 2.0 * 0.95 * 0.95 / (2.8 * 1.18 * 1.18)
	if math.Abs(d20-want) > 1e-9 {
		t.Fatalf("d(2.0) = %v, want %v", d20, want)
	}
	// Monotonicity over the curve.
	prev := 0.0
	for _, ghz := range []float64{1.5, 1.8, 2.0, 2.25, 2.5, 2.8} {
		d := s.DynFraction(units.Gigahertz(ghz))
		if d <= prev {
			t.Fatalf("DynFraction not increasing at %v GHz: %v <= %v", ghz, d, prev)
		}
		prev = d
	}
}

func TestPowerComponents(t *testing.T) {
	s := EPYC7742()
	// Idle: zero activity at any setting is just idle power.
	p := s.Power(s.CappedSetting(), Activity{}, 1.0)
	if math.Abs(p.Watts()-85) > 1e-9 {
		t.Fatalf("idle socket power = %v", p)
	}
	// Full activity at boost, dieFactor 1: idle + core + uncore.
	p = s.Power(s.DefaultSetting(), Activity{Core: 1, Uncore: 1}, 1.0)
	if math.Abs(p.Watts()-(85+150+75)) > 1e-9 {
		t.Fatalf("full socket power = %v", p)
	}
	// Uncore power must not change with core frequency.
	pBoost := s.Power(s.DefaultSetting(), Activity{Uncore: 0.8}, 1.0)
	pCap := s.Power(s.CappedSetting(), Activity{Uncore: 0.8}, 1.0)
	if pBoost != pCap {
		t.Fatalf("uncore power varies with frequency: %v vs %v", pBoost, pCap)
	}
	// Core power scales with DynFraction.
	pc := s.Power(s.CappedSetting(), Activity{Core: 1}, 1.0)
	wantCore := 85 + 150*s.DynFraction(units.Gigahertz(2.0))
	if math.Abs(pc.Watts()-wantCore) > 1e-9 {
		t.Fatalf("capped core power = %v, want %v", pc, wantCore)
	}
}

func TestDieFactors(t *testing.T) {
	s := EPYC7742()
	r := rng.New(1)
	if got := s.DrawDieFactor(PowerDeterminism, r); got != 1.0 {
		t.Fatalf("power-det die factor = %v", got)
	}
	if got := s.MeanDieFactor(PowerDeterminism); got != 1.0 {
		t.Fatalf("power-det mean die factor = %v", got)
	}
	if got := s.MeanDieFactor(PerformanceDeterminism); got != s.PerfDetDieFactorMean {
		t.Fatalf("perf-det mean die factor = %v", got)
	}
	// Sampled perf-det factors: bounded, mean near calibrated value.
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		f := s.DrawDieFactor(PerformanceDeterminism, r)
		if f < s.PerfDetDieFactorMean-3*s.PerfDetDieFactorSigma-1e-9 ||
			f > s.PerfDetDieFactorMean+3*s.PerfDetDieFactorSigma+1e-9 {
			t.Fatalf("die factor out of bounds: %v", f)
		}
		sum += f
	}
	if mean := sum / float64(n); math.Abs(mean-s.PerfDetDieFactorMean) > 0.002 {
		t.Fatalf("die factor mean = %v, want %v", mean, s.PerfDetDieFactorMean)
	}
}

func TestPerfFactors(t *testing.T) {
	s := EPYC7742()
	r := rng.New(2)
	if got := s.DrawPerfFactor(PerformanceDeterminism, r); got != s.PerfDetPerfFactor {
		t.Fatalf("perf-det perf factor = %v", got)
	}
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += s.DrawPerfFactor(PowerDeterminism, r)
	}
	if mean := sum / float64(n); math.Abs(mean-1.0) > 0.002 {
		t.Fatalf("power-det perf factor mean = %v", mean)
	}
	if got := s.MeanPerfFactor(PowerDeterminism); got != 1.0 {
		t.Fatalf("MeanPerfFactor(powerdet) = %v", got)
	}
	if got := s.MeanPerfFactor(PerformanceDeterminism); got != 0.99 {
		t.Fatalf("MeanPerfFactor(perfdet) = %v", got)
	}
}

func TestPerfDetReducesPower(t *testing.T) {
	s := EPYC7742()
	a := Activity{Core: 0.8, Uncore: 0.5}
	pd := s.Power(s.DefaultSetting(), a, s.MeanDieFactor(PowerDeterminism))
	pf := s.Power(s.DefaultSetting(), a, s.MeanDieFactor(PerformanceDeterminism))
	if pf.Watts() >= pd.Watts() {
		t.Fatalf("perf-det power %v not below power-det %v", pf, pd)
	}
	// Reduction applies to core dynamic only: bound by core share.
	reduction := 1 - pf.Watts()/pd.Watts()
	if reduction > 0.18 {
		t.Fatalf("reduction %v implausibly large", reduction)
	}
}

func TestModeString(t *testing.T) {
	if PowerDeterminism.String() == "" || PerformanceDeterminism.String() == "" {
		t.Fatal("empty mode strings")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

// Property: socket power is monotone non-decreasing in frequency, activity
// and die factor.
func TestPropertyPowerMonotone(t *testing.T) {
	s := EPYC7742()
	f := func(core, uncore uint8, cap bool) bool {
		a := Activity{Core: float64(core) / 255, Uncore: float64(uncore) / 255}
		low := s.Power(FreqSetting{Base: units.Gigahertz(1.5)}, a, 1.0)
		mid := s.Power(s.CappedSetting(), a, 1.0)
		high := s.Power(s.DefaultSetting(), a, 1.0)
		if low.Watts() > mid.Watts()+1e-9 || mid.Watts() > high.Watts()+1e-9 {
			return false
		}
		// Die factor monotonicity.
		pLo := s.Power(s.DefaultSetting(), a, 0.8)
		pHi := s.Power(s.DefaultSetting(), a, 1.0)
		return pLo.Watts() <= pHi.Watts()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: power never drops below idle.
func TestPropertyPowerAtLeastIdle(t *testing.T) {
	s := EPYC7742()
	f := func(core, uncore uint8) bool {
		a := Activity{Core: float64(core) / 255, Uncore: float64(uncore) / 255}
		for _, fs := range []FreqSetting{
			{Base: units.Gigahertz(1.5)}, s.CappedSetting(), s.DefaultSetting(),
		} {
			if s.Power(fs, a, 0.7).Watts() < s.IdlePower.Watts()-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSplitBitIdentical checks that splitting socket power into a
// per-job Load and a per-die multiply-add is exact: for every P-state with
// and without boost, a grid of activities including zero and die factors
// across the TruncNormal range (plus 1 for Power Determinism), SocketWatts
// equals Power and the original one-expression formula bit for bit.
func TestLoadSplitBitIdentical(t *testing.T) {
	for _, s := range []*Spec{EPYC7742(), AcceleratorGPU()} {
		var settings []FreqSetting
		for _, p := range s.PStates {
			settings = append(settings, FreqSetting{Base: p.Freq}, FreqSetting{Base: p.Freq, Boost: true})
		}
		mean, sigma := s.PerfDetDieFactorMean, s.PerfDetDieFactorSigma
		dies := []float64{1}
		for k := 0; k <= 12; k++ {
			dies = append(dies, mean-3*sigma+float64(k)*sigma/2)
		}
		acts := []float64{0, 0.05, 0.3, 0.62, 0.777, 1, 1.35}
		for _, fs := range settings {
			for _, ac := range acts {
				for _, au := range acts {
					a := Activity{Core: ac, Uncore: au}
					l := s.Load(fs, a)
					for _, die := range dies {
						got := s.SocketWatts(l, die)
						f := s.EffectiveFrequency(fs)
						core := a.Core * s.CoreDynMax.Watts() * s.DynFraction(f) * die
						ref := s.IdlePower.Watts() + core + a.Uncore*s.UncoreDynMax.Watts()
						if math.Float64bits(got) != math.Float64bits(s.Power(fs, a, die).Watts()) ||
							math.Float64bits(got) != math.Float64bits(ref) {
							t.Fatalf("%s %v %+v die %v: split %v, Power %v, formula %v",
								s.Name, fs, a, die, got, s.Power(fs, a, die).Watts(), ref)
						}
					}
				}
			}
		}
	}
}
