package apps

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/units"
)

func spec() *cpu.Spec { return cpu.EPYC7742() }

func catalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := NewCatalog(spec())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTable4RoundTrip is the core calibration check: every published
// Table 4 row must be reproduced exactly by the calibrated app under the
// power/perf model (analytic inversion followed by forward evaluation).
func TestTable4RoundTrip(t *testing.T) {
	s := spec()
	c := catalog(t)
	def, cap := s.DefaultSetting(), s.CappedSetting()
	m := cpu.PerformanceDeterminism
	for i, row := range Table4Paper() {
		app := c.Table4[i]
		gotPerf := app.PerfRatio(s, def, m, cap, m)
		gotEnergy := app.EnergyRatio(s, def, m, cap, m)
		if math.Abs(gotPerf-row.Perf) > 1e-6 {
			t.Errorf("%s: perf ratio %v, paper %v", row.Name, gotPerf, row.Perf)
		}
		if math.Abs(gotEnergy-row.Energy) > 1e-6 {
			t.Errorf("%s: energy ratio %v, paper %v", row.Name, gotEnergy, row.Energy)
		}
	}
}

// TestTable3RoundTrip: the mode-switch rows must reproduce their published
// energy ratios; perf ratio is the uniform determinism factor (~0.99).
func TestTable3RoundTrip(t *testing.T) {
	s := spec()
	c := catalog(t)
	def := s.DefaultSetting()
	for i, row := range Table3Paper() {
		app := c.Table3[i]
		gotPerf := app.PerfRatio(s, def, cpu.PowerDeterminism, def, cpu.PerformanceDeterminism)
		gotEnergy := app.EnergyRatio(s, def, cpu.PowerDeterminism, def, cpu.PerformanceDeterminism)
		if math.Abs(gotPerf-s.PerfDetPerfFactor) > 1e-9 {
			t.Errorf("%s: perf ratio %v, want %v", row.Name, gotPerf, s.PerfDetPerfFactor)
		}
		// rho = e*r is matched exactly; with the uniform perf factor the
		// energy ratio lands within rounding of the published value.
		wantEnergy := row.Energy * row.Perf / s.PerfDetPerfFactor
		if math.Abs(gotEnergy-wantEnergy) > 1e-6 {
			t.Errorf("%s: energy ratio %v, want %v (paper %v)", row.Name, gotEnergy, wantEnergy, row.Energy)
		}
		if math.Abs(gotEnergy-row.Energy) > 0.02 {
			t.Errorf("%s: energy ratio %v too far from paper %v", row.Name, gotEnergy, row.Energy)
		}
	}
}

func TestCalibratedParametersPlausible(t *testing.T) {
	c := catalog(t)
	for _, app := range append(append([]*App(nil), c.Table4...), c.Table3...) {
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
		if app.ActCore <= 0 || app.ActCore > 3 {
			t.Errorf("%s: core activity %v implausible", app.Name, app.ActCore)
		}
		// Node power at the stock setting should be within the physically
		// observed ARCHER2 band (~300 W to just under 1 kW/node; Nektar++
		// TGV is the hottest calibrated code at ~960 W in Power Determinism).
		p := app.NodePower(spec(), spec().DefaultSetting(), cpu.PowerDeterminism).Watts()
		if p < 300 || p > 1000 {
			t.Errorf("%s: node power %v W implausible", app.Name, p)
		}
	}
	// LAMMPS is the most compute-bound (perf 0.74); VASP the least.
	lammps := c.ByName("LAMMPS Ethanol")
	vasp := c.ByName("VASP CdTe")
	if lammps.Kernel.ComputeFraction <= vasp.Kernel.ComputeFraction {
		t.Errorf("compute fractions out of order: LAMMPS %v <= VASP %v",
			lammps.Kernel.ComputeFraction, vasp.Kernel.ComputeFraction)
	}
}

func TestByName(t *testing.T) {
	c := catalog(t)
	if c.ByName("VASP CdTe") == nil {
		t.Error("VASP CdTe missing")
	}
	if c.ByName("nonexistent") != nil {
		t.Error("unexpected app")
	}
	if n := len(c.Table4) + len(c.Table3); n != 10 {
		t.Errorf("catalog size = %d, want 10", n)
	}
}

func TestRuntimeScaling(t *testing.T) {
	s := spec()
	c := catalog(t)
	lammps := c.ByName("LAMMPS Ethanol")
	base := time.Hour
	ref := lammps.Runtime(s, base, s.DefaultSetting(), cpu.PowerDeterminism)
	if ref != base {
		t.Fatalf("reference runtime = %v, want %v", ref, base)
	}
	capped := lammps.Runtime(s, base, s.CappedSetting(), cpu.PowerDeterminism)
	wantMult := 1 / 0.74
	if math.Abs(float64(capped)/float64(base)-wantMult) > 0.01 {
		t.Fatalf("capped runtime multiplier = %v, want ~%v", float64(capped)/float64(base), wantMult)
	}
	// Performance determinism adds ~1%.
	pd := lammps.Runtime(s, base, s.DefaultSetting(), cpu.PerformanceDeterminism)
	if math.Abs(float64(pd)/float64(base)-1/0.99) > 1e-6 {
		t.Fatalf("perf-det runtime multiplier = %v", float64(pd)/float64(base))
	}
}

func TestCalibrateFrequencyErrors(t *testing.T) {
	s := spec()
	cases := []struct {
		name    string
		r, e, u float64
	}{
		{"perf too low", 0.60, 0.9, 0.3},    // below compute-bound floor
		{"energy too low", 0.95, 0.45, 0.3}, // power ratio below dyn floor
		{"no reduction", 0.99, 1.05, 0.3},   // rho >= 1
		{"bad r", 0, 0.9, 0.3},
	}
	for _, c := range cases {
		if _, _, err := CalibrateFrequency(s, c.r, c.e, c.u, s.CappedSetting(), cpu.PerformanceDeterminism); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCalibrateModeSwitchErrors(t *testing.T) {
	s := spec()
	if _, err := CalibrateModeSwitch(s, 0.99, 0.70, 0.3); err == nil {
		t.Error("infeasible energy ratio accepted")
	}
	if _, err := CalibrateModeSwitch(s, 0.99, 1.10, 0.3); err == nil {
		t.Error("no-reduction ratio accepted")
	}
	if _, err := CalibrateModeSwitch(s, -1, 0.9, 0.3); err == nil {
		t.Error("negative perf ratio accepted")
	}
}

func TestFleetMixShares(t *testing.T) {
	mix := FleetMix()
	if len(mix) != 7 {
		t.Fatalf("fleet classes = %d, want 7", len(mix))
	}
	total := 0.0
	for _, wa := range mix {
		total += wa.Weight
		if err := wa.App.Validate(); err != nil {
			t.Errorf("%s: %v", wa.App.Name, err)
		}
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", total)
	}
	// Materials science is the largest area, per the paper.
	if mix[0].App.Name != "materials-dft" || mix[0].Weight < 0.25 {
		t.Errorf("materials share = %v", mix[0].Weight)
	}
}

func TestCalibrateMixToBusyPower(t *testing.T) {
	s := spec()
	target := units.Watts(540) // fleet busy-node mean behind the 3220 kW baseline
	mix, k, err := CalibrateMixToBusyPower(s, FleetMix(), s.DefaultSetting(), cpu.PowerDeterminism, target)
	if err != nil {
		t.Fatal(err)
	}
	got := ExpectedBusyNodePower(s, mix, s.DefaultSetting(), cpu.PowerDeterminism)
	if math.Abs(got.Watts()-540) > 0.5 {
		t.Fatalf("calibrated busy power = %v, want 540 W", got)
	}
	if k < 0.8 || k > 1.3 {
		t.Fatalf("activity scalar k = %v suspiciously far from 1 (class parameters off)", k)
	}
	// Original mix untouched (ScaleMixActivity copies; compare to the
	// catalogue's configured value).
	if FleetMix()[0].App.ActCore != FleetClasses()[0].Core {
		t.Fatal("calibration mutated the base mix")
	}
}

func TestCalibrateMixErrors(t *testing.T) {
	s := spec()
	if _, _, err := CalibrateMixToBusyPower(s, FleetMix(), s.DefaultSetting(), cpu.PowerDeterminism, units.Watts(100)); err == nil {
		t.Error("sub-idle target accepted")
	}
	if _, _, err := CalibrateMixToBusyPower(s, FleetMix(), s.DefaultSetting(), cpu.PowerDeterminism, units.Watts(5000)); err == nil {
		t.Error("unreachable target accepted")
	}
}

// TestFleetStepPredictions verifies the emergent fleet-level behaviour at
// the busy-node level: the calibrated mix must show a ~6-8% power drop from
// the BIOS change and a further ~17-20% from the frequency cap, consistent
// with the paper's 6.5% and 15% cabinet-level steps (cabinet numbers
// include idle nodes and switches, which dilute the busy-node drop).
func TestFleetStepPredictions(t *testing.T) {
	s := spec()
	mix, _, err := CalibrateMixToBusyPower(s, FleetMix(), s.DefaultSetting(), cpu.PowerDeterminism, units.Watts(540))
	if err != nil {
		t.Fatal(err)
	}
	pd := ExpectedBusyNodePower(s, mix, s.DefaultSetting(), cpu.PowerDeterminism).Watts()
	fd := ExpectedBusyNodePower(s, mix, s.DefaultSetting(), cpu.PerformanceDeterminism).Watts()
	capFd := ExpectedBusyNodePower(s, mix, s.CappedSetting(), cpu.PerformanceDeterminism).Watts()

	biosDrop := 1 - fd/pd
	if biosDrop < 0.05 || biosDrop > 0.11 {
		t.Errorf("BIOS busy-node drop = %.3f, want ~0.07", biosDrop)
	}
	freqDrop := 1 - capFd/fd
	if freqDrop < 0.13 || freqDrop > 0.24 {
		t.Errorf("frequency busy-node drop = %.3f, want ~0.18", freqDrop)
	}
}

func TestEnergyRatioUsesRuntime(t *testing.T) {
	// A purely memory-bound app under the frequency cap: power falls,
	// runtime is unchanged, so the energy ratio equals the power ratio.
	s := spec()
	app := &App{Name: "membound", Kernel: roofline.Kernel{ComputeFraction: 0},
		ActCore: 0.5, ActUncore: 1.0}
	m := cpu.PerformanceDeterminism
	def, capped := s.DefaultSetting(), s.CappedSetting()
	if r := app.PerfRatio(s, def, m, capped, m); math.Abs(r-1) > 1e-12 {
		t.Fatalf("memory-bound perf ratio = %v, want 1", r)
	}
	e := app.EnergyRatio(s, def, m, capped, m)
	powerRatio := app.NodePower(s, capped, m).Watts() / app.NodePower(s, def, m).Watts()
	if math.Abs(e-powerRatio) > 1e-9 {
		t.Fatalf("energy ratio %v != power ratio %v", e, powerRatio)
	}
	if e >= 1 {
		t.Fatalf("energy ratio %v not below 1", e)
	}

	// A fully compute-bound app: runtime stretches by fref/f while core
	// power falls by d(f); energy ratio = power ratio * time multiplier.
	cb := &App{Name: "compbound", Kernel: roofline.Kernel{ComputeFraction: 1},
		ActCore: 1.5, ActUncore: 0.1}
	e = cb.EnergyRatio(s, def, m, capped, m)
	pr := cb.NodePower(s, capped, m).Watts() / cb.NodePower(s, def, m).Watts()
	tm := cb.TimeMultiplier(s, capped, m) / cb.TimeMultiplier(s, def, m)
	if math.Abs(e-pr*tm) > 1e-9 {
		t.Fatalf("energy ratio %v != power*time %v", e, pr*tm)
	}
}
