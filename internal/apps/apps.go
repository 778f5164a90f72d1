// Package apps holds the application model: each application is a roofline
// kernel (frequency sensitivity) plus a pair of power activity factors
// (core-dynamic and uncore/memory), together with catalogue metadata.
//
// The eight applications named in the paper are calibrated analytically
// from the published Table 3/4 perf and energy ratios (see calibrate.go);
// seven synthetic fleet classes represent the broader ARCHER2 workload mix
// by research area and are calibrated once, as a group, against the
// facility's baseline power draw.
package apps

import (
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/node"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/units"
)

// App is one application (or synthetic application class).
type App struct {
	// Name identifies the application/benchmark, e.g. "LAMMPS Ethanol".
	Name string

	// Kernel is the analytic frequency-sensitivity model (always
	// populated — calibration produces it from the paper's tables).
	Kernel roofline.Kernel
	// Perf, when non-nil, overrides Kernel as the frequency-response
	// model (a measured roofline.Table, typically). The uniform per-mode
	// performance factor and the sampled per-die factors stay outside
	// the frequency model either way, so swapping implementations never
	// double-counts mode effects. Nil means the scalar kernel — the
	// default path, byte-identical to the pre-PerfModel behaviour.
	Perf roofline.PerfModel
	// ActCore is the core-dynamic activity factor (may exceed 1: the
	// Table 2 "loaded" figure is a typical value, not a cap, and codes
	// like Nektar++ drive packages well above it under boost).
	ActCore float64
	// ActUncore is the memory/uncore activity factor.
	ActUncore float64

	// RefNodes is the node count of the paper's benchmark configuration
	// (0 for fleet classes, which draw sizes from a distribution).
	RefNodes int
	// RefRuntime is the benchmark runtime at the reference operating point
	// (boost frequency, Power Determinism). Synthetic but plausible; only
	// ratios matter for the reproduction.
	RefRuntime time.Duration
}

// Validate checks the app parameters.
func (a *App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("apps: unnamed app")
	}
	if err := a.Kernel.Validate(); err != nil {
		return fmt.Errorf("apps: %s: %w", a.Name, err)
	}
	if a.Perf != nil {
		if err := a.Perf.Validate(); err != nil {
			return fmt.Errorf("apps: %s: %w", a.Name, err)
		}
	}
	if a.ActCore < 0 || a.ActUncore < 0 {
		return fmt.Errorf("apps: %s: negative activity", a.Name)
	}
	return nil
}

// Activity returns the node power activity of this app.
func (a *App) Activity() cpu.Activity {
	return cpu.Activity{Core: a.ActCore, Uncore: a.ActUncore}
}

// Runtime returns the wall-clock runtime of a job with reference runtime
// base, run at the given setting and mode (fleet-expectation perf factor).
func (a *App) Runtime(spec *cpu.Spec, base time.Duration, fs cpu.FreqSetting, m cpu.Mode) time.Duration {
	mult := a.TimeMultiplier(spec, fs, m)
	return time.Duration(float64(base) * mult)
}

// TimeMultiplier returns the runtime multiplier at (setting, mode) relative
// to the reference point (boost, Power Determinism).
func (a *App) TimeMultiplier(spec *cpu.Spec, fs cpu.FreqSetting, m cpu.Mode) float64 {
	return a.FreqMultiplier(spec, fs, m) / spec.MeanPerfFactor(m)
}

// FreqMultiplier returns the frequency-response half of the runtime
// multiplier at (setting, mode) — the active perf model's response,
// without the per-mode performance factor (the scheduler divides by the
// sampled per-die factor instead of the fleet mean). The nil-Perf branch
// is the scalar kernel, dispatched without interface boxing so the
// default path allocates nothing and computes exactly what it always
// did.
func (a *App) FreqMultiplier(spec *cpu.Spec, fs cpu.FreqSetting, m cpu.Mode) float64 {
	f := spec.EffectiveFrequency(fs)
	if a.Perf != nil {
		return a.Perf.Multiplier(f, spec.BoostFreq, roofline.Mode(m))
	}
	return a.Kernel.TimeMultiplier(f, spec.BoostFreq)
}

// NodePower returns the fleet-expectation node power while running this app
// at the given setting and mode.
func (a *App) NodePower(spec *cpu.Spec, fs cpu.FreqSetting, m cpu.Mode) units.Power {
	return node.ExpectedPower(spec, fs, a.Activity(), m)
}

// NodeEnergy returns the expected per-node energy of one run of a job with
// reference runtime base at (setting, mode).
func (a *App) NodeEnergy(spec *cpu.Spec, base time.Duration, fs cpu.FreqSetting, m cpu.Mode) units.Energy {
	return a.NodePower(spec, fs, m).EnergyOver(a.Runtime(spec, base, fs, m))
}

// PerfRatio returns performance at (fsB, mB) relative to (fsA, mA); the
// paper's tables use A = the pre-change configuration.
func (a *App) PerfRatio(spec *cpu.Spec, fsA cpu.FreqSetting, mA cpu.Mode, fsB cpu.FreqSetting, mB cpu.Mode) float64 {
	return a.TimeMultiplier(spec, fsA, mA) / a.TimeMultiplier(spec, fsB, mB)
}

// EnergyRatio returns per-node job energy at (fsB, mB) relative to
// (fsA, mA).
func (a *App) EnergyRatio(spec *cpu.Spec, fsA cpu.FreqSetting, mA cpu.Mode, fsB cpu.FreqSetting, mB cpu.Mode) float64 {
	base := time.Hour // cancels in the ratio
	ea := a.NodeEnergy(spec, base, fsA, mA)
	eb := a.NodeEnergy(spec, base, fsB, mB)
	return eb.Joules() / ea.Joules()
}
