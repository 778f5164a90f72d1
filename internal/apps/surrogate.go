package apps

import (
	"fmt"
	"math"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/units"
)

// This file implements the paper's other stated future-work direction:
// "looking at the impact on energy and emissions efficiency of replacing
// parts of modelling applications by AI-based approaches" (paper §5).
//
// An AI surrogate trades a large one-off training energy cost for much
// cheaper inference-dominated production runs. Whether that trade pays
// off depends on how many production runs amortise the training: the
// break-even analysis below.

// Surrogate describes an AI replacement for (part of) a simulation code.
type Surrogate struct {
	Name string
	// TrainingEnergy is the one-off energy cost of training the model.
	TrainingEnergy units.Energy
	// SpeedupFactor is how much faster a production run completes when the
	// surrogate replaces the simulated component (>1).
	SpeedupFactor float64
	// NodeFactor scales the node count of a production run (inference
	// typically needs far fewer nodes), in (0, 1].
	NodeFactor float64
	// CoveredFraction is the fraction of the original runtime the
	// surrogate replaces (the rest still runs conventionally), in (0, 1].
	CoveredFraction float64
}

// Validate checks the surrogate parameters.
func (s Surrogate) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("apps: unnamed surrogate")
	}
	if s.TrainingEnergy.Joules() < 0 {
		return fmt.Errorf("apps: surrogate %s: negative training energy", s.Name)
	}
	if s.SpeedupFactor <= 1 {
		return fmt.Errorf("apps: surrogate %s: speedup %v must exceed 1", s.Name, s.SpeedupFactor)
	}
	if s.NodeFactor <= 0 || s.NodeFactor > 1 {
		return fmt.Errorf("apps: surrogate %s: node factor %v outside (0,1]", s.Name, s.NodeFactor)
	}
	if s.CoveredFraction <= 0 || s.CoveredFraction > 1 {
		return fmt.Errorf("apps: surrogate %s: covered fraction %v outside (0,1]", s.Name, s.CoveredFraction)
	}
	return nil
}

// RunEnergy returns the per-run compute energy of app at (setting, mode)
// across its reference node count.
func RunEnergy(spec *cpu.Spec, app *App, fs cpu.FreqSetting, m cpu.Mode) units.Energy {
	perNode := app.NodeEnergy(spec, app.RefRuntime, fs, m)
	nodes := app.RefNodes
	if nodes <= 0 {
		nodes = 1
	}
	return perNode.Scale(float64(nodes))
}

// SurrogateRunEnergy returns the per-run energy with the surrogate in
// place: the covered fraction runs SpeedupFactor faster on NodeFactor of
// the nodes; the remainder is unchanged.
func SurrogateRunEnergy(spec *cpu.Spec, app *App, s Surrogate, fs cpu.FreqSetting, m cpu.Mode) (units.Energy, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	full := RunEnergy(spec, app, fs, m)
	covered := full.Scale(s.CoveredFraction)
	uncovered := full.Scale(1 - s.CoveredFraction)
	replaced := covered.Scale(s.NodeFactor / s.SpeedupFactor)
	return uncovered + replaced, nil
}

// BreakEvenRuns returns the number of production runs after which the
// surrogate's cumulative energy (training + cheaper runs) beats the
// conventional code, at the given operating point. It returns
// (0, error) if the surrogate saves no energy per run, and rounds up.
func BreakEvenRuns(spec *cpu.Spec, app *App, s Surrogate, fs cpu.FreqSetting, m cpu.Mode) (int, error) {
	conv := RunEnergy(spec, app, fs, m)
	sur, err := SurrogateRunEnergy(spec, app, s, fs, m)
	if err != nil {
		return 0, err
	}
	saving := conv.Joules() - sur.Joules()
	if saving <= 0 {
		return 0, fmt.Errorf("apps: surrogate %s saves no energy per run", s.Name)
	}
	return int(math.Ceil(s.TrainingEnergy.Joules() / saving)), nil
}

// TrainingEnergyFromRuns is a convenience for expressing training cost as
// a multiple of the conventional per-run energy ("training cost ~ 500
// production runs" is the natural unit practitioners quote).
func TrainingEnergyFromRuns(spec *cpu.Spec, app *App, fs cpu.FreqSetting, m cpu.Mode, runs float64) units.Energy {
	return RunEnergy(spec, app, fs, m).Scale(runs)
}
