package apps

import (
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/roofline"
)

// Table4Row is one published row of the paper's Table 4: performance and
// energy ratios at 2.0 GHz versus 2.25 GHz + turbo (both measured after
// the BIOS change, i.e. in Performance Determinism mode).
type Table4Row struct {
	Name   string
	Nodes  int
	Perf   float64
	Energy float64
	// Uncore is the a-priori memory-system activity class for the code's
	// algorithm family (not published; see DESIGN.md §5).
	Uncore float64
}

// Table4Paper returns the published Table 4, each row's research area
// in its comment.
func Table4Paper() []Table4Row {
	return []Table4Row{
		{Name: "CASTEP Al Slab", Nodes: 4, Perf: 0.93, Energy: 0.88, Uncore: 0.30},       // materials
		{Name: "CP2K H2O 2048", Nodes: 4, Perf: 0.91, Energy: 0.93, Uncore: 0.30},        // materials
		{Name: "GROMACS 1400k", Nodes: 3, Perf: 0.83, Energy: 0.92, Uncore: 0.20},        // biomolecular
		{Name: "LAMMPS Ethanol", Nodes: 4, Perf: 0.74, Energy: 0.92, Uncore: 0.20},       // biomolecular
		{Name: "Nektar++ TGV 128 DoF", Nodes: 2, Perf: 0.80, Energy: 0.80, Uncore: 0.30}, // engineering
		{Name: "ONETEP hBN-BP-hBN", Nodes: 4, Perf: 0.92, Energy: 0.82, Uncore: 0.30},    // materials
		{Name: "VASP CdTe", Nodes: 8, Perf: 0.95, Energy: 0.88, Uncore: 0.30},            // materials
	}
}

// Table3Row is one published row of the paper's Table 3: performance and
// energy ratios of Performance Determinism versus Power Determinism mode
// at the stock 2.25 GHz + turbo setting.
type Table3Row struct {
	Name   string
	Nodes  int
	Perf   float64
	Energy float64
	Uncore float64
	// ComputeFraction is the roofline parameter, taken from the same code's
	// Table 4 calibration where available (Table 3 contains no frequency
	// information from which to infer it).
	ComputeFraction float64
}

// Table3Paper returns the published Table 3. Compute fractions: CASTEP and
// VASP inherit their Table 4 siblings' inversions; OpenSBLI (structured-
// grid compressible CFD) is assigned a mid-range 0.55. Each row's
// research area is in its comment.
func Table3Paper() []Table3Row {
	return []Table3Row{
		{Name: "CASTEP Al Slab (16n)", Nodes: 16, Perf: 0.99, Energy: 0.94, Uncore: 0.30, ComputeFraction: 0.188}, // materials
		{Name: "OpenSBLI TGV 1024^3", Nodes: 32, Perf: 1.00, Energy: 0.90, Uncore: 0.60, ComputeFraction: 0.55},   // engineering
		{Name: "VASP TiO2", Nodes: 32, Perf: 0.99, Energy: 0.93, Uncore: 0.30, ComputeFraction: 0.132},            // materials
	}
}

// Catalog is the calibrated application set.
type Catalog struct {
	// Table4 apps indexed in the paper's row order.
	Table4 []*App
	// Table3 apps indexed in the paper's row order.
	Table3 []*App
	byName map[string]*App
}

// NewCatalog calibrates all named applications against spec. It fails if
// any published row is infeasible under the hardware model — a consistency
// check between the paper's numbers and the twin's physics.
func NewCatalog(spec *cpu.Spec) (*Catalog, error) {
	c := &Catalog{byName: make(map[string]*App)}
	refRuntimes := map[string]time.Duration{
		"CASTEP Al Slab":       45 * time.Minute,
		"CP2K H2O 2048":        70 * time.Minute,
		"GROMACS 1400k":        30 * time.Minute,
		"LAMMPS Ethanol":       40 * time.Minute,
		"Nektar++ TGV 128 DoF": 55 * time.Minute,
		"ONETEP hBN-BP-hBN":    80 * time.Minute,
		"VASP CdTe":            35 * time.Minute,
		"CASTEP Al Slab (16n)": 25 * time.Minute,
		"OpenSBLI TGV 1024^3":  60 * time.Minute,
		"VASP TiO2":            50 * time.Minute,
	}

	for _, row := range Table4Paper() {
		cf, ac, err := CalibrateFrequency(spec, row.Perf, row.Energy, row.Uncore,
			spec.CappedSetting(), cpu.PerformanceDeterminism)
		if err != nil {
			return nil, fmt.Errorf("apps: calibrating %s: %w", row.Name, err)
		}
		app := &App{
			Name:       row.Name,
			Kernel:     roofline.Kernel{ComputeFraction: cf},
			ActCore:    ac,
			ActUncore:  row.Uncore,
			RefNodes:   row.Nodes,
			RefRuntime: refRuntimes[row.Name],
		}
		if err := app.Validate(); err != nil {
			return nil, err
		}
		c.Table4 = append(c.Table4, app)
		c.byName[app.Name] = app
	}

	for _, row := range Table3Paper() {
		ac, err := CalibrateModeSwitch(spec, row.Perf, row.Energy, row.Uncore)
		if err != nil {
			return nil, fmt.Errorf("apps: calibrating %s: %w", row.Name, err)
		}
		app := &App{
			Name:       row.Name,
			Kernel:     roofline.Kernel{ComputeFraction: row.ComputeFraction},
			ActCore:    ac,
			ActUncore:  row.Uncore,
			RefNodes:   row.Nodes,
			RefRuntime: refRuntimes[row.Name],
		}
		if err := app.Validate(); err != nil {
			return nil, err
		}
		c.Table3 = append(c.Table3, app)
		c.byName[app.Name] = app
	}
	return c, nil
}

// ByName returns a calibrated app by its paper name, or nil.
func (c *Catalog) ByName(name string) *App { return c.byName[name] }

// FleetClass describes one synthetic research-area class of the ARCHER2
// workload mix (paper §1.1 lists the major research areas). The activity
// and kernel parameters are plausible per-family values whose weighted
// aggregate is calibrated once against the measured 3,220 kW baseline.
type FleetClass struct {
	Name   string
	Share  float64 // share of fleet node-hours
	C      float64 // roofline compute fraction
	Core   float64 // core-dynamic activity
	Uncore float64 // uncore/memory activity
	// Job-size and runtime distribution parameters (lognormal).
	NodesMedian   float64
	NodesSigma    float64
	RuntimeMedian time.Duration
	RuntimeSigma  float64
}

// FleetClasses returns the ARCHER2-like workload mix by research area.
func FleetClasses() []FleetClass {
	return []FleetClass{
		{Name: "materials-dft", Share: 0.30, C: 0.20, Core: 0.62, Uncore: 0.28,
			NodesMedian: 4, NodesSigma: 0.9, RuntimeMedian: 8 * time.Hour, RuntimeSigma: 0.8},
		{Name: "climate-ocean", Share: 0.20, C: 0.15, Core: 0.52, Uncore: 0.80,
			NodesMedian: 48, NodesSigma: 0.8, RuntimeMedian: 12 * time.Hour, RuntimeSigma: 0.6},
		{Name: "biomolecular-md", Share: 0.12, C: 0.65, Core: 1.20, Uncore: 0.18,
			NodesMedian: 3, NodesSigma: 0.7, RuntimeMedian: 10 * time.Hour, RuntimeSigma: 0.7},
		{Name: "engineering-cfd", Share: 0.15, C: 0.60, Core: 1.15, Uncore: 0.55,
			NodesMedian: 32, NodesSigma: 0.9, RuntimeMedian: 9 * time.Hour, RuntimeSigma: 0.7},
		{Name: "mineral-physics", Share: 0.08, C: 0.25, Core: 0.72, Uncore: 0.28,
			NodesMedian: 8, NodesSigma: 0.8, RuntimeMedian: 7 * time.Hour, RuntimeSigma: 0.8},
		{Name: "seismology", Share: 0.07, C: 0.30, Core: 0.58, Uncore: 0.72,
			NodesMedian: 24, NodesSigma: 0.8, RuntimeMedian: 6 * time.Hour, RuntimeSigma: 0.8},
		{Name: "plasma-physics", Share: 0.08, C: 0.55, Core: 1.05, Uncore: 0.42,
			NodesMedian: 16, NodesSigma: 0.9, RuntimeMedian: 8 * time.Hour, RuntimeSigma: 0.7},
	}
}

// FleetMix converts the fleet classes into weighted App models.
func FleetMix() []WeightedApp {
	classes := FleetClasses()
	out := make([]WeightedApp, len(classes))
	for i, fc := range classes {
		out[i] = WeightedApp{
			App: &App{
				Name:       fc.Name,
				Kernel:     roofline.Kernel{ComputeFraction: fc.C},
				ActCore:    fc.Core,
				ActUncore:  fc.Uncore,
				RefRuntime: fc.RuntimeMedian,
			},
			Weight: fc.Share,
		}
	}
	return out
}
