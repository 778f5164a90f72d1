// Package interconnect models the power of the ARCHER2 Slingshot network:
// 768 switches with the load-insensitive switch power behaviour the paper
// reports ("steady at 200-250 W irrespective of system load", §5).
package interconnect

import (
	"fmt"

	"github.com/greenhpc/archertwin/internal/units"
)

// Config describes a switch fleet.
type Config struct {
	// Switches is the total switch count (ARCHER2: 768).
	Switches int

	// SwitchIdlePower is a switch's draw with no traffic. The paper gives
	// the fleet range 100-200 kW idle for 768 switches (130-260 W each).
	SwitchIdlePower units.Power
	// SwitchLoadedPower is a switch's draw under load (paper: ~250 W,
	// 200 kW fleet). The gap to idle is deliberately small: Slingshot
	// switch power is essentially load-independent.
	SwitchLoadedPower units.Power
}

// ARCHER2Config returns the paper's Slingshot deployment: 768 switches.
func ARCHER2Config() Config {
	return Config{
		Switches:          768,
		SwitchIdlePower:   units.Watts(200),
		SwitchLoadedPower: units.Watts(260),
	}
}

// Fabric is an instantiated switch fleet.
type Fabric struct {
	cfg Config
	// load is the current fleet-wide traffic level in [0, 1].
	load float64
}

// New builds a fabric from cfg. It returns an error for inconsistent
// configurations.
func New(cfg Config) (*Fabric, error) {
	if cfg.Switches <= 0 {
		return nil, fmt.Errorf("interconnect: invalid switch count %d", cfg.Switches)
	}
	if cfg.SwitchLoadedPower.Watts() < cfg.SwitchIdlePower.Watts() {
		return nil, fmt.Errorf("interconnect: loaded power %v below idle %v",
			cfg.SwitchLoadedPower, cfg.SwitchIdlePower)
	}
	return &Fabric{cfg: cfg}, nil
}

// SwitchCount returns the number of switches.
func (f *Fabric) SwitchCount() int { return f.cfg.Switches }

// SetLoad updates the fleet traffic level (clamped to [0, 1]). The paper's
// observation is that power barely responds; modelling it lets the
// telemetry show that insensitivity rather than assume it.
func (f *Fabric) SetLoad(l float64) {
	if l < 0 {
		l = 0
	}
	if l > 1 {
		l = 1
	}
	f.load = l
}

// Load returns the current traffic level.
func (f *Fabric) Load() float64 { return f.load }

// SwitchPower returns one switch's current power draw.
func (f *Fabric) SwitchPower() units.Power {
	idle := f.cfg.SwitchIdlePower.Watts()
	loaded := f.cfg.SwitchLoadedPower.Watts()
	return units.Watts(idle + f.load*(loaded-idle))
}

// TotalPower returns the whole fabric's power draw.
func (f *Fabric) TotalPower() units.Power {
	return units.Watts(f.SwitchPower().Watts() * float64(f.cfg.Switches))
}

// IdleTotalPower returns the fabric draw at zero load.
func (f *Fabric) IdleTotalPower() units.Power {
	return units.Watts(f.cfg.SwitchIdlePower.Watts() * float64(f.cfg.Switches))
}

// LoadedTotalPower returns the fabric draw at full load.
func (f *Fabric) LoadedTotalPower() units.Power {
	return units.Watts(f.cfg.SwitchLoadedPower.Watts() * float64(f.cfg.Switches))
}
