// Package cooling models the facility thermal infrastructure: the six
// Coolant Distribution Units (CDUs) and the per-cabinet overheads (power
// supplies, rectifier losses, blowers) from the paper's Table 2.
//
// ARCHER2 is direct liquid cooled; the CDUs draw an essentially constant
// 16 kW each regardless of IT load, while cabinet overheads scale mildly
// with the compute power passing through the cabinet's rectifiers.
package cooling

import (
	"github.com/greenhpc/archertwin/internal/units"
)

// Config describes the cooling and cabinet-overhead plant.
type Config struct {
	CDUs        int
	CDUPower    units.Power // per CDU, load-independent
	Cabinets    int
	CabinetIdle units.Power // per cabinet overhead at idle IT load
	CabinetMax  units.Power // per cabinet overhead at full IT load
}

// ARCHER2Config returns the paper's plant: 6 CDUs at 16 kW and 23 cabinets
// with 4-9 kW overheads.
func ARCHER2Config() Config {
	return Config{
		CDUs:        6,
		CDUPower:    units.Kilowatts(16),
		Cabinets:    23,
		CabinetIdle: units.Kilowatts(4.5),
		CabinetMax:  units.Kilowatts(9),
	}
}

// Plant is an instantiated cooling/overhead model.
type Plant struct {
	cfg Config
}

// New creates a Plant.
func New(cfg Config) *Plant { return &Plant{cfg: cfg} }

// Config returns the plant configuration.
func (p *Plant) Config() Config { return p.cfg }

// CDUTotalPower returns the fixed CDU fleet power.
func (p *Plant) CDUTotalPower() units.Power {
	return units.Watts(p.cfg.CDUPower.Watts() * float64(p.cfg.CDUs))
}

// CabinetOverhead returns the total cabinet overhead power at the given IT
// load fraction (0 = idle fleet, 1 = fully loaded fleet), interpolating
// between the Table 2 idle and loaded figures.
func (p *Plant) CabinetOverhead(itLoad float64) units.Power {
	if itLoad < 0 {
		itLoad = 0
	}
	if itLoad > 1 {
		itLoad = 1
	}
	per := p.cfg.CabinetIdle.Watts() +
		itLoad*(p.cfg.CabinetMax.Watts()-p.cfg.CabinetIdle.Watts())
	return units.Watts(per * float64(p.cfg.Cabinets))
}
