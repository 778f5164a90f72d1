package telemetry

import (
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

// Cabinet-granular metering: the real PMDB reports per-cabinet power (the
// acknowledgements thank HPE for "power monitoring from ARCHER2 cabinets
// and switches"). CabinetMeters samples each cabinet's node power plus its
// share of the switch fleet into one series per cabinet, which the
// facility-level figures then aggregate.

// CabinetMeters samples per-cabinet power. Cabinet meters tick on an
// exact interval, so each cabinet's trace is a fixed-cadence
// timeseries.Series (implicit timestamps) — at ARCHER2 scale that is 23
// cabinet-year series whose timestamps would otherwise all encode the
// same clock.
type CabinetMeters struct {
	fac      *facility.Facility
	series   []*timeseries.Series
	nodesOf  [][]int
	interval time.Duration

	// eng/until and the live ticker are retained so a checkpoint can
	// capture the pending sample tick and a fork can resume mid-cadence
	// (see snapshot.go).
	eng    *des.Engine
	until  time.Time
	ticker *des.Ticker
}

// NewCabinetMeters attaches per-cabinet meters sampling every interval
// until `until`.
func NewCabinetMeters(eng *des.Engine, fac *facility.Facility, interval time.Duration, until time.Time) (*CabinetMeters, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("telemetry: non-positive cabinet meter interval")
	}
	nCab := fac.Config().Cabinets
	cm := &CabinetMeters{
		fac:      fac,
		series:   make([]*timeseries.Series, nCab),
		nodesOf:  make([][]int, nCab),
		interval: interval,
	}
	capacity := 0
	if horizon := until.Sub(eng.Now()); horizon > 0 {
		capacity = int(horizon/interval) + 1
	}
	for c := 0; c < nCab; c++ {
		cm.series[c] = timeseries.New(fmt.Sprintf("cabinet_%02d_power", c), "kW", interval, capacity)
	}
	for i := 0; i < fac.NodeCount(); i++ {
		c := fac.CabinetOfNode(i)
		cm.nodesOf[c] = append(cm.nodesOf[c], i)
	}
	cm.eng, cm.until = eng, until
	cm.ticker = eng.Every(interval, until, cm.sample)
	return cm, nil
}

func (cm *CabinetMeters) sample(now time.Time) {
	fab := cm.fac.Fabric()
	fab.SetLoad(cm.fac.Utilisation())
	switchShare := fab.TotalPower().Watts() / float64(len(cm.series))
	for c, nodes := range cm.nodesOf {
		var w float64
		for _, id := range nodes {
			w += cm.fac.Node(id).Power().Watts()
		}
		cm.series[c].MustAppend(now, (w+switchShare)/1000)
	}
}

// Cabinets returns the number of metered cabinets.
func (cm *CabinetMeters) Cabinets() int { return len(cm.series) }

// Series returns cabinet c's power series (kW).
func (cm *CabinetMeters) Series(c int) *timeseries.Series { return cm.series[c] }

// MemoryFootprint returns the meters' retained bytes (series plus the
// node-index fan-out), for core.Results.MemoryFootprint accounting.
func (cm *CabinetMeters) MemoryFootprint() int64 {
	var total int64
	for _, s := range cm.series {
		total += s.MemoryFootprint()
	}
	for _, nodes := range cm.nodesOf {
		total += int64(cap(nodes)) * 8
	}
	return total
}

// TotalAt sums all cabinet series' sample-and-hold values at time t.
func (cm *CabinetMeters) TotalAt(t time.Time) (units.Power, bool) {
	var kw float64
	for _, s := range cm.series {
		v, ok := s.ValueAt(t)
		if !ok {
			return 0, false
		}
		kw += v
	}
	return units.Kilowatts(kw), true
}

// Imbalance returns (max-min)/mean of cabinet mean power over the metered
// period — a load-balance health metric for the allocator.
func (cm *CabinetMeters) Imbalance() float64 {
	if len(cm.series) == 0 || cm.series[0].Len() == 0 {
		return 0
	}
	min, max, sum := 0.0, 0.0, 0.0
	for i, s := range cm.series {
		m := s.Mean()
		if i == 0 || m < min {
			min = m
		}
		if i == 0 || m > max {
			max = m
		}
		sum += m
	}
	mean := sum / float64(len(cm.series))
	if mean == 0 {
		return 0
	}
	return (max - min) / mean
}
