// Package telemetry is the twin's measurement pipeline, standing in for
// the HPE PMDB cabinet power monitoring used in the paper: periodic
// sampling of cabinet power and utilisation into fixed-cadence time series
// (with optional meter noise), and per-job energy accounting in the style
// of Slurm's sacct energy counters.
package telemetry

import (
	"time"

	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/sched"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
)

// MeterConfig parameterises a cabinet power meter.
type MeterConfig struct {
	// Interval between samples (ARCHER2 PMDB-like: 15 minutes).
	Interval time.Duration
	// NoiseSigma is multiplicative gaussian meter noise (e.g. 0.003 for
	// 0.3%); 0 disables noise.
	NoiseSigma float64
}

// DefaultMeterConfig returns PMDB-like sampling.
func DefaultMeterConfig() MeterConfig {
	return MeterConfig{Interval: 15 * time.Minute, NoiseSigma: 0.003}
}

// Meter samples a facility on the simulation clock.
type Meter struct {
	cfg   MeterConfig
	power *timeseries.Series
	util  *timeseries.Series
	r     *rng.Stream

	// eng/until/tick and the live ticker are retained so a checkpoint can
	// capture the pending sample tick and a fork can resume the tick
	// train mid-cadence (see snapshot.go).
	eng    *des.Engine
	until  time.Time
	tick   des.Event
	ticker *des.Ticker
}

// NewMeter attaches a meter to the facility on engine eng, sampling from
// start+Interval until `until`. The stream r drives meter noise; it may
// be nil when noise is disabled. The meter ticks on an exact cadence, so
// both series record 8 bytes per sample with implicit timestamps.
func NewMeter(eng *des.Engine, fac *facility.Facility, cfg MeterConfig, until time.Time, r *rng.Stream) *Meter {
	// Pre-size for the whole run horizon: a 13-month run at the PMDB
	// cadence is ~38k samples per series, appended one per tick — sizing
	// up front makes the append path allocation-free.
	capacity := 0
	if horizon := until.Sub(eng.Now()); horizon > 0 && cfg.Interval > 0 {
		capacity = int(horizon/cfg.Interval) + 1
	}
	m := &Meter{
		cfg:   cfg,
		power: timeseries.New("cabinet_power", "kW", cfg.Interval, capacity),
		util:  timeseries.New("utilisation", "fraction", cfg.Interval, capacity),
		r:     r,
	}
	m.eng, m.until = eng, until
	m.tick = func(now time.Time) {
		p := fac.CabinetPower().Kilowatts()
		if m.cfg.NoiseSigma > 0 && m.r != nil {
			p *= 1 + m.r.Normal(0, m.cfg.NoiseSigma)
		}
		m.power.MustAppend(now, p)
		m.util.MustAppend(now, fac.Utilisation())
	}
	m.ticker = eng.Every(cfg.Interval, until, m.tick)
	return m
}

// Power returns the cabinet power series (kW).
func (m *Meter) Power() *timeseries.Series { return m.power }

// Utilisation returns the utilisation series.
func (m *Meter) Utilisation() *timeseries.Series { return m.util }

// ClassUsage aggregates delivered work and energy per workload class.
type ClassUsage struct {
	Jobs      int
	NodeHours float64
	Energy    units.Energy
}

// Accountant aggregates per-job accounting by workload class, in the style
// of the service's accounting database.
type Accountant struct {
	byClass map[string]*ClassUsage
	total   ClassUsage
}

// NewAccountant creates an Accountant and registers it on the scheduler.
func NewAccountant(s *sched.Scheduler) *Accountant {
	a := &Accountant{byClass: make(map[string]*ClassUsage)}
	s.OnJobEnd(a.record)
	return a
}

func (a *Accountant) record(j *sched.Job) {
	cu := a.byClass[j.Spec.Class]
	if cu == nil {
		cu = &ClassUsage{}
		a.byClass[j.Spec.Class] = cu
	}
	nh := float64(len(j.Nodes)) * j.Runtime.Hours()
	cu.Jobs++
	cu.NodeHours += nh
	cu.Energy += j.Energy
	a.total.Jobs++
	a.total.NodeHours += nh
	a.total.Energy += j.Energy
}

// Class returns usage for one class (zero value if unseen).
func (a *Accountant) Class(name string) ClassUsage {
	if cu, ok := a.byClass[name]; ok {
		return *cu
	}
	return ClassUsage{}
}

// Classes returns the names of all recorded classes.
func (a *Accountant) Classes() []string {
	out := make([]string, 0, len(a.byClass))
	for name := range a.byClass {
		out = append(out, name)
	}
	return out
}

// Total returns facility-wide usage.
func (a *Accountant) Total() ClassUsage { return a.total }
