package core

import (
	"fmt"
	"sort"
	"time"
	"unsafe"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/node"
	"github.com/greenhpc/archertwin/internal/policy"
	"github.com/greenhpc/archertwin/internal/sched"
	"github.com/greenhpc/archertwin/internal/telemetry"
	"github.com/greenhpc/archertwin/internal/workload"
)

// Snapshot is the simulation's complete mutable state at a quiescent
// virtual time T (between events, as RunTo leaves it): every subsystem's
// checkpoint plus, for each pending engine event, the parent engine's
// sequence number. A fork reconstructs the event queue by sorting all
// pending events on those sequence numbers, so same-timestamp events fire
// in exactly the order the parent would have fired them — the property
// that makes forked runs bit-identical to cold runs.
//
// A snapshot shares no mutable memory with the simulator it came from and
// is never mutated by Fork, so one snapshot can seed any number of forks,
// concurrently. That is what lets a scenario sweep run a shared prefix
// once and branch N scenario variants at their divergence point.
type Snapshot struct {
	t time.Time

	// Identity of the run the snapshot came from, checked by Fork: a fork
	// may change the future (timeline changes at or after T, fleet
	// variants, carbon policy) but not the past or the simulation shape.
	seed          uint64
	start, end    time.Time
	nodes         int
	partShape     string
	oversub       float64
	meterInterval time.Duration
	timeline      []policy.Change

	fac   *facility.Snapshot
	sch   *sched.Snapshot
	prov  policy.Snapshot
	gen   workload.GeneratorSnapshot
	meter *telemetry.MeterSnapshot
	acct  *telemetry.AccountantSnapshot

	hasJobLog bool
	jobLog    []telemetry.JobRecord

	pumpAt      time.Time
	pumpSeq     uint64
	pumpPending bool
}

// Snapshot captures the simulator's state at the current virtual time.
// The simulator must be quiescent — positioned by RunTo, not mid-event —
// and must not have finished a Run. The simulator itself is unaffected
// and can keep running.
func (s *Simulator) Snapshot() (*Snapshot, error) {
	if s.ran {
		return nil, fmt.Errorf("core: cannot snapshot a finished simulation")
	}
	snap := &Snapshot{
		t:             s.eng.Now(),
		seed:          s.cfg.Seed,
		start:         s.cfg.Start,
		end:           s.cfg.End,
		nodes:         s.cfg.Facility.Nodes,
		partShape:     s.cfg.Facility.PartitionShape(),
		oversub:       s.cfg.OverSubscription,
		meterInterval: s.cfg.Meter.Interval,
		timeline:      append([]policy.Change(nil), s.cfg.Timeline.Changes...),

		fac:   s.fac.Snapshot(),
		sch:   s.sch.Snapshot(),
		prov:  s.provider.Snapshot(),
		gen:   s.gen.Snapshot(),
		meter: s.meter.Snapshot(),
		acct:  s.accountant.Snapshot(),
	}
	if s.jobLog != nil {
		snap.hasJobLog = true
		snap.jobLog = s.jobLog.Snapshot()
	}
	if s.pumpPending {
		snap.pumpAt = s.pumpAt
		snap.pumpSeq = s.pumpHandle.Seq()
		snap.pumpPending = true
	}
	return snap, nil
}

// Fork builds a simulator from cfg and rewinds it onto the snapshot: the
// fork resumes at the snapshot's virtual time with the parent's exact
// state and pending events, then lives under cfg's future — its own
// timeline changes at or after the fork point, fleet variant, carbon
// policy. Running a fork whose cfg equals the parent's is bit-identical
// to running the parent uninterrupted; running a mutated cfg diverges
// exactly at the fork point while sharing the whole common prefix,
// including every random-number stream position (common random numbers
// across branches).
//
// cfg must agree with the snapshot on everything that shaped the prefix:
// seed, span, facility size, meter cadence, and every timeline change
// dated before the fork point.
func Fork(snap *Snapshot, cfg Config) (*Simulator, error) {
	if err := validateFork(snap, cfg); err != nil {
		return nil, err
	}
	// Reuse the parent's calibrated arrival rate: it is a pure function of
	// the configuration the validation above just proved identical, and
	// re-estimating it is the dominant construction cost.
	cfg.arrivalRate = snap.gen.Rate
	sim, err := NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	if err := sim.restore(snap); err != nil {
		return nil, err
	}
	return sim, nil
}

// validateFork checks that cfg shares the snapshot's prefix-shaping
// parameters.
func validateFork(snap *Snapshot, cfg Config) error {
	switch {
	case cfg.Seed != snap.seed:
		return fmt.Errorf("core: fork seed %d != snapshot seed %d", cfg.Seed, snap.seed)
	case !cfg.Start.Equal(snap.start):
		return fmt.Errorf("core: fork start %v != snapshot start %v", cfg.Start, snap.start)
	case !cfg.End.Equal(snap.end):
		return fmt.Errorf("core: fork end %v != snapshot end %v", cfg.End, snap.end)
	case cfg.Facility.Nodes != snap.nodes:
		return fmt.Errorf("core: fork has %d nodes, snapshot %d", cfg.Facility.Nodes, snap.nodes)
	case cfg.Facility.PartitionShape() != snap.partShape:
		return fmt.Errorf("core: fork partition layout %q != snapshot %q",
			cfg.Facility.PartitionShape(), snap.partShape)
	case cfg.OverSubscription != snap.oversub:
		return fmt.Errorf("core: fork oversubscription %g != snapshot %g", cfg.OverSubscription, snap.oversub)
	case cfg.Meter.Interval != snap.meterInterval:
		return fmt.Errorf("core: fork meter interval %v != snapshot %v", cfg.Meter.Interval, snap.meterInterval)
	case cfg.JobLog != snap.hasJobLog:
		return fmt.Errorf("core: fork job-log setting differs from snapshot")
	}
	// The past must match: every timeline change dated before the fork
	// point must be the change the parent actually applied.
	var parentPast []policy.Change
	for _, c := range snap.timeline {
		if c.At.Before(snap.t) {
			parentPast = append(parentPast, c)
		}
	}
	var forkPast []policy.Change
	for _, c := range cfg.Timeline.Changes {
		if c.At.Before(snap.t) {
			forkPast = append(forkPast, c)
		}
	}
	if len(parentPast) != len(forkPast) {
		return fmt.Errorf("core: fork has %d timeline changes before fork point %v, snapshot had %d",
			len(forkPast), snap.t, len(parentPast))
	}
	for i := range parentPast {
		if !changeEqual(parentPast[i], forkPast[i]) {
			return fmt.Errorf("core: fork timeline change at %v differs from the one the parent applied",
				forkPast[i].At)
		}
	}
	return nil
}

// changeEqual reports whether two timeline changes are the same change.
func changeEqual(a, b policy.Change) bool {
	if !a.At.Equal(b.At) {
		return false
	}
	if (a.Mode == nil) != (b.Mode == nil) || (a.Mode != nil && *a.Mode != *b.Mode) {
		return false
	}
	if (a.Setting == nil) != (b.Setting == nil) || (a.Setting != nil && *a.Setting != *b.Setting) {
		return false
	}
	return true
}

// pendingRec is one event awaiting re-scheduling on the fork's reset
// engine, keyed for the global ordering sort: major is the parent
// engine's sequence number; minor breaks ties among events sharing a
// major key (the fork's own timeline changes, which slot in after the
// construction events they follow in a cold run).
type pendingRec struct {
	major    uint64
	minor    int
	schedule func()
}

// restore rewinds a freshly constructed simulator onto the snapshot.
//
// The fork's construction-time event queue is discarded wholesale with an
// engine reset (returning every pooled event item, so nothing scheduled
// at construction stays live — forks share no heap state with parents or
// with their own discarded setup). Each subsystem then restores its state
// and contributes its pending events as (parent seq → schedule) records;
// the records are sorted on the parent's sequence order and scheduled in
// that order on the fresh engine, reproducing the parent's FIFO tie-break
// ranks exactly.
//
// The fork's own timeline changes at or after the fork point are not in
// the snapshot (the parent may not even have them — they are the
// divergence). In a cold run of the fork's config they would have been
// scheduled at construction, directly after the meter's first tick
// (engine seqs 2..k+1); slotting them at major 1 with minors 1..k
// reproduces that rank: after a still-pending construction meter tick
// (major 1, minor 0), before everything scheduled later.
func (s *Simulator) restore(snap *Snapshot) error {
	s.eng.Reset(snap.t)
	var recs []pendingRec
	add := func(seq uint64, schedule func()) {
		recs = append(recs, pendingRec{major: seq, schedule: schedule})
	}

	if err := s.fac.Restore(snap.fac); err != nil {
		return err
	}
	s.provider.Restore(snap.prov)
	s.gen.Restore(snap.gen)
	if err := s.sch.Restore(snap.sch, s.appResolver(), add); err != nil {
		return err
	}
	s.meter.Restore(snap.meter, add)
	s.accountant.Restore(snap.acct)
	if s.jobLog != nil {
		s.jobLog.Restore(snap.jobLog)
	}

	s.pumpPending = false
	if snap.pumpPending {
		at := snap.pumpAt
		add(snap.pumpSeq, func() { s.schedulePump(at) })
	}

	// The fork's own future timeline changes, in timeline (chronological)
	// order at construction rank.
	minor := 0
	for _, c := range s.cfg.Timeline.Changes {
		if !c.At.After(s.cfg.Start) || c.At.Before(snap.t) {
			continue // applied at construction / carried in the provider snapshot
		}
		c := c
		minor++
		recs = append(recs, pendingRec{major: 1, minor: minor, schedule: func() {
			s.eng.At(c.At, func(time.Time) { s.applyChange(c) })
		}})
	}

	sort.Slice(recs, func(i, j int) bool {
		if recs[i].major != recs[j].major {
			return recs[i].major < recs[j].major
		}
		return recs[i].minor < recs[j].minor
	})
	for _, r := range recs {
		r.schedule()
	}
	return nil
}

// applyChange applies one timeline change to the provider, mirroring
// policy.Timeline.Schedule (which validated the change at construction).
func (s *Simulator) applyChange(c policy.Change) {
	if c.Mode != nil {
		s.provider.SetDefaultMode(*c.Mode)
	}
	if c.Setting != nil {
		_ = s.provider.SetDefaultSetting(*c.Setting)
	}
}

// appResolver maps a workload class name to this simulator's own
// calibrated application model, so restored jobs never alias the parent's
// App pointers (a fork may carry a different fleet variant).
func (s *Simulator) appResolver() func(class string) (*apps.App, error) {
	wcfg := s.gen.Config()
	byClass := make(map[string]*apps.App, len(wcfg.Classes))
	for i := range wcfg.Classes {
		byClass[wcfg.Classes[i].Name] = wcfg.Mix[i].App
	}
	return func(class string) (*apps.App, error) {
		app, ok := byClass[class]
		if !ok {
			return nil, fmt.Errorf("core: no application model for workload class %q", class)
		}
		return app, nil
	}
}

// MemoryFootprint returns the snapshot's retained bytes, following the
// Results.MemoryFootprint contract (backing arrays at capacity). Scenario
// sweeps price memoized fork points into their byte budget with it.
func (snap *Snapshot) MemoryFootprint() int64 {
	total := int64(unsafe.Sizeof(*snap))
	total += int64(cap(snap.timeline)) * int64(unsafe.Sizeof(policy.Change{}))
	if snap.fac != nil {
		total += int64(unsafe.Sizeof(*snap.fac))
		total += int64(cap(snap.fac.Nodes)) * int64(unsafe.Sizeof(node.Snapshot{}))
	}
	if snap.sch != nil {
		total += snap.sch.MemoryFootprint()
	}
	if snap.meter != nil {
		total += int64(unsafe.Sizeof(*snap.meter)) + snap.meter.MemoryFootprint()
	}
	if snap.acct != nil {
		total += snap.acct.MemoryFootprint()
	}
	total += int64(cap(snap.jobLog)) * int64(unsafe.Sizeof(telemetry.JobRecord{}))
	return total
}
