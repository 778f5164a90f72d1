package telemetry

import (
	"time"

	"github.com/greenhpc/archertwin/internal/timeseries"
)

// Checkpoint support: each telemetry component can capture its mutable
// state into an immutable snapshot and restore a freshly constructed
// component from one. Series are deep-copied both ways, so one snapshot
// can seed any number of concurrent forks, and pending sample ticks carry
// the parent engine's event sequence number so the fork fires them in the
// parent's exact order.

// MeterSnapshot is a Meter's state at a checkpoint.
type MeterSnapshot struct {
	power  *timeseries.Series
	util   *timeseries.Series
	hasRng bool
	rng    [4]uint64

	tickAt      time.Time
	tickSeq     uint64
	tickPending bool
}

// Snapshot captures the meter's series tails, noise RNG position and
// pending sample tick.
func (m *Meter) Snapshot() *MeterSnapshot {
	s := &MeterSnapshot{power: m.power.Clone(), util: m.util.Clone()}
	if m.r != nil {
		s.hasRng, s.rng = true, m.r.State()
	}
	if next, seq, ok := m.ticker.Pending(); ok {
		s.tickAt, s.tickSeq, s.tickPending = next, seq, true
	}
	return s
}

// Restore overwrites a freshly constructed meter's state from a snapshot.
// The construction-time ticker must already have been discarded with the
// engine reset; the pending tick is handed to add for globally ordered
// re-scheduling.
func (m *Meter) Restore(s *MeterSnapshot, add func(seq uint64, schedule func())) {
	m.power = s.power.Clone()
	m.util = s.util.Clone()
	if s.hasRng && m.r != nil {
		m.r.SetState(s.rng)
	}
	m.ticker.Stop()
	if s.tickPending {
		add(s.tickSeq, func() {
			m.ticker = m.eng.ResumeEvery(s.tickAt, m.cfg.Interval, m.until, m.tick)
		})
	}
}

// AccountantSnapshot is an Accountant's state at a checkpoint.
type AccountantSnapshot struct {
	byClass map[string]ClassUsage
	total   ClassUsage
}

// Snapshot captures the per-class usage aggregates by value.
func (a *Accountant) Snapshot() *AccountantSnapshot {
	s := &AccountantSnapshot{byClass: make(map[string]ClassUsage, len(a.byClass)), total: a.total}
	for name, cu := range a.byClass {
		s.byClass[name] = *cu
	}
	return s
}

// Restore overwrites the accountant's aggregates from a snapshot.
func (a *Accountant) Restore(s *AccountantSnapshot) {
	a.byClass = make(map[string]*ClassUsage, len(s.byClass))
	for name, cu := range s.byClass {
		cu := cu
		a.byClass[name] = &cu
	}
	a.total = s.total
}

// Snapshot returns a copy of the retained job records.
func (l *JobLog) Snapshot() []JobRecord {
	return append([]JobRecord(nil), l.records...)
}

// Restore replaces the log's contents with its own copy of records.
func (l *JobLog) Restore(records []JobRecord) {
	l.records = append([]JobRecord(nil), records...)
}
