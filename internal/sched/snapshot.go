package sched

import (
	"fmt"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/units"
)

// Snapshot is the scheduler's full mutable state at a checkpoint: the
// pending queue, the running set, temporal-policy parked jobs, the free
// bitmap, the power-cap ledger and the aggregate statistics — plus, for
// every pending engine event the scheduler owns (job completions, held
// releases, blocking-policy rechecks), the parent engine's sequence
// number, so a fork can re-schedule them in the exact relative order the
// parent would have fired them.
//
// Accumulated floats (estBusyW, the stats sums) are captured verbatim
// rather than recomputed: they were built by a particular sequence of
// additions and subtractions, and bit-identity of forked runs requires
// the accumulator state, not a mathematically-equal re-summation.
type Snapshot struct {
	stats    Stats
	busy     int
	powerCap units.Power
	estBusyW float64

	freeBits  []uint64
	freeCount int
	freeLow   int

	queued  []jobSnap // queue order
	running []jobSnap // End-sorted order
	held    []jobSnap

	recheckAt time.Time
	rechecks  []recheckSnap
}

// jobSnap is one job's deep-copied state. The embedded Job value carries
// the parent's App pointer only as a class witness; Restore remaps it to
// the fork's own calibrated application model by class name.
type jobSnap struct {
	job        Job
	endSeq     uint64 // running jobs: parent seq of the completion event
	releaseSeq uint64 // held jobs: parent seq of the release event
}

// recheckSnap is one pending blocking-policy recheck event.
type recheckSnap struct {
	at  time.Time
	seq uint64
}

func snapJob(j *Job, endSeq, releaseSeq uint64) jobSnap {
	js := jobSnap{job: *j, endSeq: endSeq, releaseSeq: releaseSeq}
	js.job.Nodes = append([]int(nil), j.Nodes...)
	js.job.endEvent = des.Handle{}
	js.job.releaseEvent = des.Handle{}
	return js
}

// Snapshot captures the scheduler's state. The result shares no mutable
// memory with the scheduler: jobs and the free bitmap are deep-copied, so
// the snapshot stays valid however the parent runs on, and any number of
// forks can restore from it concurrently.
func (s *Scheduler) Snapshot() *Snapshot {
	snap := &Snapshot{
		stats:     s.stats,
		busy:      s.busy,
		powerCap:  s.powerCap,
		estBusyW:  s.estBusyW,
		freeBits:  append([]uint64(nil), s.free.bits...),
		freeCount: s.free.count,
		freeLow:   s.free.low,
		recheckAt: s.recheckAt,
	}
	for i := 0; i < s.queue.Len(); i++ {
		snap.queued = append(snap.queued, snapJob(s.queue.At(i), 0, 0))
	}
	for _, j := range s.running {
		snap.running = append(snap.running, snapJob(j, j.endEvent.Seq(), 0))
	}
	for _, j := range s.heldJobs {
		snap.held = append(snap.held, snapJob(j, 0, j.releaseEvent.Seq()))
	}
	for _, ev := range s.recheckEvents {
		snap.rechecks = append(snap.rechecks, recheckSnap{at: ev.at, seq: ev.handle.Seq()})
	}
	return snap
}

// Restore overwrites a freshly constructed scheduler's state from a
// snapshot. resolve maps a job's workload class to this scheduler's own
// application model (forks must not alias the parent's). Pending events
// are not scheduled directly: each is handed to add with its parent
// sequence number, so the caller can interleave every subsystem's pending
// events in global parent order before scheduling them on the reset
// engine.
func (s *Scheduler) Restore(snap *Snapshot, resolve func(class string) (*apps.App, error), add func(seq uint64, schedule func())) error {
	s.stats = snap.stats
	s.busy = snap.busy
	s.powerCap = snap.powerCap
	s.estBusyW = snap.estBusyW
	s.free = &nodeSet{
		bits:  append([]uint64(nil), snap.freeBits...),
		count: snap.freeCount,
		low:   snap.freeLow,
	}
	s.queue = jobQueue{}
	s.running = nil
	s.heldJobs = nil
	s.recheckEvents = nil
	s.recheckAt = snap.recheckAt
	s.settled = false
	clear(s.byNode)

	restoreJob := func(js jobSnap) (*Job, error) {
		j := new(Job)
		*j = js.job
		j.Nodes = append([]int(nil), js.job.Nodes...)
		j.predEpoch = 0 // the fork's provider and apps may differ: predict afresh
		app, err := resolve(js.job.Spec.Class)
		if err != nil {
			return nil, fmt.Errorf("sched: restore job %d: %w", js.job.Spec.ID, err)
		}
		j.Spec.App = app
		return j, nil
	}
	for _, js := range snap.queued {
		j, err := restoreJob(js)
		if err != nil {
			return err
		}
		s.queue.PushBack(j)
	}
	for _, js := range snap.running {
		j, err := restoreJob(js)
		if err != nil {
			return err
		}
		s.running = append(s.running, j)
		for _, id := range j.Nodes {
			s.byNode[id] = j
		}
		add(js.endSeq, func() { j.endEvent = s.eng.AtArg(j.End, s.completeFn, j) })
	}
	for _, js := range snap.held {
		j, err := restoreJob(js)
		if err != nil {
			return err
		}
		s.heldJobs = append(s.heldJobs, j)
		add(js.releaseSeq, func() { j.releaseEvent = s.eng.AtArg(j.releaseAt, s.releaseFn, j) })
	}
	for _, rs := range snap.rechecks {
		rs := rs
		add(rs.seq, func() {
			h := s.eng.AtArg(rs.at, s.recheckArgFn, rs.at)
			s.recheckEvents = append(s.recheckEvents, recheckEvent{at: rs.at, handle: h})
		})
	}
	return nil
}
