// Package sched implements the batch scheduler of the facility twin: FCFS
// with EASY backfill over the compute-node pool, driven by the
// discrete-event engine. It owns job lifecycle (queue -> running ->
// completed), node allocation, per-job energy accounting and the
// utilisation bookkeeping behind the paper's ">90% utilisation in all
// periods" statement.
//
// Operating-point selection is delegated to a SettingsProvider (the policy
// package): when a job starts, its nodes are switched to the provider's
// frequency setting and BIOS mode, and the job's runtime is stretched by
// the application's roofline response. Jobs keep the operating point they
// started with; system-wide changes therefore roll through the fleet over
// roughly one job-lifetime, which is exactly how the real changes appear
// in the paper's cabinet power figures.
//
// On top of the spatial "which nodes" decision sits a temporal "when"
// layer (temporal.go): a pluggable TemporalPolicy can defer otherwise
// startable jobs into low-carbon windows (the paper's §2 regime analysis
// made operational) — see GreedyPolicy, DelayFlexiblePolicy and
// CarbonBudgetPolicy.
//
// Performance: the free-node pool is a bitmap-indexed set (nodeset.go),
// the pending queue pops its front without reallocating the backlog
// (jobqueue.go), the running list is an end-time-sorted index with
// binary-search removal, and job lifecycle events are scheduled through
// des.AtArg so no closure is allocated per job. A submission that lands
// behind the backfill window of a scheduler whose last pass changed
// nothing skips its pass (see Submit). All of it is bit-exact with the
// original sorted-slice implementation — same placements, same event
// order — see docs/performance.md.
//
// Determinism contract: given the same configuration, seed and event
// stream, the scheduler's decisions are byte-identical across runs. It
// draws no randomness of its own — job order comes from the DES engine,
// operating points from the provider, and temporal policies are pure
// functions of simulation time and job identity (see temporal.go) — which
// is what lets the scenario package run sweeps on any worker count with
// identical results.
package sched

import (
	"fmt"
	"sort"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/node"
	"github.com/greenhpc/archertwin/internal/units"
	"github.com/greenhpc/archertwin/internal/workload"
)

// JobState is a job's lifecycle state.
type JobState int

const (
	// Queued: waiting for nodes.
	Queued JobState = iota
	// Running: allocated and executing.
	Running
	// Completed: finished normally.
	Completed
	// Dropped: rejected at submission (queue full or impossible size).
	Dropped
	// Preempted: evicted by a higher-priority job under
	// Config.Preemption == PreemptCancel (a terminal state; requeue-mode
	// victims return to Queued instead).
	Preempted
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Dropped:
		return "dropped"
	case Preempted:
		return "preempted"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Job is a scheduled instance of a workload.JobSpec.
type Job struct {
	Spec  workload.JobSpec
	State JobState

	Submit time.Time
	Start  time.Time
	End    time.Time

	// Nodes allocated (valid while Running and after completion).
	Nodes []int
	// Setting and Mode are the operating point the job ran at.
	Setting cpu.FreqSetting
	Mode    cpu.Mode
	// Override records whether a per-application module override changed
	// the setting away from the system default.
	Override bool
	// Runtime is the stretched wall-clock runtime.
	Runtime time.Duration
	// Energy is the compute-node energy attributed to the job.
	Energy units.Energy

	// perf is the mean per-die performance factor of the allocation.
	perf float64
	// actualPowerW is the allocation's summed node power, maintained for
	// the scheduler's power-cap ledger.
	actualPowerW float64
	// energyAccrued is energy accounted up to the last reclock.
	energyAccrued units.Energy
	// reclockedAt is the start of the current operating-point segment.
	reclockedAt time.Time
	// predMult is the backfill runtime multiplier, valid while predEpoch
	// is the provider's SettingsEpoch (never 0, a new job's epoch).
	predMult  float64
	predEpoch uint64

	endEvent des.Handle

	// releaseAt / releaseEvent track a held (temporal-policy parked)
	// job's pending release, so a checkpoint can capture exactly when —
	// and in which event order — the job re-enters the queue.
	releaseAt    time.Time
	releaseEvent des.Handle
}

// WaitTime returns how long the job queued before starting (0 if it never
// started).
func (j *Job) WaitTime() time.Duration {
	if j.Start.IsZero() {
		return 0
	}
	return j.Start.Sub(j.Submit)
}

// SettingsProvider selects the operating point for a job's application at
// start time.
type SettingsProvider interface {
	// JobSettings returns the frequency setting, BIOS mode and whether a
	// per-app override (away from the system default) was applied.
	JobSettings(app *apps.App) (cpu.FreqSetting, cpu.Mode, bool)
	// PeekSettings returns the operating point JobSettings would choose,
	// without side effects (no counters). Power-cap admission and
	// backfill runtime prediction use it.
	PeekSettings(app *apps.App) (cpu.FreqSetting, cpu.Mode)
	// SettingsEpoch identifies the provider state PeekSettings answers
	// from: never 0, and changed whenever an answer may change.
	SettingsEpoch() uint64
}

// BackfillPolicy selects how the scheduler fills holes behind a blocked
// queue head.
type BackfillPolicy int

const (
	// BackfillEASY (the default) protects only the head job: a later job
	// may jump the queue if it finishes before the head's shadow start
	// time or uses only nodes the head will not need.
	BackfillEASY BackfillPolicy = iota
	// BackfillConservative protects every queued job it scans: each gets
	// a capacity-profile reservation in queue order, and a candidate may
	// start now only if doing so delays none of those planned starts.
	BackfillConservative
)

// String implements fmt.Stringer.
func (p BackfillPolicy) String() string {
	switch p {
	case BackfillEASY:
		return "easy"
	case BackfillConservative:
		return "conservative"
	default:
		return fmt.Sprintf("BackfillPolicy(%d)", int(p))
	}
}

// PreemptionMode selects what happens to lower-priority running work
// when a higher-priority job cannot start.
type PreemptionMode int

const (
	// PreemptOff (the default) never evicts running work.
	PreemptOff PreemptionMode = iota
	// PreemptRequeue evicts victims back into the pending queue with
	// their original submit time (their partial work is discarded).
	PreemptRequeue
	// PreemptCancel evicts victims into the terminal Preempted state.
	PreemptCancel
)

// String implements fmt.Stringer.
func (m PreemptionMode) String() string {
	switch m {
	case PreemptOff:
		return "off"
	case PreemptRequeue:
		return "requeue"
	case PreemptCancel:
		return "cancel"
	default:
		return fmt.Sprintf("PreemptionMode(%d)", int(m))
	}
}

// Config holds scheduler tunables.
type Config struct {
	// BackfillDepth is the number of queued jobs scanned for EASY
	// backfill behind a blocked head (0 disables backfill).
	BackfillDepth int
	// MaxQueue bounds the backlog; arrivals beyond it are dropped. A
	// saturated national service always has a deep queue, but the twin
	// must not grow it without bound.
	MaxQueue int
	// Temporal, when non-nil, is consulted before any otherwise-startable
	// job starts (see TemporalPolicy). Nil is the greedy FCFS baseline.
	Temporal TemporalPolicy
	// ReuseJobs lets the scheduler recycle Job structs and their node-ID
	// slices through an internal free list once a job reaches a terminal
	// state (completed or preempted). Over a 13-month full-machine
	// run that converts ~50 MB of Job allocations and ~36 MB of node-ID
	// slices into a working set the size of the live job population.
	//
	// Ownership contract when enabled: a *Job obtained from Submit or an
	// OnJobEnd callback is valid only until the job's terminal transition
	// returns — callers must copy what they keep (the telemetry
	// accountant and job log do). Dropped jobs are exempt: the drop path
	// returns a fresh, never-pooled struct the caller owns outright. Leave it off (the default) when jobs
	// are inspected after the run, as the scheduler's own tests do;
	// core.Simulator switches it on because the simulation layer never
	// retains job handles. Recycling only ever reuses memory — placement,
	// event order and statistics are bit-identical either way.
	ReuseJobs bool

	// Backfill selects the backfill algorithm behind a blocked head. The
	// zero value is EASY, the behaviour this scheduler always had.
	Backfill BackfillPolicy
	// AgingHours ages queued-job priorities Slurm-style: one level of
	// priority is worth AgingHours hours of queue wait, so a long-waiting
	// low-priority job eventually overtakes fresher high-priority work.
	// Because the aging is linear, the relative order of any two jobs
	// never changes while they wait, and the queue stays statically
	// sorted. Zero (the default) disables aging: strict priority classes
	// with FIFO inside each class.
	AgingHours float64
	// Preemption lets a high-priority head that cannot start evict the
	// cheapest sufficient set of strictly lower-priority running jobs
	// (see PreemptionMode). Off by default.
	Preemption PreemptionMode
}

// DefaultConfig returns production-like scheduler settings.
func DefaultConfig() Config {
	return Config{BackfillDepth: 64, MaxQueue: 4000}
}

// Stats aggregates scheduler activity.
type Stats struct {
	Submitted     int
	StartedJobs   int
	Completed     int
	Dropped       int
	NodeHoursUsed float64 // actual wall-clock node-hours delivered
	TotalWait     time.Duration
	TotalEnergy   units.Energy

	// Holds counts temporal-policy park events (a job re-parked on
	// release counts again); HoldDelay is the total time jobs spent
	// parked. Both are zero without a temporal policy.
	Holds     int
	HoldDelay time.Duration

	// Preemptions counts running jobs evicted for higher-priority work;
	// PreemptedNodeHours is the wall-clock node-hours those evictions
	// discarded (victims restart from scratch). Both are zero unless
	// Config.Preemption is enabled.
	Preemptions        int
	PreemptedNodeHours float64
}

// MeanWait returns the average queue wait of started jobs.
func (s Stats) MeanWait() time.Duration {
	if s.StartedJobs == 0 {
		return 0
	}
	return s.TotalWait / time.Duration(s.StartedJobs)
}

// Scheduler is the batch system.
type Scheduler struct {
	eng      *des.Engine
	fac      *facility.Facility
	provider SettingsProvider
	cfg      Config

	free    *nodeSet // free node IDs (bitmap-indexed)
	queue   jobQueue
	running []*Job // sorted by End ascending
	byNode  []*Job // running job per node ID; nil = not running a job

	// completeFn / releaseFn are the long-lived event callbacks for job
	// completion and held-job release; scheduling them via AtArg with the
	// job as argument avoids a closure allocation per started job.
	completeFn des.ArgEvent
	releaseFn  des.ArgEvent

	stats Stats
	onEnd []func(*Job)
	busy  int

	// powerCap is the admission-control limit (0 = none); estBusyW tracks
	// the committed busy-node power in watts.
	powerCap units.Power
	estBusyW float64

	// heldJobs are the jobs currently parked by the temporal policy (out
	// of the queue, returning via engine release events); recheckAt is
	// the latest pending blocking-policy re-evaluation, if any, and
	// recheckEvents tracks every still-pending recheck event (stale ones
	// included — they fire a scheduling pass too, so a checkpoint must
	// reproduce them). recheckArgFn is the long-lived callback those
	// events share.
	heldJobs      []*Job
	recheckAt     time.Time
	recheckEvents []recheckEvent
	recheckArgFn  des.ArgEvent

	// freeJobs is the terminal-job free list used when cfg.ReuseJobs is
	// set: finish and drop push, Submit pops. Recycled jobs keep their
	// node-ID backing array so a steady-state run stops allocating both.
	freeJobs []*Job

	// bfRemoved collects the queue positions a backfill pass starts or
	// parks, removed in one batch at the end of the pass. prof holds one
	// conservative-backfill capacity profile per partition, built on
	// first use in a pass and reused as scratch across passes; victims is
	// the preemption candidate scratch.
	bfRemoved []int
	prof      []capProfile
	victims   []*Job

	// parts is the facility's resolved partition list when it has more
	// than one partition, nil for the homogeneous machine. All partition
	// free accounting is derived on demand from the free bitmap
	// (nodeSet.CountRange), so the homogeneous fast paths — and the
	// snapshot format — are untouched.
	parts []facility.PartitionInfo

	// settled records that the last scheduling pass ran EASY backfill and
	// changed nothing: it started, parked and preempted no job and
	// consulted no temporal policy, at provider settings epoch
	// settledEpoch. Submit skips the pass for a job that lands behind the
	// backfill window of a settled scheduler (see Submit). Every path
	// that changes nodes or running jobs without ending in a pass clears
	// it; it is not snapshotted, so a restored scheduler starts
	// unsettled. consults counts temporal-policy consultations, so a pass
	// can tell whether it made any; skipped counts the skipped passes.
	settled      bool
	settledEpoch uint64
	consults     int
	skipped      int
}

// New creates a scheduler over the facility's nodes.
func New(eng *des.Engine, fac *facility.Facility, provider SettingsProvider, cfg Config) *Scheduler {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1 << 30
	}
	s := &Scheduler{
		eng:      eng,
		fac:      fac,
		provider: provider,
		cfg:      cfg,
		byNode:   make([]*Job, fac.NodeCount()),
	}
	s.free = newNodeSet(fac.NodeCount())
	if fac.PartitionCount() > 1 {
		s.parts = fac.Partitions()
	}
	s.prof = make([]capProfile, max(len(s.parts), 1))
	s.completeFn = func(now time.Time, arg any) { s.finish(arg.(*Job), now) }
	s.releaseFn = func(now time.Time, arg any) { s.release(arg.(*Job), now) }
	s.recheckArgFn = func(now time.Time, arg any) { s.onRecheck(arg.(time.Time), now) }
	return s
}

// recheckEvent is one pending blocking-policy recheck.
type recheckEvent struct {
	at     time.Time
	handle des.Handle
}

// Stats returns a copy of the aggregate statistics.
func (s *Scheduler) Stats() Stats { return s.stats }

// QueueDepth returns the number of queued jobs (held jobs excluded).
func (s *Scheduler) QueueDepth() int { return s.queue.Len() }

// HeldJobs returns the number of jobs currently parked by the temporal
// policy.
func (s *Scheduler) HeldJobs() int { return len(s.heldJobs) }

// RunningJobs returns the number of running jobs.
func (s *Scheduler) RunningJobs() int { return len(s.running) }

// BusyNodes returns the number of nodes currently running jobs.
func (s *Scheduler) BusyNodes() int { return s.busy }

// Utilisation returns the busy share of the facility's nodes.
func (s *Scheduler) Utilisation() float64 {
	return float64(s.busy) / float64(s.fac.NodeCount())
}

// OnJobEnd registers a callback invoked when a job completes or is
// cancelled by preemption.
func (s *Scheduler) OnJobEnd(fn func(*Job)) { s.onEnd = append(s.onEnd, fn) }

// Kick runs one full scheduling pass (admission, preemption, backfill)
// at the current simulation time without a triggering event — for
// callers that mutate scheduler-relevant state out of band, and for
// benchmarking the pass itself. It always runs the whole pass, settled
// or not, which is what BenchmarkBackfillSaturated measures.
func (s *Scheduler) Kick() { s.trySchedule(s.eng.Now()) }

// Submit enqueues a job at the current simulation time and attempts to
// schedule. It returns the job (possibly already Running, or Dropped).
// With Config.ReuseJobs the returned pointer is only valid until the
// job's terminal transition (see the Config field).
func (s *Scheduler) Submit(spec workload.JobSpec) *Job {
	now := s.eng.Now()
	s.stats.Submitted++
	if spec.Nodes > s.capacityFor(spec) || s.queue.Len() >= s.cfg.MaxQueue {
		s.stats.Dropped++
		// Drop-path jobs are freshly allocated and never pooled: the
		// caller owns the returned struct outright, so inspecting the
		// Dropped state is always safe, ReuseJobs or not.
		return &Job{Spec: spec, State: Dropped, Submit: now}
	}
	j := s.newJob()
	j.Spec, j.State, j.Submit = spec, Queued, now
	pos := s.enqueue(j)
	if s.settled && pos > s.cfg.BackfillDepth && s.provider.SettingsEpoch() == s.settledEpoch {
		// The job is neither the head nor in the scan window, so the
		// pass would see the head, the window, the free and running
		// sets and the predictions of the settled pass that found
		// nothing to do. Only now has moved, and a later now only
		// shrinks the head's shadow window: this pass would change
		// nothing either, and the scheduler stays settled.
		s.skipped++
		return j
	}
	s.trySchedule(now)
	return j
}

// enqueue inserts j at its priority-ordered queue position and returns
// that position. Ties (equal rank) insert after existing entries, so
// with all-zero priorities the queue degenerates to exactly the
// submission-order FIFO it always was: a fresh submission lands at the
// back, a released hold lands after every job with an earlier-or-equal
// submit time. The common case, a job that does not outrank the tail,
// appends without a search; the search would return Len there too,
// because the queue is sorted and so the predicate is monotone.
func (s *Scheduler) enqueue(j *Job) int {
	n := s.queue.Len()
	if n == 0 || !s.queueBefore(j, s.queue.At(n-1)) {
		s.queue.PushBack(j)
		return n
	}
	i := sort.Search(n, func(k int) bool {
		return s.queueBefore(j, s.queue.At(k))
	})
	s.queue.InsertAt(i, j)
	return i
}

// queueBefore reports whether a outranks b in the pending queue. With
// aging, rank is priority plus wait-time credit at one level per
// AgingHours; because the credit is linear in time, the comparison is
// time-invariant (a's rank overtakes b's never or always), which is what
// lets the queue stay statically sorted instead of being re-ranked every
// pass. Without aging, rank is strict priority. Equal ranks fall back to
// submission order.
func (s *Scheduler) queueBefore(a, b *Job) bool {
	if s.cfg.AgingHours > 0 {
		as, bs := s.agedSubmit(a), s.agedSubmit(b)
		if !as.Equal(bs) {
			return as.Before(bs)
		}
	} else if a.Spec.Priority != b.Spec.Priority {
		return a.Spec.Priority > b.Spec.Priority
	}
	return a.Submit.Before(b.Submit)
}

// agedSubmit is a job's submit time minus its priority's worth of aging
// credit; ordering by it is ordering by aged rank.
func (s *Scheduler) agedSubmit(j *Job) time.Time {
	credit := time.Duration(float64(j.Spec.Priority) * s.cfg.AgingHours * float64(time.Hour))
	return j.Submit.Add(-credit)
}

// newJob returns a zeroed Job, from the free list when recycling is on.
// A recycled job keeps its node-ID backing array (length reset) so the
// next start can fill it without allocating.
func (s *Scheduler) newJob() *Job {
	if n := len(s.freeJobs); s.cfg.ReuseJobs && n > 0 {
		j := s.freeJobs[n-1]
		s.freeJobs[n-1] = nil
		s.freeJobs = s.freeJobs[:n-1]
		nodes := j.Nodes[:0]
		*j = Job{Nodes: nodes}
		return j
	}
	return &Job{}
}

// recycle returns a terminal job to the free list when recycling is on.
// Callers guarantee no live reference remains: the queue, running index,
// per-node index and engine events have all released it.
func (s *Scheduler) recycle(j *Job) {
	if s.cfg.ReuseJobs {
		s.freeJobs = append(s.freeJobs, j)
	}
}

// SetPowerCap limits the estimated busy-node power the scheduler will
// commit: jobs whose start would push the estimate over the cap wait even
// if nodes are free. Zero removes the cap. This is the "free up grid
// capacity" lever applied at admission rather than by reclocking running
// work; the two compose. Setting a cap re-evaluates the queue.
func (s *Scheduler) SetPowerCap(cap units.Power) {
	s.powerCap = cap
	s.trySchedule(s.eng.Now())
}

// PowerCap returns the current cap (0 = none).
func (s *Scheduler) PowerCap() units.Power { return s.powerCap }

// EstimatedBusyPower returns the scheduler's running estimate of committed
// busy-node power (expected node power of every running job's allocation).
func (s *Scheduler) EstimatedBusyPower() units.Power {
	return units.Watts(s.estBusyW)
}

// hetero reports whether the facility has multiple partitions.
func (s *Scheduler) hetero() bool { return len(s.parts) > 1 }

// partOf returns j's partition index (see partIndex).
func (s *Scheduler) partOf(j *Job) int { return s.partIndex(j.Spec.Partition) }

// partIndex clamps a requested partition to the facility's actual
// partitions (a job targeting an absent partition runs on the primary —
// and on a homogeneous facility every job maps to partition 0).
func (s *Scheduler) partIndex(p int) int {
	if p < 0 || p >= len(s.parts) {
		return 0
	}
	return p
}

// freeFor returns the free-node count available to j: the whole free set
// on a homogeneous facility, j's partition's slice of it otherwise — an
// on-demand popcount over the partition's bitmap range, so no counter
// maintenance (or snapshot state) exists to drift.
func (s *Scheduler) freeFor(j *Job) int {
	if !s.hetero() {
		return s.free.Count()
	}
	p := &s.parts[s.partOf(j)]
	return s.free.CountRange(p.Start, p.End())
}

// capacityFor returns the total node capacity a job spec could ever use:
// its partition's size on a heterogeneous facility, the whole machine
// otherwise.
func (s *Scheduler) capacityFor(spec workload.JobSpec) int {
	if !s.hetero() {
		return s.fac.NodeCount()
	}
	return s.parts[s.partIndex(spec.Partition)].Nodes
}

// specFor returns the CPU spec of partition p (the facility spec on a
// homogeneous machine).
func (s *Scheduler) specFor(p int) *cpu.Spec {
	if !s.hetero() || p == 0 {
		return s.fac.Config().CPU
	}
	return s.parts[p].CPU
}

// estimateJobPower returns the expected busy power of starting j now.
func (s *Scheduler) estimateJobPower(j *Job) float64 {
	if p := s.partOf(j); p != 0 {
		// Non-primary partitions run at their own spec's default setting
		// (the frequency policy governs the CPU partition only), with
		// their own node layout.
		pi := &s.parts[p]
		return node.ExpectedPowerLayout(pi.CPU, pi.Sockets, pi.Board,
			pi.CPU.DefaultSetting(), j.Spec.App.Activity(), cpu.PowerDeterminism).Watts() *
			float64(j.Spec.Nodes)
	}
	spec := s.fac.Config().CPU
	fs, m := s.provider.PeekSettings(j.Spec.App)
	return node.ExpectedPower(spec, fs, j.Spec.App.Activity(), m).Watts() *
		float64(j.Spec.Nodes)
}

// withinPowerCap reports whether starting j keeps the estimate under cap.
func (s *Scheduler) withinPowerCap(j *Job) bool {
	if s.powerCap.Watts() <= 0 {
		return true
	}
	return s.estBusyW+s.estimateJobPower(j) <= s.powerCap.Watts()
}

// temporalDecision consults the temporal policy for an otherwise
// startable job (nil policy: always start).
func (s *Scheduler) temporalDecision(j *Job, now time.Time) TemporalDecision {
	if s.cfg.Temporal == nil {
		return TemporalDecision{Start: true}
	}
	s.consults++
	return s.cfg.Temporal.Decide(j, now,
		units.Watts(s.estBusyW), units.Watts(s.estimateJobPower(j)))
}

// trySchedule starts the queue head while it fits, then EASY-backfills.
// Jobs the temporal policy defers are parked in the held list (they
// return via release events and do not block the queue behind them); a
// blocking deferral throttles admission as a whole until the policy's
// recheck time. A pass that changes nothing under EASY backfill leaves
// the scheduler settled.
func (s *Scheduler) trySchedule(now time.Time) {
	s.settled = false
	acts := s.actions()
	for {
		for s.queue.Len() > 0 && s.queue.Head().Spec.Nodes <= s.freeFor(s.queue.Head()) && s.withinPowerCap(s.queue.Head()) {
			j := s.queue.Head()
			d := s.temporalDecision(j, now)
			if !d.Start && d.Block {
				s.scheduleRecheck(d.Recheck, now)
				return
			}
			s.queue.PopFront()
			if !d.Start {
				s.hold(j, d.Recheck, now)
				continue
			}
			s.start(j, now)
		}
		if s.cfg.Preemption == PreemptOff || s.queue.Len() == 0 || !s.preemptForHead(now) {
			break
		}
		// Preemption freed enough nodes for the head: run the admission
		// loop again (the head may drag further queue jobs in behind it).
	}
	if s.queue.Len() > 1 && s.cfg.BackfillDepth > 0 {
		if s.cfg.Backfill == BackfillConservative {
			s.backfillConservative(now)
		} else {
			s.backfill(now)
		}
	}
	// Conservative backfill never settles: its planned-start profile is
	// not shown to be monotone in time.
	if s.cfg.Backfill == BackfillEASY && s.actions() == acts {
		s.settled, s.settledEpoch = true, s.provider.SettingsEpoch()
	}
}

// actions counts the decisions a pass can make: starts, parks (each
// preceded by a temporal consultation) and preemptions.
func (s *Scheduler) actions() int {
	return s.stats.StartedJobs + s.consults + s.stats.Preemptions
}

// hold parks a deferred job until its recheck time, when it re-enters
// the queue in submission order and faces the policy again.
func (s *Scheduler) hold(j *Job, recheck, now time.Time) {
	if !recheck.After(now) {
		// A policy that defers without a future recheck would otherwise
		// spin; park for one minute as a safety margin.
		recheck = now.Add(time.Minute)
	}
	s.heldJobs = append(s.heldJobs, j)
	s.stats.Holds++
	s.stats.HoldDelay += recheck.Sub(now)
	j.releaseAt = recheck
	j.releaseEvent = s.eng.AtArg(recheck, s.releaseFn, j)
}

// release returns a held job to the queue, keeping its original rank
// (the insert position is the one its submit time and priority earn).
func (s *Scheduler) release(j *Job, now time.Time) {
	for i, hj := range s.heldJobs {
		if hj == j {
			s.heldJobs = append(s.heldJobs[:i], s.heldJobs[i+1:]...)
			break
		}
	}
	j.releaseAt = time.Time{}
	s.enqueue(j)
	s.trySchedule(now)
}

// scheduleRecheck arranges a scheduling pass at `at` for a blocking
// temporal deferral, deduplicating against an already-pending recheck at
// or before that time (finishes and submissions retrigger scheduling
// anyway).
func (s *Scheduler) scheduleRecheck(at, now time.Time) {
	if !at.After(now) {
		return
	}
	if s.recheckAt.After(now) && !s.recheckAt.After(at) {
		return
	}
	s.recheckAt = at
	h := s.eng.AtArg(at, s.recheckArgFn, at)
	s.recheckEvents = append(s.recheckEvents, recheckEvent{at: at, handle: h})
}

// onRecheck is the recheck event body: clear the pending marker if this
// is the latest recheck, drop the event from the pending list, and run a
// scheduling pass. Stale rechecks (superseded by a later one) still run
// the pass, exactly as they always have.
func (s *Scheduler) onRecheck(at, now time.Time) {
	for i, ev := range s.recheckEvents {
		if ev.at.Equal(at) {
			s.recheckEvents = append(s.recheckEvents[:i], s.recheckEvents[i+1:]...)
			break
		}
	}
	if s.recheckAt.Equal(at) {
		s.recheckAt = time.Time{}
	}
	s.trySchedule(now)
}

// backfill implements EASY: the head's shadow is the first release of
// its partition (see releases) at which the head fits, and the spare
// count is what that release leaves over the head's need. Any later
// queued job that fits now and either finishes before the shadow or
// uses only spare nodes starts. A candidate in a different partition
// cannot delay the head at all — it may start whenever it fits its own
// partition. The walk stops at the crossing, so a pass visits only the
// running jobs ahead of it.
func (s *Scheduler) backfill(now time.Time) {
	head := s.queue.Head()
	headPart := s.partOf(head)
	shadow, extra := s.releases(headPart, s.freeFor(head), head.Spec.Nodes, nil)
	if shadow.IsZero() {
		// Head can never fit (should have been dropped at submit).
		return
	}
	s.bfRemoved = s.bfRemoved[:0]
	// A candidate ends before the shadow iff rt <= shadow - now; the
	// difference is loop-invariant, so the scan compares durations.
	untilShadow := shadow.Sub(now)
	depth := s.cfg.BackfillDepth
	for i := 1; i < s.queue.Len() && depth > 0; i, depth = i+1, depth-1 {
		j := s.queue.At(i)
		if j.Spec.Nodes > s.freeFor(j) || !s.withinPowerCap(j) {
			continue
		}
		// Predict runtime at the current operating point (cached on the
		// job until the provider's settings change).
		rt := s.predictRuntime(j)
		endsBeforeShadow := rt <= untilShadow
		samePart := !s.hetero() || s.partOf(j) == headPart
		if !samePart || endsBeforeShadow || j.Spec.Nodes <= extra {
			d := s.temporalDecision(j, now)
			if !d.Start && d.Block {
				s.scheduleRecheck(d.Recheck, now)
				break
			}
			// Leaves the queue: removed in one batch after the scan.
			s.bfRemoved = append(s.bfRemoved, i)
			if !d.Start {
				s.hold(j, d.Recheck, now)
				continue
			}
			if samePart && !endsBeforeShadow {
				extra -= j.Spec.Nodes
			}
			s.start(j, now)
		}
	}
	s.queue.RemoveSorted(s.bfRemoved)
}

// releases walks partition part's future node releases in time order:
// its running jobs' nodes at End (the running index is End-sorted).
// Counting up from avail, it stops at the first release that brings the
// count to need and returns its time and the excess over need (the zero
// time if none does); out, if non-nil, collects each release walked.
// EASY reads its shadow and spare nodes off the crossing; conservative
// backfill walks everything into its profiles.
func (s *Scheduler) releases(part, avail, need int, out *[]capEvent) (time.Time, int) {
	hetero := s.hetero()
	cum := avail
	for _, rj := range s.running {
		if hetero && s.partOf(rj) != part {
			continue
		}
		n := len(rj.Nodes)
		if out != nil {
			*out = append(*out, capEvent{at: rj.End, delta: n})
		}
		if cum += n; cum >= need {
			return rj.End, cum - need
		}
	}
	return time.Time{}, 0
}

// predictRuntime estimates j's wall-clock runtime at the operating point
// currently in force (PeekSettings: no override counting; other
// partitions at their spec's default setting, as start() runs them). The
// multiplier is cached on the job for the provider's settings epoch.
func (s *Scheduler) predictRuntime(j *Job) time.Duration {
	if epoch := s.provider.SettingsEpoch(); j.predEpoch != epoch {
		app, part := j.Spec.App, s.partOf(j)
		fs, m := s.provider.PeekSettings(app)
		spec := s.specFor(part)
		if part != 0 {
			fs = spec.DefaultSetting()
		}
		j.predMult, j.predEpoch = app.TimeMultiplier(spec, fs, m), epoch
	}
	return time.Duration(float64(j.Spec.RefRuntime) * j.predMult)
}

// start allocates nodes and begins execution.
func (s *Scheduler) start(j *Job, now time.Time) {
	n := j.Spec.Nodes
	part := s.partOf(j)
	// The n lowest free IDs, ascending — the same placement the sorted
	// free list produced. A recycled job's backing array is reused when
	// it is large enough. On a heterogeneous facility the scan is
	// restricted to the job's partition range.
	buf := j.Nodes[:0]
	if cap(buf) < n {
		buf = make([]int, 0, n)
	}
	if s.hetero() {
		p := &s.parts[part]
		j.Nodes = s.free.TakeLowestRange(n, p.Start, p.End(), buf)
	} else {
		j.Nodes = s.free.TakeLowest(n, buf)
	}

	spec := s.specFor(part)
	fs, m, override := s.provider.JobSettings(j.Spec.App)
	if part != 0 {
		// The frequency policy governs the CPU partition; other
		// partitions run at their own spec's default setting (the BIOS
		// determinism mode is fleet-wide and still applies).
		fs, override = spec.DefaultSetting(), false
	}
	if err := spec.ValidateSetting(fs); err != nil {
		panic(fmt.Sprintf("sched: provider returned invalid setting: %v", err))
	}
	j.Setting, j.Mode, j.Override = fs, m, override

	// One voltage/frequency model evaluation per job, one multiply-add
	// per node.
	load := spec.Load(fs, j.Spec.App.Activity())
	var perfSum float64
	var powerSum float64
	for _, id := range j.Nodes {
		nd := s.fac.Node(id)
		nd.StartJob(m, load, now)
		perfSum += nd.PerfFactor()
		powerSum += nd.Power().Watts()
		s.byNode[id] = j
	}
	perf := perfSum / float64(n)

	// The frequency-response half of the stretch dispatches through the
	// app's active PerfModel (measured table or scalar kernel); the
	// sampled per-die perf factor divides outside, as always.
	freqMult := j.Spec.App.FreqMultiplier(spec, fs, m)
	j.Runtime = time.Duration(float64(j.Spec.RefRuntime) * freqMult / perf)
	if j.Runtime <= 0 {
		j.Runtime = time.Second
	}
	j.State = Running
	j.Start = now
	j.End = now.Add(j.Runtime)
	j.Energy = units.Watts(powerSum).EnergyOver(j.Runtime)
	j.perf = perf
	j.reclockedAt = now

	s.busy += n
	s.stats.StartedJobs++
	s.stats.TotalWait += j.WaitTime()
	j.actualPowerW = powerSum
	s.estBusyW += powerSum

	s.insertRunning(j)
	j.endEvent = s.eng.AtArg(j.End, s.completeFn, j)
}

// insertRunning keeps s.running sorted by End.
func (s *Scheduler) insertRunning(j *Job) {
	i := sort.Search(len(s.running), func(k int) bool {
		return s.running[k].End.After(j.End)
	})
	s.running = append(s.running, nil)
	copy(s.running[i+1:], s.running[i:])
	s.running[i] = j
}

// removeRunning deletes j from the End-sorted running index: binary
// search to the first entry with j's End, then a short scan across the
// equal-End group. The linear fallback only runs if j.End was mutated
// after insertion (ReclockRunning re-sorts after patching ends, so it
// should not).
func (s *Scheduler) removeRunning(j *Job) {
	i := sort.Search(len(s.running), func(k int) bool {
		return !s.running[k].End.Before(j.End)
	})
	for ; i < len(s.running) && !s.running[i].End.After(j.End); i++ {
		if s.running[i] == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
	for i, rj := range s.running {
		if rj == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			return
		}
	}
}

// finish completes a running job: its nodes return to the free set and
// its statistics are recorded.
func (s *Scheduler) finish(j *Job, now time.Time) {
	if j.State != Running {
		return
	}
	// The OnJobEnd callbacks below run before the pass and may submit.
	s.settled = false
	j.State = Completed
	s.removeRunning(j)
	s.releaseNodes(j, now)
	s.stats.Completed++
	s.stats.NodeHoursUsed += float64(len(j.Nodes)) * j.Runtime.Hours()
	s.stats.TotalEnergy += j.Energy
	for _, fn := range s.onEnd {
		fn(j)
	}
	s.trySchedule(now)
	// j is terminal and fully unreferenced (queue, running index, per-node
	// index and engine events all released it; trySchedule above touched
	// other jobs only) — recycle it last.
	s.recycle(j)
}

// releaseNodes stops work on a running job's nodes and returns them to
// the free set.
func (s *Scheduler) releaseNodes(j *Job, now time.Time) {
	for _, id := range j.Nodes {
		s.fac.Node(id).StopWork(now)
		s.byNode[id] = nil
		s.free.Add(id)
	}
	s.busy -= len(j.Nodes)
	s.estBusyW -= j.actualPowerW
}

// QueuedJobs returns a snapshot of the queue contents.
func (s *Scheduler) QueuedJobs() []*Job {
	return s.queue.Snapshot()
}

// ReclockRunning switches every running job to the given frequency setting
// immediately — the emergency demand-response lever the paper's grid-
// citizenship discussion motivates. Each job's remaining work is
// re-stretched by the roofline model, its end event rescheduled and its
// energy account patched. New jobs are unaffected (use the policy provider
// to change the default for those). It returns the number of jobs
// reclocked.
func (s *Scheduler) ReclockRunning(fs cpu.FreqSetting) (int, error) {
	spec := s.fac.Config().CPU
	if err := spec.ValidateSetting(fs); err != nil {
		return 0, err
	}
	s.settled = false
	now := s.eng.Now()
	jobs := append([]*Job(nil), s.running...)
	n := 0
	for _, j := range jobs {
		if j.Setting == fs {
			continue
		}
		if s.hetero() && s.partOf(j) != 0 {
			// The demand-response lever reclocks the CPU partition; other
			// partitions hold their own operating point (fs is not even a
			// valid setting for their spec).
			continue
		}
		oldMult := j.Spec.App.FreqMultiplier(spec, j.Setting, j.Mode) / j.perf
		newMult := j.Spec.App.FreqMultiplier(spec, fs, j.Mode) / j.perf

		// Work completed so far, in reference-time units.
		segment := now.Sub(j.reclockedAt)
		var oldPower float64
		for _, id := range j.Nodes {
			oldPower += s.fac.Node(id).Power().Watts()
		}
		j.energyAccrued += units.Watts(oldPower).EnergyOver(segment)

		refRemaining := j.End.Sub(now).Seconds() / oldMult
		newRemaining := time.Duration(refRemaining * newMult * float64(time.Second))
		if newRemaining < 0 {
			newRemaining = 0
		}

		load := spec.Load(fs, j.Spec.App.Activity())
		var newPower float64
		for _, id := range j.Nodes {
			nd := s.fac.Node(id)
			nd.StartJob(nd.Mode(), load, now)
			newPower += nd.Power().Watts()
		}
		j.Setting = fs
		j.reclockedAt = now
		j.End = now.Add(newRemaining)
		j.Runtime = j.End.Sub(j.Start)
		j.Energy = j.energyAccrued + units.Watts(newPower).EnergyOver(newRemaining)
		s.estBusyW += newPower - j.actualPowerW
		j.actualPowerW = newPower

		s.eng.Cancel(j.endEvent)
		j.endEvent = s.eng.AtArg(j.End, s.completeFn, j)
		n++
	}
	// Ends changed: rebuild the sorted running list.
	sort.Slice(s.running, func(a, b int) bool { return s.running[a].End.Before(s.running[b].End) })
	return n, nil
}
