package sched

import (
	"sort"
	"time"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/node"
	"github.com/greenhpc/archertwin/internal/units"
)

// preemptForHead tries to seat the queue head by evicting the cheapest
// sufficient set of strictly lower-priority running jobs. Victims must
// trail the head by at least Config.PreemptMinGap priority levels;
// cheapest means fewest remaining node-hours (least work lost relative
// to nodes gained), with job ID as the deterministic tiebreak. Nothing
// is evicted unless the assembled set actually frees enough nodes, and
// preemption only answers a node shortage — a power-capped or
// temporally-deferred head never triggers it. Reports whether the head
// now fits.
func (s *Scheduler) preemptForHead(now time.Time) bool {
	head := s.queue.Head()
	need := head.Spec.Nodes - s.freeFor(head)
	if need <= 0 || !s.withinPowerCap(head) {
		return false
	}
	gap := s.cfg.PreemptMinGap
	if gap < 1 {
		gap = 1
	}
	s.victims = s.victims[:0]
	for _, rj := range s.running {
		if s.hetero() && s.partOf(rj) != s.partOf(head) {
			// Evicting a job in another partition frees no node the head
			// can use.
			continue
		}
		if head.Spec.Priority-rj.Spec.Priority >= gap {
			s.victims = append(s.victims, rj)
		}
	}
	cost := func(j *Job) float64 {
		return j.End.Sub(now).Hours() * float64(len(j.Nodes))
	}
	sort.SliceStable(s.victims, func(a, b int) bool {
		ca, cb := cost(s.victims[a]), cost(s.victims[b])
		if ca != cb {
			return ca < cb
		}
		return s.victims[a].Spec.ID < s.victims[b].Spec.ID
	})
	freed, take := 0, 0
	for _, v := range s.victims {
		freed += len(v.Nodes)
		take++
		if freed >= need {
			break
		}
	}
	if freed < need {
		return false
	}
	for _, v := range s.victims[:take] {
		s.preempt(v, now)
	}
	return head.Spec.Nodes <= s.freeFor(head)
}

// preempt evicts one running job: its nodes are released (or captured
// by a draining reservation), its executed segment is charged to the
// delivered-work and energy accounts exactly like a failed job's, and
// the job either re-enters the queue as freshly submitted
// (PreemptRequeue) or terminates as Preempted (PreemptCancel).
func (s *Scheduler) preempt(j *Job, now time.Time) {
	s.eng.Cancel(j.endEvent)
	s.removeRunning(j)

	seg := now.Sub(j.Start)
	var powerSum float64
	for _, id := range j.Nodes {
		powerSum += s.fac.Node(id).Power().Watts()
	}
	segEnergy := j.energyAccrued + units.Watts(powerSum).EnergyOver(now.Sub(j.reclockedAt))

	for _, id := range j.Nodes {
		nd := s.fac.Node(id)
		nd.StopWork(now)
		s.byNode[id] = nil
		if nd.State() == node.Up {
			s.releaseNode(id)
		}
	}
	s.busy -= len(j.Nodes)
	s.estBusyW -= j.actualPowerW

	nodeHours := float64(len(j.Nodes)) * seg.Hours()
	s.stats.Preemptions++
	s.stats.PreemptedNodeHours += nodeHours
	s.stats.NodeHoursUsed += nodeHours
	s.stats.TotalEnergy += segEnergy

	if s.cfg.Preemption == PreemptCancel {
		j.State = Preempted
		j.End = now
		j.Runtime = seg
		j.Energy = segEnergy
		for _, fn := range s.onEnd {
			fn(j)
		}
		s.recycle(j)
		return
	}
	// Requeue: back to pending as if submitted now, everything about the
	// evicted run discarded — it restarts from scratch. Resetting Submit
	// is what guarantees liveness: the preemptor has strictly higher
	// priority, so under aging its aged submit time stays strictly ahead
	// of the victim's (and without aging priority order alone suffices).
	// A victim that kept its original submit time could age ahead of the
	// preemptor, instantly reclaim the freed nodes, and be preempted
	// again forever.
	j.State = Queued
	j.Submit = now
	j.Start, j.End = time.Time{}, time.Time{}
	j.Runtime, j.Energy = 0, 0
	j.Setting, j.Mode, j.Override = cpu.FreqSetting{}, cpu.Mode(0), false
	j.perf, j.actualPowerW = 0, 0
	j.energyAccrued, j.reclockedAt = 0, time.Time{}
	j.Nodes = j.Nodes[:0]
	s.enqueue(j)
}
