package sched

import (
	"fmt"
	"sort"
	"time"

	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/node"
)

// Reservation is a drain/maintenance hold on a set of nodes over
// [From, To): at From, free reserved nodes leave the schedulable pool
// immediately and busy ones drain — their running jobs finish
// undisturbed, and the nodes are captured as they come free. At To,
// every captured node returns to service. The semantics mirror a Slurm
// maintenance reservation with graceful drain: start and backfill route
// around the hold (captured nodes are in neither the free set nor
// UpNodes), but running work is never killed for it.
type Reservation struct {
	Name  string
	Nodes []int
	From  time.Time
	To    time.Time
}

// resvState is one reservation's live bookkeeping.
type resvState struct {
	res     Reservation
	started bool
	// count is the number of nodes currently captured.
	count int
	// startEvent is pending until From (unset if From had passed at
	// install time); endEvent is pending until To.
	startEvent des.Handle
	endEvent   des.Handle
}

// AddReservation installs a reservation at the current simulation time.
// A From at or before now takes effect immediately; To must be in the
// future. Node IDs are copied, deduplicated and sorted.
func (s *Scheduler) AddReservation(r Reservation) error {
	now := s.eng.Now()
	if len(r.Nodes) == 0 {
		return fmt.Errorf("sched: reservation %q has no nodes", r.Name)
	}
	if !r.To.After(r.From) {
		return fmt.Errorf("sched: reservation %q window [%v, %v) is empty", r.Name, r.From, r.To)
	}
	if !r.To.After(now) {
		return fmt.Errorf("sched: reservation %q ends at %v, in the past", r.Name, r.To)
	}
	nodes := append([]int(nil), r.Nodes...)
	sort.Ints(nodes)
	w := 0
	for i, id := range nodes {
		if id < 0 || id >= s.fac.NodeCount() {
			return fmt.Errorf("sched: reservation %q: no node %d", r.Name, id)
		}
		if i > 0 && id == nodes[w-1] {
			continue
		}
		nodes[w] = id
		w++
	}
	r.Nodes = nodes[:w]

	rs := &resvState{res: r}
	s.resvs = append(s.resvs, rs)
	if r.From.After(now) {
		rs.startEvent = s.eng.AtArg(r.From, s.resvStartFn, rs)
	} else {
		s.resvStart(rs, now)
	}
	rs.endEvent = s.eng.AtArg(r.To, s.resvEndFn, rs)
	return nil
}

// CancelReservation ends (or, if not yet started, removes) the named
// reservation, returning whether one was found.
func (s *Scheduler) CancelReservation(name string) bool {
	for _, rs := range s.resvs {
		if rs.res.Name != name {
			continue
		}
		if !rs.started {
			s.eng.Cancel(rs.startEvent)
		}
		s.eng.Cancel(rs.endEvent)
		s.resvEnd(rs, s.eng.Now())
		return true
	}
	return false
}

// Reservations returns the names of the installed (pending or active)
// reservations.
func (s *Scheduler) Reservations() []string {
	names := make([]string, len(s.resvs))
	for i, rs := range s.resvs {
		names[i] = rs.res.Name
	}
	return names
}

// ReservedNodes returns the number of nodes currently captured by
// reservations (out of the free set and UpNodes).
func (s *Scheduler) ReservedNodes() int { return len(s.captured) }

// DrainingNodes returns the number of busy nodes a started reservation
// is waiting to capture.
func (s *Scheduler) DrainingNodes() int { return len(s.draining) }

// resvStart brings a reservation's window into force: free reserved
// nodes are captured at once, busy ones are marked draining (captured by
// releaseNode when their job ends). Down nodes are skipped — RepairNode
// captures them if they return during the window — and nodes already
// held by an overlapping reservation stay with their first captor.
func (s *Scheduler) resvStart(rs *resvState, _ time.Time) {
	// Capturing free nodes runs no pass but can move the head's shadow.
	s.settled = false
	rs.started = true
	for _, id := range rs.res.Nodes {
		if s.fac.Node(id).State() != node.Up {
			continue
		}
		if s.byNode[id] != nil {
			if s.draining == nil {
				s.draining = make(map[int]*resvState)
			}
			if _, taken := s.draining[id]; !taken {
				s.draining[id] = rs
			}
		} else if s.free.Remove(id) {
			s.capture(rs, id)
			s.upNodes--
		}
	}
}

// resvEnd releases a reservation: captured nodes return to service,
// still-draining markers are dropped (those nodes go straight back to
// the free set when their job ends), and the reservation is removed.
func (s *Scheduler) resvEnd(rs *resvState, now time.Time) {
	for _, id := range rs.res.Nodes {
		if s.captured[id] == rs {
			s.uncapture(rs, id)
			s.upNodes++
			s.free.Add(id)
		}
		if s.draining[id] == rs {
			delete(s.draining, id)
		}
	}
	for i, r := range s.resvs {
		if r == rs {
			s.resvs = append(s.resvs[:i], s.resvs[i+1:]...)
			break
		}
	}
	s.trySchedule(now)
}

// capture records id as held by rs. Callers adjust upNodes: a capture
// from the schedulable pool (free or finishing-busy) decrements it, a
// capture at repair (the node was Down, already outside) does not.
func (s *Scheduler) capture(rs *resvState, id int) {
	if s.captured == nil {
		s.captured = make(map[int]*resvState)
	}
	s.captured[id] = rs
	rs.count++
}

// capturedIn returns how many of rs's captured nodes lie in partition p.
func (s *Scheduler) capturedIn(rs *resvState, p facility.PartitionInfo) int {
	n := 0
	for _, id := range rs.res.Nodes[sort.SearchInts(rs.res.Nodes, p.Start):] {
		if id >= p.End() {
			break
		}
		if s.captured[id] == rs {
			n++
		}
	}
	return n
}

// uncapture removes id from rs's ledger. Callers adjust upNodes and the
// free set: a window end returns the node to both, a failure to neither.
func (s *Scheduler) uncapture(rs *resvState, id int) {
	delete(s.captured, id)
	rs.count--
}

// activeReservationFor returns the started reservation covering id, if
// any.
func (s *Scheduler) activeReservationFor(id int) *resvState {
	for _, rs := range s.resvs {
		if !rs.started {
			continue
		}
		i := sort.SearchInts(rs.res.Nodes, id)
		if i < len(rs.res.Nodes) && rs.res.Nodes[i] == id {
			return rs
		}
	}
	return nil
}

// releasable returns how many of rj's nodes will return to the free
// pool when it ends (its draining nodes are captured instead).
func (s *Scheduler) releasable(rj *Job) int {
	if len(s.draining) == 0 {
		return len(rj.Nodes)
	}
	n := 0
	for _, id := range rj.Nodes {
		if s.draining[id] == nil {
			n++
		}
	}
	return n
}

// mergedShadow computes the EASY shadow point (time and spare nodes)
// of a head job in partition part when reservations are in play: future
// node releases come both from running jobs (their non-draining nodes,
// at End) and from started reservations (their captured nodes, at To),
// merged in time order. On a heterogeneous facility only releases inside
// part count.
func (s *Scheduler) mergedShadow(avail, need, part int) (time.Time, int) {
	type release struct {
		at time.Time
		n  int
	}
	var rel []release
	for _, rj := range s.running {
		if s.hetero() && s.partOf(rj) != part {
			continue
		}
		if n := s.releasable(rj); n > 0 {
			rel = append(rel, release{at: rj.End, n: n})
		}
	}
	for _, rs := range s.resvs {
		if !rs.started || rs.count == 0 {
			continue
		}
		n := rs.count
		if s.hetero() {
			n = s.capturedIn(rs, s.parts[part])
		}
		if n > 0 {
			rel = append(rel, release{at: rs.res.To, n: n})
		}
	}
	sort.SliceStable(rel, func(i, j int) bool { return rel[i].at.Before(rel[j].at) })
	cum := avail
	for _, r := range rel {
		cum += r.n
		if cum >= need {
			return r.at, cum - need
		}
	}
	return time.Time{}, 0
}
