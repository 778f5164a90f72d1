package sched

import (
	"fmt"
	"sort"
	"time"

	"github.com/greenhpc/archertwin/internal/des"
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

// resvNodesIn returns rs's nodes that lie in partition part: all of
// them on a homogeneous machine.
func (s *Scheduler) resvNodesIn(rs *resvState, part int) []int {
	ids := rs.res.Nodes
	if !s.hetero() {
		return ids
	}
	p := &s.parts[part]
	return ids[sort.SearchInts(ids, p.Start):sort.SearchInts(ids, p.End())]
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

// releases walks partition part's future node releases in time order:
// its running jobs' releasable nodes at End and the nodes each started
// reservation has captured inside it at To (running jobs first at equal
// times, reservations in installation order). Counting up from avail, it
// stops at the first release that brings the count to need and returns
// its time and the excess over need (the zero time if none does); out,
// if non-nil, collects each release walked. EASY reads its shadow and
// spare nodes off the crossing; conservative backfill walks everything
// into its profiles. The reservation list is retained scratch, so a
// walk allocates nothing.
func (s *Scheduler) releases(part, avail, need int, out *[]capEvent) (time.Time, int) {
	rel := s.resvRel[:0]
	for _, rs := range s.resvs {
		n := rs.count
		if n > 0 && s.hetero() {
			n = 0
			for _, id := range s.resvNodesIn(rs, part) {
				if s.captured[id] == rs {
					n++
				}
			}
		}
		if n == 0 {
			continue
		}
		rel = append(rel, capEvent{at: rs.res.To, delta: n})
		for k := len(rel) - 1; k > 0 && rel[k].at.Before(rel[k-1].at); k-- {
			rel[k], rel[k-1] = rel[k-1], rel[k]
		}
	}
	s.resvRel = rel
	// Running jobs are End-sorted: release those ending by each
	// reservation's To (ties go first), then the reservation; after the
	// last reservation, the rest.
	hetero, draining := s.hetero(), len(s.draining) > 0
	cum, i := avail, 0
	for k := 0; ; k++ {
		end := len(s.running)
		if k < len(rel) {
			end = sort.Search(end, func(x int) bool { return s.running[x].End.After(rel[k].at) })
		}
		for ; i < end; i++ {
			rj := s.running[i]
			if hetero && s.partOf(rj) != part {
				continue
			}
			n := len(rj.Nodes)
			if draining {
				// A draining node goes to its reservation, not the pool.
				for _, id := range rj.Nodes {
					if s.draining[id] != nil {
						n--
					}
				}
				if n == 0 {
					continue
				}
			}
			if out != nil {
				*out = append(*out, capEvent{at: rj.End, delta: n})
			}
			if cum += n; cum >= need {
				return rj.End, cum - need
			}
		}
		if k == len(rel) {
			return time.Time{}, 0
		}
		if out != nil {
			*out = append(*out, rel[k])
		}
		if cum += rel[k].delta; cum >= need {
			return rel[k].at, cum - need
		}
	}
}
