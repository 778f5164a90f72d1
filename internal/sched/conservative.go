package sched

import (
	"math"
	"sort"
	"time"
)

// backfillConservative protects every queued job it scans, not just the
// head: each of the first BackfillDepth+1 queued jobs gets a planned
// start in its own partition's capacity profile (see profile), reserved
// in queue order. A job starts now only if the profile says now is its
// earliest feasible start — i.e. starting it cannot delay any earlier
// queued job's plan in its partition, and a job in another partition
// shares no node with it. Queue jobs beyond the scan limit are
// unprotected, which bounds the pass at O(depth x profile) like the EASY
// scan.
func (s *Scheduler) backfillConservative(now time.Time) {
	for i := range s.prof {
		s.prof[i].times = s.prof[i].times[:0] // unbuilt this pass
	}
	s.bfRemoved = s.bfRemoved[:0]
	limit := s.cfg.BackfillDepth + 1
	if limit > s.queue.Len() {
		limit = s.queue.Len()
	}
	for i := 0; i < limit; i++ {
		j := s.queue.At(i)
		p := s.profile(j, now)
		rt := s.predictRuntime(j)
		at := p.earliestStart(j.Spec.Nodes, rt)
		if at.IsZero() {
			// Never fits the profile (e.g. nodes out for repair or held
			// by an open-ended run of reservations); leave it queued and
			// unplanned.
			continue
		}
		if at.Equal(now) && j.Spec.Nodes <= s.freeFor(j) && s.withinPowerCap(j) {
			d := s.temporalDecision(j, now)
			if !d.Start && d.Block {
				s.scheduleRecheck(d.Recheck, now)
				break
			}
			// Leaves the queue: removed in one batch after the scan.
			s.bfRemoved = append(s.bfRemoved, i)
			if !d.Start {
				// Parked jobs leave the queue, so they reserve nothing.
				s.hold(j, d.Recheck, now)
				continue
			}
			s.start(j, now)
			p.reserve(now, rt, j.Spec.Nodes)
			continue
		}
		p.reserve(at, rt, j.Spec.Nodes)
	}
	s.queue.RemoveSorted(s.bfRemoved)
}

// profile returns this pass's capacity profile of j's partition,
// building it on first use from the partition's free count now and its
// full release walk (releases). Pending reservation holds enter here and
// never the EASY walk: each takes its nodes inside the partition over
// its whole window — the full width is the conservative choice, so
// planned starts route around the whole hold.
func (s *Scheduler) profile(j *Job, now time.Time) *capProfile {
	part := s.partOf(j)
	p := &s.prof[part]
	if len(p.times) > 0 {
		return p
	}
	p.evs = append(p.evs[:0], capEvent{at: now, delta: s.freeFor(j)})
	s.releases(part, 0, math.MaxInt, &p.evs)
	for _, rs := range s.resvs {
		if n := len(s.resvNodesIn(rs, part)); !rs.started && n > 0 {
			p.addEvent(rs.res.From, -n)
			p.addEvent(rs.res.To, n)
		}
	}
	p.build()
	return p
}

// capEvent is one future capacity change.
type capEvent struct {
	at    time.Time
	delta int
}

// capProfile is a piecewise-constant free-node count over [now, inf):
// free[i] holds over [times[i], times[i+1]), the last segment extending
// forever. All slices are retained scratch, reused across passes.
type capProfile struct {
	evs   []capEvent
	times []time.Time
	free  []int
}

func (p *capProfile) addEvent(at time.Time, delta int) {
	p.evs = append(p.evs, capEvent{at: at, delta: delta})
}

// build sorts the events and folds them into breakpoint form. The sort
// is a stable insertion sort rather than sort.SliceStable: the event
// list is short and nearly ordered (the release walk arrives already
// time-sorted), and the closure-free form keeps the whole backfill pass
// allocation-free (TestBackfillScanAllocFree).
func (p *capProfile) build() {
	for i := 1; i < len(p.evs); i++ {
		for k := i; k > 0 && p.evs[k].at.Before(p.evs[k-1].at); k-- {
			p.evs[k], p.evs[k-1] = p.evs[k-1], p.evs[k]
		}
	}
	p.times, p.free = p.times[:0], p.free[:0]
	cum := 0
	for _, ev := range p.evs {
		cum += ev.delta
		if n := len(p.times); n > 0 && p.times[n-1].Equal(ev.at) {
			p.free[n-1] = cum
			continue
		}
		p.times = append(p.times, ev.at)
		p.free = append(p.free, cum)
	}
}

// earliestStart returns the first breakpoint from which n nodes stay
// available for rt, or the zero time if no such point exists (capacity
// never recovers to n).
func (p *capProfile) earliestStart(n int, rt time.Duration) time.Time {
	for i := 0; i < len(p.times); i++ {
		if p.free[i] < n {
			continue
		}
		end := p.times[i].Add(rt)
		ok := true
		for k := i + 1; k < len(p.times) && p.times[k].Before(end); k++ {
			if p.free[k] < n {
				ok = false
				break
			}
		}
		if ok {
			return p.times[i]
		}
	}
	return time.Time{}
}

// reserve subtracts n nodes over [from, from+rt).
func (p *capProfile) reserve(from time.Time, rt time.Duration, n int) {
	i := p.split(from)
	j := p.split(from.Add(rt))
	for k := i; k < j; k++ {
		p.free[k] -= n
	}
}

// split ensures a breakpoint exists exactly at t (t >= times[0]) and
// returns its index.
func (p *capProfile) split(t time.Time) int {
	i := sort.Search(len(p.times), func(k int) bool { return !p.times[k].Before(t) })
	if i < len(p.times) && p.times[i].Equal(t) {
		return i
	}
	// Insert between i-1 and i, inheriting the segment's level.
	p.times = append(p.times, time.Time{})
	copy(p.times[i+1:], p.times[i:])
	p.times[i] = t
	p.free = append(p.free, 0)
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = p.free[i-1]
	return i
}
