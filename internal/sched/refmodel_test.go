package sched

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/units"
	"github.com/greenhpc/archertwin/internal/workload"
)

// This file is the scheduler's reference-model harness: a plain-slice,
// obviously-correct reimplementation of the admit / backfill / preempt /
// reserve semantics, driven in lockstep with the real scheduler by seeded
// randomized operation streams (the jobqueue_test.go pattern, scaled up
// to the whole subsystem). The real scheduler earns its performance from
// bitmap node sets, a head-indexed queue, binary-search indices, pooled
// event arguments and retained scratch buffers; the model uses none of
// that — linear scans, maps and copies throughout — so any bookkeeping
// bug in the optimized structures shows up as a state divergence at the
// op where it happens.
//
// The model is exact, not approximate: runs use Performance Determinism,
// where every node's performance factor is the same constant, so the
// model reproduces job runtimes bit-for-bit and the two event streams
// stay aligned. Event ordering mirrors the DES engine's (time, sequence)
// rule: the model assigns its own sequence numbers in the same order the
// scheduler calls AtArg, which is what makes same-timestamp completions,
// releases and reservation edges fire identically on both sides.

// ---------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------

type refEventKind int

const (
	refComplete refEventKind = iota
	refRelease
	refResvStart
	refResvEnd
)

type refEvent struct {
	at   time.Time
	seq  uint64
	kind refEventKind
	job  *refJob
	resv *refResv
	dead bool
}

type refJob struct {
	id    int
	app   int
	part  int
	nodes int
	prio  int
	ref   time.Duration

	state     JobState
	submit    time.Time
	start     time.Time
	end       time.Time
	alloc     []int
	releaseAt time.Time

	endEv     *refEvent
	releaseEv *refEvent
}

type refResv struct {
	name    string
	nodes   []int // sorted, deduplicated
	from    time.Time
	to      time.Time
	started bool
	count   int

	startEv *refEvent
	endEv   *refEvent
}

type refStats struct {
	submitted   int
	started     int
	completed   int
	failed      int
	dropped     int
	holds       int
	holdDelay   time.Duration
	preemptions int
	totalWait   time.Duration
}

// refPart is one partition of the model's machine: the node range
// [start, end) and the runtimes of the jobs placed on it. kernelMult /
// bfMult are the per-app runtime multipliers of the start path (raw
// kernel stretch, divided by the sampled perf factor at start) and the
// backfill-prediction path (kernel stretch over the mode's mean perf
// factor), at the partition's operating point.
type refPart struct {
	start, end int
	kernelMult []float64
	bfMult     []float64
	perfPF     float64
}

type refModel struct {
	cfg   Config
	total int
	parts []refPart
	// holdFor mirrors the harness temporal policy: jobs with id%3 == 0
	// park until submit+holdFor (zero disables the policy).
	holdFor time.Duration

	now time.Time
	seq uint64
	evs []*refEvent

	queue   []*refJob
	held    []*refJob
	running []*refJob // End-sorted, ties in insertion order
	byNode  map[int]*refJob
	free    []bool
	freeN   int
	down    []bool
	upNodes int
	busy    int

	resvs    []*refResv
	captured map[int]*refResv
	draining map[int]*refResv

	stats refStats
}

// newRefModel models fac's partitions. The primary partition runs at
// the harness provider's capped setting, the others at their own spec's
// default, as the scheduler runs them.
func newRefModel(cfg Config, fac *facility.Facility, testApps []*apps.App, mode cpu.Mode, holdFor time.Duration) *refModel {
	total := fac.NodeCount()
	m := &refModel{
		cfg:      cfg,
		total:    total,
		holdFor:  holdFor,
		byNode:   map[int]*refJob{},
		free:     make([]bool, total),
		down:     make([]bool, total),
		freeN:    total,
		upNodes:  total,
		captured: map[int]*refResv{},
		draining: map[int]*refResv{},
	}
	for i := range m.free {
		m.free[i] = true
	}
	for i, pi := range fac.Partitions() {
		spec, fs := pi.CPU, pi.CPU.DefaultSetting()
		if i == 0 {
			fs = spec.CappedSetting()
		}
		p := refPart{start: pi.Start, end: pi.End(), perfPF: spec.MeanPerfFactor(mode)}
		for _, a := range testApps {
			p.kernelMult = append(p.kernelMult,
				a.Kernel.TimeMultiplier(spec.EffectiveFrequency(fs), spec.BoostFreq))
			p.bfMult = append(p.bfMult, a.TimeMultiplier(spec, fs, mode))
		}
		m.parts = append(m.parts, p)
	}
	return m
}

// freeIn counts the free nodes of partition p.
func (m *refModel) freeIn(p int) int {
	n := 0
	for id := m.parts[p].start; id < m.parts[p].end; id++ {
		if m.free[id] {
			n++
		}
	}
	return n
}

// inPart reports whether node id lies in partition p.
func (m *refModel) inPart(id, p int) bool { return id >= m.parts[p].start && id < m.parts[p].end }

// schedule mirrors des.Engine.AtArg: sequence numbers are assigned in
// call order and break time ties.
func (m *refModel) schedule(kind refEventKind, at time.Time, j *refJob, rs *refResv) *refEvent {
	ev := &refEvent{at: at, seq: m.seq, kind: kind, job: j, resv: rs}
	m.seq++
	m.evs = append(m.evs, ev)
	return ev
}

func (m *refModel) cancel(ev *refEvent) {
	if ev != nil {
		ev.dead = true
	}
}

// popNext removes and returns the earliest live event (by time, then
// sequence), optionally bounded to strictly before `bound`.
func (m *refModel) popNext(bound time.Time, bounded bool) *refEvent {
	best := -1
	for i, ev := range m.evs {
		if ev.dead {
			continue
		}
		if bounded && !ev.at.Before(bound) {
			continue
		}
		if best < 0 || ev.at.Before(m.evs[best].at) ||
			(ev.at.Equal(m.evs[best].at) && ev.seq < m.evs[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	ev := m.evs[best]
	m.evs = append(m.evs[:best], m.evs[best+1:]...)
	return ev
}

// runUntil mirrors des.Engine.RunUntil: fire everything strictly before
// the deadline, then advance the clock to it.
func (m *refModel) runUntil(deadline time.Time) {
	for {
		ev := m.popNext(deadline, true)
		if ev == nil {
			break
		}
		m.now = ev.at
		m.dispatch(ev)
	}
	m.now = deadline
}

// runAll mirrors des.Engine.Run.
func (m *refModel) runAll() {
	for {
		ev := m.popNext(time.Time{}, false)
		if ev == nil {
			return
		}
		m.now = ev.at
		m.dispatch(ev)
	}
}

func (m *refModel) dispatch(ev *refEvent) {
	switch ev.kind {
	case refComplete:
		m.finish(ev.job, m.now, Completed)
	case refRelease:
		m.release(ev.job, m.now)
	case refResvStart:
		m.resvStart(ev.resv)
	case refResvEnd:
		m.resvEnd(ev.resv, m.now)
	}
}

// decide mirrors holdYoungPolicy (nothing parked when holdFor is zero).
func (m *refModel) decide(j *refJob) (start bool, recheck time.Time) {
	if m.holdFor == 0 || j.id%3 != 0 {
		return true, time.Time{}
	}
	release := j.submit.Add(m.holdFor)
	if m.now.Before(release) {
		return false, release
	}
	return true, time.Time{}
}

func (m *refModel) submit(id, app, part, nodes, prio int, ref time.Duration) {
	m.stats.submitted++
	if nodes > m.parts[part].end-m.parts[part].start || len(m.queue) >= m.cfg.MaxQueue {
		m.stats.dropped++
		return
	}
	j := &refJob{id: id, app: app, part: part, nodes: nodes, prio: prio, ref: ref,
		state: Queued, submit: m.now}
	m.enqueue(j)
	m.trySchedule(m.now)
}

func (m *refModel) before(a, b *refJob) bool {
	if m.cfg.AgingHours > 0 {
		as := a.submit.Add(-time.Duration(float64(a.prio) * m.cfg.AgingHours * float64(time.Hour)))
		bs := b.submit.Add(-time.Duration(float64(b.prio) * m.cfg.AgingHours * float64(time.Hour)))
		if !as.Equal(bs) {
			return as.Before(bs)
		}
	} else if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.submit.Before(b.submit)
}

func (m *refModel) enqueue(j *refJob) {
	i := sort.Search(len(m.queue), func(k int) bool { return m.before(j, m.queue[k]) })
	m.queue = append(m.queue, nil)
	copy(m.queue[i+1:], m.queue[i:])
	m.queue[i] = j
}

func (m *refModel) removeQueueAt(i int) {
	m.queue = append(m.queue[:i], m.queue[i+1:]...)
}

func (m *refModel) trySchedule(now time.Time) {
	for {
		for len(m.queue) > 0 && m.queue[0].nodes <= m.freeIn(m.queue[0].part) {
			j := m.queue[0]
			ok, recheck := m.decide(j)
			m.removeQueueAt(0)
			if !ok {
				m.hold(j, recheck, now)
				continue
			}
			m.start(j, now)
		}
		if m.cfg.Preemption == PreemptOff || len(m.queue) == 0 || !m.preemptForHead(now) {
			break
		}
	}
	if len(m.queue) > 1 && m.cfg.BackfillDepth > 0 {
		if m.cfg.Backfill == BackfillConservative {
			m.conservative(now)
		} else {
			m.easy(now)
		}
	}
}

func (m *refModel) hold(j *refJob, recheck, now time.Time) {
	if !recheck.After(now) {
		recheck = now.Add(time.Minute)
	}
	m.held = append(m.held, j)
	m.stats.holds++
	m.stats.holdDelay += recheck.Sub(now)
	j.releaseAt = recheck
	j.releaseEv = m.schedule(refRelease, recheck, j, nil)
}

func (m *refModel) release(j *refJob, now time.Time) {
	for i, hj := range m.held {
		if hj == j {
			m.held = append(m.held[:i], m.held[i+1:]...)
			break
		}
	}
	j.releaseAt = time.Time{}
	m.enqueue(j)
	m.trySchedule(now)
}

func (m *refModel) start(j *refJob, now time.Time) {
	n := j.nodes
	p := &m.parts[j.part]
	alloc := make([]int, 0, n)
	for id := p.start; id < p.end && len(alloc) < n; id++ {
		if m.free[id] {
			alloc = append(alloc, id)
			m.free[id] = false
			m.byNode[id] = j
		}
	}
	m.freeN -= n
	j.alloc = alloc

	// Exactly the start path's float arithmetic: sum the per-node perf
	// factors (a constant under Performance Determinism), divide by n.
	perfSum := 0.0
	for i := 0; i < n; i++ {
		perfSum += p.perfPF
	}
	perf := perfSum / float64(n)
	rt := time.Duration(float64(j.ref) * p.kernelMult[j.app] / perf)
	if rt <= 0 {
		rt = time.Second
	}
	j.state = Running
	j.start = now
	j.end = now.Add(rt)
	m.busy += n
	m.stats.started++
	m.stats.totalWait += now.Sub(j.submit)
	m.insertRunning(j)
	j.endEv = m.schedule(refComplete, j.end, j, nil)
}

func (m *refModel) insertRunning(j *refJob) {
	i := sort.Search(len(m.running), func(k int) bool { return m.running[k].end.After(j.end) })
	m.running = append(m.running, nil)
	copy(m.running[i+1:], m.running[i:])
	m.running[i] = j
}

func (m *refModel) removeRunning(j *refJob) {
	for i, rj := range m.running {
		if rj == j {
			m.running = append(m.running[:i], m.running[i+1:]...)
			return
		}
	}
}

func (m *refModel) releaseNode(id int) {
	if rs, ok := m.draining[id]; ok {
		delete(m.draining, id)
		m.captured[id] = rs
		rs.count++
		m.upNodes--
		return
	}
	m.free[id] = true
	m.freeN++
}

func (m *refModel) finish(j *refJob, now time.Time, final JobState) {
	if j.state != Running {
		return
	}
	j.state = final
	m.removeRunning(j)
	if final == Failed {
		j.end = now
	}
	for _, id := range j.alloc {
		delete(m.byNode, id)
		if !m.down[id] {
			m.releaseNode(id)
		}
	}
	m.busy -= len(j.alloc)
	switch final {
	case Completed:
		m.stats.completed++
	case Failed:
		m.stats.failed++
	}
	m.trySchedule(now)
}

func (m *refModel) failNode(id int) {
	if id < 0 || id >= m.total || m.down[id] {
		return
	}
	m.down[id] = true
	if j, ok := m.byNode[id]; ok {
		m.upNodes--
		delete(m.draining, id)
		m.cancel(j.endEv)
		m.finish(j, m.now, Failed)
	} else if rs, ok := m.captured[id]; ok {
		delete(m.captured, id)
		rs.count--
	} else {
		m.upNodes--
		m.free[id] = false
		m.freeN--
	}
}

func (m *refModel) activeResvFor(id int) *refResv {
	for _, rs := range m.resvs {
		if !rs.started {
			continue
		}
		for _, rid := range rs.nodes {
			if rid == id {
				return rs
			}
		}
	}
	return nil
}

func (m *refModel) repairNode(id int) {
	if id < 0 || id >= m.total || !m.down[id] {
		return
	}
	m.down[id] = false
	if rs := m.activeResvFor(id); rs != nil {
		m.captured[id] = rs
		rs.count++
		return
	}
	m.upNodes++
	m.free[id] = true
	m.freeN++
	m.trySchedule(m.now)
}

func (m *refModel) addReservation(name string, ids []int, from, to time.Time) {
	nodes := append([]int(nil), ids...)
	sort.Ints(nodes)
	w := 0
	for i, id := range nodes {
		if i > 0 && id == nodes[w-1] {
			continue
		}
		nodes[w] = id
		w++
	}
	rs := &refResv{name: name, nodes: nodes[:w], from: from, to: to}
	m.resvs = append(m.resvs, rs)
	if from.After(m.now) {
		rs.startEv = m.schedule(refResvStart, from, nil, rs)
	} else {
		m.resvStart(rs)
	}
	rs.endEv = m.schedule(refResvEnd, to, nil, rs)
}

func (m *refModel) resvStart(rs *refResv) {
	rs.started = true
	for _, id := range rs.nodes {
		if m.down[id] {
			continue
		}
		if _, busy := m.byNode[id]; busy {
			if _, taken := m.draining[id]; !taken {
				m.draining[id] = rs
			}
		} else if m.free[id] {
			m.free[id] = false
			m.freeN--
			m.captured[id] = rs
			rs.count++
			m.upNodes--
		}
	}
}

func (m *refModel) resvEnd(rs *refResv, now time.Time) {
	for _, id := range rs.nodes {
		if m.captured[id] == rs {
			delete(m.captured, id)
			rs.count--
			m.upNodes++
			m.free[id] = true
			m.freeN++
		}
		if m.draining[id] == rs {
			delete(m.draining, id)
		}
	}
	for i, r := range m.resvs {
		if r == rs {
			m.resvs = append(m.resvs[:i], m.resvs[i+1:]...)
			break
		}
	}
	m.trySchedule(now)
}

func (m *refModel) cancelReservation(name string) bool {
	for _, rs := range m.resvs {
		if rs.name != name {
			continue
		}
		if !rs.started {
			m.cancel(rs.startEv)
		}
		m.cancel(rs.endEv)
		m.resvEnd(rs, m.now)
		return true
	}
	return false
}

func (m *refModel) releasable(rj *refJob) int {
	n := 0
	for _, id := range rj.alloc {
		if m.draining[id] == nil {
			n++
		}
	}
	return n
}

func (m *refModel) predict(j *refJob) time.Duration {
	return time.Duration(float64(j.ref) * m.parts[j.part].bfMult[j.app])
}

// easy is the model's EASY backfill: shadow time and spare-node count
// from the head partition's merged release walk (its running jobs' ends
// and the started reservations' ends, counting only nodes inside the
// partition, in time order), then the depth-bounded candidate scan. A
// candidate in another partition cannot delay the head.
func (m *refModel) easy(now time.Time) {
	head := m.queue[0]
	type release struct {
		at time.Time
		n  int
	}
	var rel []release
	for _, rj := range m.running {
		if n := m.releasable(rj); rj.part == head.part && n > 0 {
			rel = append(rel, release{rj.end, n})
		}
	}
	for _, rs := range m.resvs {
		if n := m.capturedIn(rs, head.part); n > 0 {
			rel = append(rel, release{rs.to, n})
		}
	}
	sort.SliceStable(rel, func(i, j int) bool { return rel[i].at.Before(rel[j].at) })
	var shadow time.Time
	extra := 0
	cum := m.freeIn(head.part)
	for _, r := range rel {
		cum += r.n
		if cum >= head.nodes {
			shadow = r.at
			extra = cum - head.nodes
			break
		}
	}
	if shadow.IsZero() {
		return
	}
	depth := m.cfg.BackfillDepth
	for i := 1; i < len(m.queue) && depth > 0; depth-- {
		j := m.queue[i]
		if j.nodes > m.freeIn(j.part) {
			i++
			continue
		}
		rt := m.predict(j)
		endsBefore := !now.Add(rt).After(shadow)
		samePart := j.part == head.part
		if !samePart || endsBefore || j.nodes <= extra {
			ok, recheck := m.decide(j)
			m.removeQueueAt(i)
			if !ok {
				m.hold(j, recheck, now)
				continue
			}
			if samePart && !endsBefore {
				extra -= j.nodes
			}
			m.start(j, now)
			continue
		}
		i++
	}
}

// capturedIn counts the nodes rs holds inside partition p.
func (m *refModel) capturedIn(rs *refResv, p int) int {
	n := 0
	for id, r := range m.captured {
		if r == rs && m.inPart(id, p) {
			n++
		}
	}
	return n
}

// refProfile is the model's free-capacity profile: a bag of (time, delta)
// events whose prefix sums over sorted unique times give the free-node
// level of each segment. Reserving a window is just two more deltas.
type refProfile struct {
	deltas map[int64]int
	times  map[int64]time.Time
}

func newRefProfile(now time.Time, avail int) *refProfile {
	p := &refProfile{deltas: map[int64]int{}, times: map[int64]time.Time{}}
	p.add(now, avail)
	return p
}

func (p *refProfile) add(t time.Time, d int) {
	k := t.UnixNano()
	p.deltas[k] += d
	p.times[k] = t
}

func (p *refProfile) levels() ([]time.Time, []int) {
	keys := make([]int64, 0, len(p.deltas))
	for k := range p.deltas {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	ts := make([]time.Time, len(keys))
	free := make([]int, len(keys))
	cum := 0
	for i, k := range keys {
		cum += p.deltas[k]
		ts[i] = p.times[k]
		free[i] = cum
	}
	return ts, free
}

func (p *refProfile) earliest(n int, rt time.Duration) time.Time {
	ts, free := p.levels()
	for i := range ts {
		if free[i] < n {
			continue
		}
		end := ts[i].Add(rt)
		ok := true
		for k := i + 1; k < len(ts) && ts[k].Before(end); k++ {
			if free[k] < n {
				ok = false
				break
			}
		}
		if ok {
			return ts[i]
		}
	}
	return time.Time{}
}

func (p *refProfile) reserve(from time.Time, rt time.Duration, n int) {
	p.add(from, -n)
	p.add(from.Add(rt), n)
}

// conservative plans each scanned job in its own partition's profile:
// the partition's free nodes now, its running jobs' and started
// reservations' releases, and every pending reservation's hold on the
// partition's nodes over its window.
func (m *refModel) conservative(now time.Time) {
	profs := make([]*refProfile, len(m.parts))
	for p := range m.parts {
		profs[p] = newRefProfile(now, m.freeIn(p))
		for _, rj := range m.running {
			if rj.part == p {
				profs[p].add(rj.end, m.releasable(rj))
			}
		}
		for _, rs := range m.resvs {
			if rs.started {
				profs[p].add(rs.to, m.capturedIn(rs, p))
				continue
			}
			held := 0
			for _, id := range rs.nodes {
				if m.inPart(id, p) {
					held++
				}
			}
			profs[p].add(rs.from, -held)
			profs[p].add(rs.to, held)
		}
	}
	limit := m.cfg.BackfillDepth + 1
	if limit > len(m.queue) {
		limit = len(m.queue)
	}
	for i := 0; i < limit; {
		j := m.queue[i]
		p := profs[j.part]
		rt := m.predict(j)
		at := p.earliest(j.nodes, rt)
		if at.IsZero() {
			i++
			continue
		}
		if at.Equal(now) && j.nodes <= m.freeIn(j.part) {
			ok, recheck := m.decide(j)
			m.removeQueueAt(i)
			limit--
			if !ok {
				m.hold(j, recheck, now)
				continue
			}
			m.start(j, now)
			p.reserve(now, rt, j.nodes)
			continue
		}
		p.reserve(at, rt, j.nodes)
		i++
	}
}

func (m *refModel) preemptForHead(now time.Time) bool {
	head := m.queue[0]
	need := head.nodes - m.freeIn(head.part)
	if need <= 0 {
		return false
	}
	gap := m.cfg.PreemptMinGap
	if gap < 1 {
		gap = 1
	}
	var victims []*refJob
	for _, rj := range m.running {
		if rj.part == head.part && head.prio-rj.prio >= gap {
			victims = append(victims, rj)
		}
	}
	cost := func(j *refJob) float64 {
		return j.end.Sub(now).Hours() * float64(len(j.alloc))
	}
	sort.SliceStable(victims, func(a, b int) bool {
		ca, cb := cost(victims[a]), cost(victims[b])
		if ca != cb {
			return ca < cb
		}
		return victims[a].id < victims[b].id
	})
	freed, take := 0, 0
	for _, v := range victims {
		freed += len(v.alloc)
		take++
		if freed >= need {
			break
		}
	}
	if freed < need {
		return false
	}
	for _, v := range victims[:take] {
		m.preempt(v, now)
	}
	return head.nodes <= m.freeIn(head.part)
}

func (m *refModel) preempt(j *refJob, now time.Time) {
	m.cancel(j.endEv)
	m.removeRunning(j)
	for _, id := range j.alloc {
		delete(m.byNode, id)
		if !m.down[id] {
			m.releaseNode(id)
		}
	}
	m.busy -= len(j.alloc)
	m.stats.preemptions++
	if m.cfg.Preemption == PreemptCancel {
		j.state = Preempted
		j.end = now
		return
	}
	j.state = Queued
	j.submit = now // requeued victims re-enter as freshly submitted
	j.start, j.end = time.Time{}, time.Time{}
	j.alloc = j.alloc[:0]
	m.enqueue(j)
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

// holdYoungPolicy is a deterministic, non-blocking temporal policy for
// the harness: every third job parks until a fixed time after its
// submission, exercising the hold / release / re-enqueue path.
type holdYoungPolicy struct{ until time.Duration }

func (p *holdYoungPolicy) Name() string { return "hold-young" }

func (p *holdYoungPolicy) Decide(j *Job, now time.Time, _, _ units.Power) TemporalDecision {
	if j.Spec.ID%3 != 0 {
		return TemporalDecision{Start: true}
	}
	release := j.Submit.Add(p.until)
	if now.Before(release) {
		return TemporalDecision{Start: false, Recheck: release}
	}
	return TemporalDecision{Start: true}
}

type refHarnessOpts struct {
	prios   []int         // priority levels to draw from (nil: all zero)
	resvOps bool          // include reservation install/cancel ops
	hold    time.Duration // non-zero: attach holdYoungPolicy to both sides
	hetero  bool          // 24 CPU nodes plus an 8-node AI partition
}

func compareRef(t *testing.T, tag string, s *Scheduler, m *refModel) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", tag, fmt.Sprintf(format, args...))
	}
	sq := s.QueuedJobs()
	if len(sq) != len(m.queue) {
		fail("queue depth %d, model %d", len(sq), len(m.queue))
	}
	for i := range sq {
		if sq[i].Spec.ID != m.queue[i].id {
			fail("queue[%d] = job %d, model job %d", i, sq[i].Spec.ID, m.queue[i].id)
		}
	}
	if len(s.heldJobs) != len(m.held) {
		fail("held %d, model %d", len(s.heldJobs), len(m.held))
	}
	for i := range s.heldJobs {
		if s.heldJobs[i].Spec.ID != m.held[i].id || !s.heldJobs[i].releaseAt.Equal(m.held[i].releaseAt) {
			fail("held[%d] = job %d @%v, model job %d @%v", i,
				s.heldJobs[i].Spec.ID, s.heldJobs[i].releaseAt, m.held[i].id, m.held[i].releaseAt)
		}
	}
	if len(s.running) != len(m.running) {
		fail("running %d, model %d", len(s.running), len(m.running))
	}
	for i := range s.running {
		rj, mj := s.running[i], m.running[i]
		if rj.Spec.ID != mj.id {
			fail("running[%d] = job %d, model job %d", i, rj.Spec.ID, mj.id)
		}
		if !rj.End.Equal(mj.end) {
			fail("job %d end %v, model %v", rj.Spec.ID, rj.End, mj.end)
		}
		if len(rj.Nodes) != len(mj.alloc) {
			fail("job %d allocation %v, model %v", rj.Spec.ID, rj.Nodes, mj.alloc)
		}
		for k := range rj.Nodes {
			if rj.Nodes[k] != mj.alloc[k] {
				fail("job %d allocation %v, model %v", rj.Spec.ID, rj.Nodes, mj.alloc)
			}
		}
	}
	for id := 0; id < m.total; id++ {
		if s.free.Contains(id) != m.free[id] {
			fail("node %d free=%v, model %v", id, s.free.Contains(id), m.free[id])
		}
	}
	if s.free.Count() != m.freeN {
		fail("free count %d, model %d", s.free.Count(), m.freeN)
	}
	if s.UpNodes() != m.upNodes || s.BusyNodes() != m.busy {
		fail("up/busy %d/%d, model %d/%d", s.UpNodes(), s.BusyNodes(), m.upNodes, m.busy)
	}
	names := s.Reservations()
	if len(names) != len(m.resvs) {
		fail("reservations %v, model has %d", names, len(m.resvs))
	}
	for i := range names {
		if names[i] != m.resvs[i].name {
			fail("reservation[%d] = %q, model %q", i, names[i], m.resvs[i].name)
		}
	}
	if s.ReservedNodes() != len(m.captured) || s.DrainingNodes() != len(m.draining) {
		fail("captured/draining %d/%d, model %d/%d",
			s.ReservedNodes(), s.DrainingNodes(), len(m.captured), len(m.draining))
	}
	for id, rs := range m.captured {
		real, ok := s.captured[id]
		if !ok || real.res.Name != rs.name {
			fail("node %d captured by model %q, scheduler disagrees", id, rs.name)
		}
	}
	for id, rs := range m.draining {
		real, ok := s.draining[id]
		if !ok || real.res.Name != rs.name {
			fail("node %d draining for model %q, scheduler disagrees", id, rs.name)
		}
	}
	st := s.Stats()
	got := refStats{
		submitted:   st.Submitted,
		started:     st.StartedJobs,
		completed:   st.Completed,
		failed:      st.Failed,
		dropped:     st.Dropped,
		holds:       st.Holds,
		holdDelay:   st.HoldDelay,
		preemptions: st.Preemptions,
		totalWait:   st.TotalWait,
	}
	if got != m.stats {
		fail("stats %+v, model %+v", got, m.stats)
	}
}

// runRefEpisode plays one seeded operation stream against the scheduler
// and the model, comparing them after every step, and returns how many
// of the scheduler's submissions skipped their pass.
func runRefEpisode(t *testing.T, cfg Config, seed uint64, opts refHarnessOpts) int {
	t.Helper()
	const total = 32
	fcfg := facility.ARCHER2()
	fcfg.Nodes = total
	if opts.hetero {
		fcfg.Nodes = 24
		fcfg.Partitions = []facility.Partition{facility.AIPartition(total - 24)}
	}
	fac, err := facility.New(fcfg, rng.New(7), t0)
	if err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine(t0)
	if opts.hold > 0 {
		cfg.Temporal = &holdYoungPolicy{until: opts.hold}
	}
	s := New(eng, fac, cappedProvider{fcfg.CPU}, cfg)

	testApps := []*apps.App{
		{Name: "cb", Kernel: roofline.Kernel{ComputeFraction: 1.0}, ActCore: 1, ActUncore: 0.2},
		{Name: "mix", Kernel: roofline.Kernel{ComputeFraction: 0.5}, ActCore: 0.6, ActUncore: 0.6},
		{Name: "mem", Kernel: roofline.Kernel{ComputeFraction: 0.1}, ActCore: 0.4, ActUncore: 0.9},
	}
	m := newRefModel(cfg, fac, testApps, cpu.PerformanceDeterminism, opts.hold)

	stream := rng.New(seed)
	now := t0
	resvN := 0
	for op := 0; op < 150; op++ {
		now = now.Add(time.Duration(stream.Intn(90)) * time.Minute)
		eng.RunUntil(now)
		m.runUntil(now)
		compareRef(t, fmt.Sprintf("seed %d op %d (pre)", seed, op), s, m)

		switch k := stream.Intn(12); {
		case k < 8: // submit
			appIdx := stream.Intn(len(testApps))
			n := 1 + stream.Intn(16)
			ref := time.Duration(1+stream.Intn(48)) * 15 * time.Minute
			prio, part := 0, 0
			if len(opts.prios) > 0 {
				prio = opts.prios[stream.Intn(len(opts.prios))]
			}
			if opts.hetero {
				part = stream.Intn(2)
			}
			s.Submit(workload.JobSpec{ID: op, Class: "ref", App: testApps[appIdx],
				Nodes: n, RefRuntime: ref, Priority: prio, Partition: part})
			m.submit(op, appIdx, part, n, prio, ref)
		case k == 8:
			id := stream.Intn(total)
			if err := s.FailNode(id); err != nil {
				t.Fatal(err)
			}
			m.failNode(id)
		case k == 9:
			id := stream.Intn(total)
			if err := s.RepairNode(id); err != nil {
				t.Fatal(err)
			}
			m.repairNode(id)
		case k == 10 && opts.resvOps:
			resvN++
			name := fmt.Sprintf("r%d", resvN)
			a := stream.Intn(total)
			ln := 1 + stream.Intn(8)
			if a+ln > total {
				ln = total - a
			}
			if ln == 0 {
				break
			}
			ids := make([]int, ln)
			for i := range ids {
				ids[i] = a + i
			}
			from := now.Add(time.Duration(stream.Intn(4)) * time.Hour)
			to := from.Add(time.Duration(1+stream.Intn(6)) * time.Hour)
			if err := s.AddReservation(Reservation{Name: name, Nodes: ids, From: from, To: to}); err != nil {
				t.Fatal(err)
			}
			m.addReservation(name, ids, from, to)
		case k == 11 && opts.resvOps:
			if len(m.resvs) > 0 {
				name := m.resvs[stream.Intn(len(m.resvs))].name
				if !s.CancelReservation(name) {
					t.Fatalf("scheduler lost reservation %q", name)
				}
				m.cancelReservation(name)
			}
		}
		compareRef(t, fmt.Sprintf("seed %d op %d (post)", seed, op), s, m)
	}
	eng.Run()
	m.runAll()
	compareRef(t, fmt.Sprintf("seed %d (final)", seed), s, m)
	return s.skipped
}

// TestSchedulerMatchesReferenceModel locksteps the optimized scheduler
// against the plain reference model across every policy combination:
// EASY and conservative backfill, priority classes with and without
// aging, both preemption modes, reservations, a temporal hold policy,
// all of them at once, and a two-partition machine, where the model
// computes free counts, placement, the EASY shadow and every
// conservative profile per partition by brute force. The model runs a
// full pass on every submit,
// so the EASY cases also check the scheduler's settled-pass skip; each
// of them must record skips, or the check would pass vacuously. Shallow
// windows (depth 1 and 2) make far-back submissions common.
func TestSchedulerMatchesReferenceModel(t *testing.T) {
	base := func() Config { return Config{BackfillDepth: 8, MaxQueue: 64} }
	prios := []int{0, 2, 5}
	cases := []struct {
		name string
		cfg  func() Config
		opts refHarnessOpts
	}{
		{"fcfs", func() Config { c := base(); c.BackfillDepth = 0; return c }, refHarnessOpts{}},
		{"easy", base, refHarnessOpts{}},
		{"easy-priorities", base, refHarnessOpts{prios: prios}},
		{"easy-aging", func() Config { c := base(); c.AgingHours = 6; return c }, refHarnessOpts{prios: prios}},
		{"conservative", func() Config { c := base(); c.Backfill = BackfillConservative; return c }, refHarnessOpts{}},
		{"conservative-priorities", func() Config { c := base(); c.Backfill = BackfillConservative; return c },
			refHarnessOpts{prios: prios}},
		{"preempt-requeue", func() Config { c := base(); c.Preemption = PreemptRequeue; return c },
			refHarnessOpts{prios: prios}},
		{"preempt-cancel", func() Config { c := base(); c.Preemption = PreemptCancel; c.PreemptMinGap = 2; return c },
			refHarnessOpts{prios: prios}},
		{"preempt-cancel-reuse", func() Config {
			c := base()
			c.Preemption = PreemptCancel
			c.ReuseJobs = true
			return c
		}, refHarnessOpts{prios: prios}},
		{"easy-depth1", func() Config { c := base(); c.BackfillDepth = 1; return c },
			refHarnessOpts{prios: prios, resvOps: true}},
		{"easy-depth2", func() Config { c := base(); c.BackfillDepth = 2; return c },
			refHarnessOpts{prios: prios, resvOps: true}},
		{"reservations-easy", base, refHarnessOpts{resvOps: true}},
		{"reservations-conservative", func() Config { c := base(); c.Backfill = BackfillConservative; return c },
			refHarnessOpts{resvOps: true}},
		{"hold-policy", base, refHarnessOpts{hold: 4 * time.Hour}},
		{"everything", func() Config {
			c := base()
			c.Backfill = BackfillConservative
			c.Preemption = PreemptRequeue
			c.AgingHours = 12
			return c
		}, refHarnessOpts{prios: prios, resvOps: true, hold: 3 * time.Hour}},
		{"two-partition-easy", base, refHarnessOpts{prios: prios, resvOps: true, hetero: true}},
		{"two-partition-conservative", func() Config { c := base(); c.Backfill = BackfillConservative; return c },
			refHarnessOpts{prios: prios, resvOps: true, hetero: true}},
		{"two-partition-preempt", func() Config { c := base(); c.Preemption = PreemptRequeue; return c },
			refHarnessOpts{prios: prios, resvOps: true, hetero: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			skipped := 0
			for seed := uint64(1); seed <= 64; seed++ {
				skipped += runRefEpisode(t, tc.cfg(), seed, tc.opts)
			}
			t.Logf("%d submissions skipped their pass", skipped)
			if c := tc.cfg(); c.Backfill == BackfillEASY && c.BackfillDepth > 0 && skipped == 0 {
				t.Fatal("no submission skipped its pass: the settled-pass rule went unexercised")
			}
		})
	}
}
