package sched

import (
	"math/rand"
	"testing"
)

// jqModel drives jobQueue and a plain-slice reference model through the
// same operation and asserts identical logical contents after every one.
// The plain slice is the queue's specified behaviour (the pre-refactor
// representation); the head-indexed buffer with in-place compaction must
// be observationally indistinguishable from it.
type jqModel struct {
	t    *testing.T
	q    jobQueue
	ref  []*Job
	step int

	pos          []int // removal scratch
	headRemovals int   // batched removals made with head > 0
}

func (m *jqModel) push(j *Job) {
	m.q.PushBack(j)
	m.ref = append(m.ref, j)
	m.check("PushBack")
}

func (m *jqModel) pop() {
	got := m.q.PopFront()
	want := m.ref[0]
	m.ref = m.ref[1:]
	if got != want {
		m.t.Fatalf("step %d: PopFront returned wrong job", m.step)
	}
	m.check("PopFront")
}

// removeSorted removes the given ascending positions in one batch; the
// reference deletes them one at a time, back to front.
func (m *jqModel) removeSorted(pos []int) {
	if m.q.head > 0 {
		m.headRemovals++
	}
	m.q.RemoveSorted(pos)
	for k := len(pos) - 1; k >= 0; k-- {
		i := pos[k]
		m.ref = append(m.ref[:i:i], m.ref[i+1:]...)
	}
	m.check("RemoveSorted")
}

// removeRandom removes a random subset of a random front window, the
// shape backfill produces: positions inside [0, w), ascending.
func (m *jqModel) removeRandom(rng *rand.Rand) {
	if len(m.ref) == 0 {
		return
	}
	w := 1 + rng.Intn(len(m.ref))
	if w > 64 && rng.Intn(4) > 0 {
		w = 1 + rng.Intn(64)
	}
	m.pos = m.pos[:0]
	for i := 0; i < w; i++ {
		if rng.Intn(3) == 0 {
			m.pos = append(m.pos, i)
		}
	}
	m.removeSorted(m.pos)
}

func (m *jqModel) insertAt(i int, j *Job) {
	m.q.InsertAt(i, j)
	m.ref = append(m.ref[:i:i], append([]*Job{j}, m.ref[i:]...)...)
	m.check("InsertAt")
}

// check asserts Len, Head, every At index and a full Snapshot agree with
// the reference model.
func (m *jqModel) check(op string) {
	m.t.Helper()
	m.step++
	if m.q.Len() != len(m.ref) {
		m.t.Fatalf("step %d (%s): Len = %d, want %d", m.step, op, m.q.Len(), len(m.ref))
	}
	if len(m.ref) > 0 && m.q.Head() != m.ref[0] {
		m.t.Fatalf("step %d (%s): Head diverges", m.step, op)
	}
	snap := m.q.Snapshot()
	if len(snap) != len(m.ref) {
		m.t.Fatalf("step %d (%s): Snapshot has %d jobs, want %d", m.step, op, len(snap), len(m.ref))
	}
	for i := range m.ref {
		if snap[i] != m.ref[i] {
			m.t.Fatalf("step %d (%s): Snapshot[%d] diverges", m.step, op, i)
		}
		if m.q.At(i) != m.ref[i] {
			m.t.Fatalf("step %d (%s): At(%d) diverges", m.step, op, i)
		}
	}
}

// TestJobQueueMatchesReferenceModel drives a seeded random operation
// sequence — heavy enough in pops to cross the in-place compaction
// threshold (head >= 256 with a dominating dead prefix) several times —
// and verifies the queue never diverges from the plain-slice model,
// including RemoveSorted/InsertAt/Snapshot against a compacted buffer.
func TestJobQueueMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := &jqModel{t: t}

	// Phase 1: random churn around a modest backlog.
	for i := 0; i < 2000; i++ {
		switch op := rng.Intn(100); {
		case op < 40:
			m.push(&Job{})
		case op < 70:
			if len(m.ref) > 0 {
				m.pop()
			} else {
				m.push(&Job{})
			}
		case op < 85:
			m.removeRandom(rng)
		default:
			m.insertAt(rng.Intn(len(m.ref)+1), &Job{})
		}
	}

	// Phase 2: build a deep backlog, then drain most of it. With ~700
	// buffered jobs the dead prefix dominates around pop 350, forcing the
	// compaction branch (head >= 256 && 2*head >= len) mid-drain; the
	// full drain then exercises the head == len reset too.
	for i := 0; i < 700; i++ {
		m.push(&Job{})
	}
	for len(m.ref) > 100 {
		m.pop()
	}
	if m.q.head >= 256 {
		t.Fatalf("compaction never triggered: head = %d with %d jobs", m.q.head, m.q.Len())
	}

	// Phase 3: positional ops against the compacted buffer, then random
	// churn to mix all branches.
	for i := 0; i < 50; i++ {
		m.insertAt(rng.Intn(len(m.ref)+1), &Job{})
		m.removeRandom(rng)
	}
	for i := 0; i < 1500; i++ {
		switch op := rng.Intn(100); {
		case op < 30:
			m.push(&Job{})
		case op < 75:
			if len(m.ref) > 0 {
				m.pop()
			} else {
				m.push(&Job{})
			}
		case op < 90:
			m.removeRandom(rng)
		default:
			m.insertAt(rng.Intn(len(m.ref)+1), &Job{})
		}
	}
	for len(m.ref) > 0 {
		m.pop()
	}
	if m.step < 1000 {
		t.Fatalf("property sequence too short: %d ops", m.step)
	}
	if m.headRemovals == 0 {
		t.Fatal("no batched removal ran with head > 0")
	}
}

// TestJobQueueRemovalsWithoutPopsStayBounded is the blocked-head shape:
// the front job never starts, so nothing pops, while backfill keeps
// removing from the window behind it and submissions keep arriving.
// Batched removals advance the head, so without the dead-prefix
// compaction the buffer would grow with every job ever queued.
func TestJobQueueRemovalsWithoutPopsStayBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := &jqModel{t: t}
	for i := 0; i < 300; i++ {
		m.push(&Job{})
	}
	peak := 0
	for i := 0; i < 20000; i++ {
		switch op := rng.Intn(100); {
		case op < 45:
			m.push(&Job{})
		case op < 55:
			m.insertAt(rng.Intn(len(m.ref)+1), &Job{})
		default:
			// Keep the blocked head: remove only from positions >= 1.
			m.pos = m.pos[:0]
			w := 1 + rng.Intn(32)
			if w > len(m.ref) {
				w = len(m.ref)
			}
			for p := 1; p < w; p++ {
				if rng.Intn(2) == 0 {
					m.pos = append(m.pos, p)
				}
			}
			m.removeSorted(m.pos)
		}
		if len(m.ref) > peak {
			peak = len(m.ref)
		}
		if limit := 4 * (peak + 256); cap(m.q.jobs) > limit {
			t.Fatalf("op %d: buffer capacity %d exceeds %d (peak backlog %d)", i, cap(m.q.jobs), limit, peak)
		}
	}
	if m.headRemovals == 0 {
		t.Fatal("no batched removal ran with head > 0")
	}
}
