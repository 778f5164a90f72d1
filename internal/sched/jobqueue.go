package sched

// jobQueue is the scheduler's pending-job FIFO with positional access: a
// slice plus a head index. The previous representation popped the front
// by re-slicing (queue = queue[1:]), which permanently leaks front
// capacity — under a saturated service every submission then triggers a
// reallocation and a full copy of the backlog. Here pops and batched
// front-window removals advance the head, the buffer compacts in place
// once the dead prefix dominates, and steady-state churn allocates
// nothing. Logical contents and order are identical to the plain-slice
// queue, so scheduling decisions are unchanged.
type jobQueue struct {
	jobs []*Job
	head int
}

// Len returns the number of queued jobs.
func (q *jobQueue) Len() int { return len(q.jobs) - q.head }

// At returns the i-th queued job (0 = front).
func (q *jobQueue) At(i int) *Job { return q.jobs[q.head+i] }

// Head returns the front job. Call only when Len() > 0.
func (q *jobQueue) Head() *Job { return q.jobs[q.head] }

// PushBack appends a job.
func (q *jobQueue) PushBack(j *Job) { q.jobs = append(q.jobs, j) }

// PopFront removes and returns the front job.
func (q *jobQueue) PopFront() *Job {
	j := q.jobs[q.head]
	q.jobs[q.head] = nil
	q.head++
	q.compact()
	return j
}

// RemoveSorted deletes the queued jobs at the given strictly ascending
// positions (0 = front), preserving the order of the rest. Backfill
// removes only from the scan window at the front, so instead of closing
// each gap by moving the whole backlog forward, the window's survivors
// shift toward the back over the gaps and the head advances past the
// vacated slots: the cost is O(last position), not O(Len).
func (q *jobQueue) RemoveSorted(pos []int) {
	k := len(pos)
	if k == 0 {
		return
	}
	dst := q.head + pos[k-1]
	for src := dst; src >= q.head; src-- {
		if k > 0 && src == q.head+pos[k-1] {
			k--
			continue
		}
		q.jobs[dst] = q.jobs[src]
		dst--
	}
	for i := q.head; i <= dst; i++ {
		q.jobs[i] = nil
	}
	q.head = dst + 1
	q.compact()
}

// compact resets an empty buffer, and moves the live jobs to the front
// once the dead prefix left by advancing the head dominates. Without it a
// queue whose head never pops would grow its buffer without bound.
func (q *jobQueue) compact() {
	switch {
	case q.head == len(q.jobs):
		q.jobs = q.jobs[:0]
		q.head = 0
	case q.head >= 256 && 2*q.head >= len(q.jobs):
		n := copy(q.jobs, q.jobs[q.head:])
		for i := n; i < len(q.jobs); i++ {
			q.jobs[i] = nil
		}
		q.jobs = q.jobs[:n]
		q.head = 0
	}
}

// InsertAt inserts j at position i (0 = front), preserving order.
func (q *jobQueue) InsertAt(i int, j *Job) {
	i += q.head
	q.jobs = append(q.jobs, nil)
	copy(q.jobs[i+1:], q.jobs[i:])
	q.jobs[i] = j
}

// Snapshot copies the queue contents front to back.
func (q *jobQueue) Snapshot() []*Job {
	out := make([]*Job, q.Len())
	copy(out, q.jobs[q.head:])
	return out
}
