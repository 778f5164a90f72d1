package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/workload"
)

// Reference implementations for the range ops: brute-force scans.
func refCountRange(s *nodeSet, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if s.Contains(i) {
			n++
		}
	}
	return n
}

func TestNodeSetCountRange(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		size := 1 + r.Intn(300)
		s := newNodeSet(size)
		for i := 0; i < size; i++ {
			if r.Intn(2) == 0 {
				s.Remove(i)
			}
		}
		for k := 0; k < 20; k++ {
			lo := r.Intn(size + 1)
			hi := lo + r.Intn(size+1-lo)
			if got, want := s.CountRange(lo, hi), refCountRange(s, lo, hi); got != want {
				t.Fatalf("size %d CountRange(%d, %d) = %d, want %d", size, lo, hi, got, want)
			}
		}
		if got := s.CountRange(0, size); got != s.Count() {
			t.Fatalf("full-range count %d != Count() %d", got, s.Count())
		}
	}
}

func TestNodeSetTakeLowestRange(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		size := 64 + r.Intn(300)
		s := newNodeSet(size)
		for i := 0; i < size; i++ {
			if r.Intn(3) == 0 {
				s.Remove(i)
			}
		}
		lo := r.Intn(size)
		hi := lo + 1 + r.Intn(size-lo)
		avail := s.CountRange(lo, hi)
		if avail == 0 {
			continue
		}
		n := 1 + r.Intn(avail)
		// Expected: the n lowest member IDs within [lo, hi).
		var want []int
		for i := lo; i < hi && len(want) < n; i++ {
			if s.Contains(i) {
				want = append(want, i)
			}
		}
		before := s.Count()
		got := s.TakeLowestRange(n, lo, hi, nil)
		if len(got) != n {
			t.Fatalf("took %d IDs, want %d", len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("taken IDs %v, want %v", got, want)
			}
			if s.Contains(got[i]) {
				t.Fatalf("ID %d still in set after take", got[i])
			}
		}
		if s.Count() != before-n {
			t.Fatalf("count %d after taking %d from %d", s.Count(), n, before)
		}
		// The set must still interoperate with the unranged TakeLowest.
		if s.Count() > 0 {
			rest := s.TakeLowest(1, nil)
			if len(rest) != 1 {
				t.Fatalf("TakeLowest after ranged take returned %v", rest)
			}
		}
	}
}

// heteroRig is a scheduler over a two-partition facility: a small CPU
// partition plus an AI partition.
func newHeteroRig(t *testing.T, cpuNodes, aiNodes int, cfg Config) *rig {
	t.Helper()
	fcfg := facility.ARCHER2()
	fcfg.Nodes = cpuNodes
	fcfg.Partitions = []facility.Partition{facility.AIPartition(aiNodes)}
	fac, err := facility.New(fcfg, rng.New(5), t0)
	if err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine(t0)
	s := New(eng, fac, stockProvider{fcfg.CPU}, cfg)
	r := newRig(t, 1, cfg) // only for the shared test app
	return &rig{eng: eng, fac: fac, s: s, app: r.app}
}

func (r *rig) partSpec(id, part, nodes int, runtime time.Duration) workload.JobSpec {
	s := r.spec(id, nodes, runtime)
	s.Partition = part
	return s
}

// Jobs land on their own partition's nodes, run at that partition's
// default operating point, and free accounting is per partition.
func TestHeterogeneousPlacement(t *testing.T) {
	r := newHeteroRig(t, 10, 4, DefaultConfig())
	gpuSpec := r.fac.Partition(1).CPU

	jc := r.s.Submit(r.partSpec(1, 0, 6, time.Hour))
	jg := r.s.Submit(r.partSpec(2, 1, 3, time.Hour))
	if jc.State != Running || jg.State != Running {
		t.Fatalf("states %v / %v, want both running", jc.State, jg.State)
	}
	for _, id := range jc.Nodes {
		if p := r.fac.PartitionOfNode(id); p != 0 {
			t.Fatalf("CPU job node %d in partition %d", id, p)
		}
	}
	for _, id := range jg.Nodes {
		if p := r.fac.PartitionOfNode(id); p != 1 {
			t.Fatalf("AI job node %d in partition %d", id, p)
		}
	}
	if jg.Setting != gpuSpec.DefaultSetting() {
		t.Errorf("AI job setting %+v, want GPU default %+v", jg.Setting, gpuSpec.DefaultSetting())
	}

	// A job larger than its partition is dropped even though the fleet
	// has enough nodes in total.
	if jd := r.s.Submit(r.partSpec(3, 1, 5, time.Hour)); jd.State != Dropped {
		t.Errorf("oversized AI job state %v, want dropped", jd.State)
	}
	// The CPU partition still takes a job of its full remaining size.
	if j := r.s.Submit(r.partSpec(4, 0, 4, time.Hour)); j.State != Running {
		t.Errorf("CPU fill job state %v, want running", j.State)
	}
}

// A queue head blocked on its own partition must not stop a job in the
// other partition from starting (it cannot delay the head).
func TestHeterogeneousBackfillAcrossPartitions(t *testing.T) {
	r := newHeteroRig(t, 10, 4, DefaultConfig())
	if j := r.s.Submit(r.partSpec(1, 0, 10, 2*time.Hour)); j.State != Running {
		t.Fatal("first CPU job should run")
	}
	// Head: CPU job that must wait for the first to finish.
	head := r.s.Submit(r.partSpec(2, 0, 10, time.Hour))
	if head.State != Queued {
		t.Fatal("head should queue")
	}
	// An AI job behind the blocked head starts immediately — a long
	// runtime (well past the head's shadow) must not matter.
	jg := r.s.Submit(r.partSpec(3, 1, 4, 8*time.Hour))
	if jg.State != Running {
		t.Fatalf("AI job state %v, want running behind blocked CPU head", jg.State)
	}
	r.eng.Run()
	if head.State != Completed || jg.State != Completed {
		t.Fatalf("end states %v / %v", head.State, jg.State)
	}
}

// Neither backfill policy may count another partition's capacity
// toward a job's plan on a heterogeneous machine, with or without a
// reservation installed, and whether the other partition is busy or
// idle: a same-partition candidate that outlives the head's shadow stays
// queued, and the head starts when its own partition frees up.
func TestHeterogeneousShadowIgnoresOtherPartitions(t *testing.T) {
	run := func(t *testing.T, policy BackfillPolicy, aiBusy, reserve bool) *Job {
		cfg := DefaultConfig()
		cfg.BackfillDepth = 4
		cfg.Backfill = policy
		r := newHeteroRig(t, 8, 4, cfg)
		cpuJob := r.s.Submit(r.partSpec(1, 0, 6, 10*time.Hour))
		if cpuJob.State != Running {
			t.Fatal("setup CPU job should run")
		}
		if aiBusy {
			if aiJob := r.s.Submit(r.partSpec(2, 1, 4, time.Hour)); aiJob.State != Running {
				t.Fatal("setup AI job should run")
			}
		}
		if reserve {
			if err := r.s.AddReservation(Reservation{Name: "later", Nodes: []int{0},
				From: t0.Add(1000 * time.Hour), To: t0.Add(1001 * time.Hour)}); err != nil {
				t.Fatal(err)
			}
		}
		head := r.s.Submit(r.partSpec(3, 0, 8, time.Hour))
		cand := r.s.Submit(r.partSpec(4, 0, 2, 40*time.Hour))
		if cand.State != Queued {
			t.Fatalf("reservation %v: candidate %v at t0, want queued (it would delay the head)", reserve, cand.State)
		}
		r.eng.Run()
		if !head.Start.Equal(cpuJob.End) {
			t.Fatalf("reservation %v: head started %v, want the CPU job's end %v", reserve, head.Start, cpuJob.End)
		}
		return head
	}
	for _, policy := range []BackfillPolicy{BackfillEASY, BackfillConservative} {
		for _, aiBusy := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/ai-busy=%v", policy, aiBusy), func(t *testing.T) {
				plainHead, resvHead := run(t, policy, aiBusy, false), run(t, policy, aiBusy, true)
				if !resvHead.Start.Equal(plainHead.Start) {
					t.Fatalf("a pending reservation moved the head from %v to %v", plainHead.Start, resvHead.Start)
				}
			})
		}
	}
}

// Preemption for a high-priority head only evicts victims in the head's
// partition.
func TestHeterogeneousPreemptionStaysInPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Preemption = PreemptRequeue
	r := newHeteroRig(t, 8, 4, cfg)
	jg := r.s.Submit(r.partSpec(1, 1, 4, 4*time.Hour)) // fills the AI partition
	jc := r.s.Submit(r.partSpec(2, 0, 8, 4*time.Hour)) // fills the CPU partition
	if jg.State != Running || jc.State != Running {
		t.Fatal("setup jobs should run")
	}
	hi := r.partSpec(3, 1, 4, time.Hour)
	hi.Priority = 10
	jhi := r.s.Submit(hi)
	if jhi.State != Running {
		t.Fatalf("high-priority AI job state %v, want running after preemption", jhi.State)
	}
	if jg.State != Queued {
		t.Errorf("AI victim state %v, want requeued", jg.State)
	}
	if jc.State != Running {
		t.Errorf("CPU job state %v — preemption crossed partitions", jc.State)
	}
}
