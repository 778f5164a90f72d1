package sched

import (
	"fmt"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/node"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/workload"
)

// checkSchedulerInvariants asserts the structural invariants that must
// hold after every operation, whatever the policy mix:
//
//   - no node is allocated to two running jobs, and the per-node index
//     agrees with the running set exactly: a running job's nodes map to
//     it, every other node maps to nil;
//   - every node is in exactly one of the four ledgers: free, busy,
//     reservation-captured, or down;
//   - utilisation stays within [0, 1];
//   - jobs are conserved: everything submitted is queued, held, running,
//     or terminally accounted (completed, failed, dropped, or preempted
//     in cancel mode).
func checkSchedulerInvariants(t *testing.T, tag string, s *Scheduler, total int) {
	t.Helper()
	seen := make(map[int]*Job, total)
	busy := 0
	for _, j := range s.running {
		for _, id := range j.Nodes {
			if prev, ok := seen[id]; ok {
				t.Fatalf("%s: node %d allocated to jobs %d and %d", tag, id, prev.Spec.ID, j.Spec.ID)
			}
			seen[id] = j
			if s.byNode[id] != j {
				t.Fatalf("%s: node %d runs job %d but byNode disagrees", tag, id, j.Spec.ID)
			}
		}
		busy += len(j.Nodes)
	}
	indexed := 0
	for id, j := range s.byNode {
		if j == nil {
			continue
		}
		indexed++
		if seen[id] != j {
			t.Fatalf("%s: node %d indexed to job %d outside its running allocation", tag, id, j.Spec.ID)
		}
	}
	if len(s.byNode) != total || indexed != busy || s.BusyNodes() != busy {
		t.Fatalf("%s: node index %d/%d entries, busy ledger %d, running set says %d",
			tag, indexed, len(s.byNode), s.BusyNodes(), busy)
	}
	down := 0
	for id := 0; id < total; id++ {
		if s.fac.Node(id).State() == node.Down {
			down++
			if s.free.Contains(id) {
				t.Fatalf("%s: down node %d is in the free set", tag, id)
			}
			if _, ok := seen[id]; ok {
				t.Fatalf("%s: down node %d is allocated", tag, id)
			}
		}
	}
	if got := s.free.Count() + busy + s.ReservedNodes() + down; got != total {
		t.Fatalf("%s: free %d + busy %d + captured %d + down %d = %d, want %d nodes",
			tag, s.free.Count(), busy, s.ReservedNodes(), down, got, total)
	}
	if s.free.Count()+busy != s.UpNodes() {
		t.Fatalf("%s: free %d + busy %d != up %d", tag, s.free.Count(), busy, s.UpNodes())
	}
	if u := s.Utilisation(); u < 0 || u > 1 {
		t.Fatalf("%s: utilisation %v out of [0,1]", tag, u)
	}
	st := s.Stats()
	terminal := st.Completed + st.Failed + st.Dropped
	if s.cfg.Preemption == PreemptCancel {
		terminal += st.Preemptions
	}
	if live := s.QueueDepth() + s.HeldJobs() + len(s.running); live+terminal != st.Submitted {
		t.Fatalf("%s: %d live + %d terminal jobs, %d submitted", tag, live, terminal, st.Submitted)
	}
}

// FuzzSchedulerOps drives the scheduler with an arbitrary byte-decoded
// operation stream — submits, node failures and repairs, emergency
// reclocks, reservation installs and cancellations, clock advances —
// over a fuzzer-chosen policy configuration (backfill flavour, depth,
// priority aging, preemption mode), asserting the structural invariants
// after every operation and again after the event queue fully drains.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 8, 2, 1, 12, 4, 5, 3, 2, 9, 1, 6, 2, 5, 7})
	f.Add([]byte{1, 1, 1, 0, 15, 47, 5, 8, 30, 6, 3, 9, 3, 8, 1, 2, 2, 5, 95})
	f.Add([]byte{2, 2, 3, 3, 7, 24, 0, 8, 10, 2, 3, 1, 8, 30, 4, 3, 5, 40})
	f.Add([]byte{5, 1, 2, 2, 16, 40, 3, 5, 60, 9, 16, 8, 30, 2, 2, 5, 80, 8, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("not enough bytes for a config")
		}
		const total = 32
		cfg := Config{
			BackfillDepth: int(data[0] % 8),
			MaxQueue:      24,
			Backfill:      BackfillPolicy(data[1] % 2),
			Preemption:    PreemptionMode(data[2] % 3),
			AgingHours:    float64(data[3]%3) * 6,
			ReuseJobs:     data[3]&0x80 != 0,
		}
		fcfg := facility.ARCHER2()
		fcfg.Nodes = total
		fac, err := facility.New(fcfg, rng.New(7), t0)
		if err != nil {
			t.Fatal(err)
		}
		eng := des.NewEngine(t0)
		s := New(eng, fac, cappedProvider{fcfg.CPU}, cfg)
		app := &apps.App{Name: "fuzz", Kernel: roofline.Kernel{ComputeFraction: 0.5},
			ActCore: 0.6, ActUncore: 0.6}

		ops := data[4:]
		next := func() (byte, bool) {
			if len(ops) == 0 {
				return 0, false
			}
			b := ops[0]
			ops = ops[1:]
			return b, true
		}
		now := t0
		jobID, resvN := 0, 0
		for opIdx := 0; ; opIdx++ {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 10 {
			case 0, 1, 2, 3, 4: // submit
				b1, _ := next()
				b2, _ := next()
				b3, _ := next()
				jobID++
				s.Submit(workload.JobSpec{
					ID: jobID, Class: "fuzz", App: app,
					Nodes:      1 + int(b1%16),
					RefRuntime: time.Duration(1+int(b2%48)) * 15 * time.Minute,
					Priority:   int(b3 % 6),
				})
			case 5: // advance the clock
				b1, _ := next()
				now = now.Add(time.Duration(b1%96) * 10 * time.Minute)
				eng.RunUntil(now)
			case 6: // node failure
				b1, _ := next()
				if err := s.FailNode(int(b1 % total)); err != nil {
					t.Fatal(err)
				}
			case 7: // node repair
				b1, _ := next()
				if err := s.RepairNode(int(b1 % total)); err != nil {
					t.Fatal(err)
				}
			case 8: // reservation install / cancel
				b1, _ := next()
				b2, _ := next()
				b3, _ := next()
				if b1%4 == 3 {
					if names := s.Reservations(); len(names) > 0 {
						s.CancelReservation(names[int(b2)%len(names)])
					}
					break
				}
				a := int(b2 % total)
				ln := 1 + int(b3%8)
				if a+ln > total {
					ln = total - a
				}
				ids := make([]int, ln)
				for i := range ids {
					ids[i] = a + i
				}
				resvN++
				from := now.Add(time.Duration(b1%4) * time.Hour)
				if err := s.AddReservation(Reservation{
					Name: fmt.Sprintf("r%d", resvN), Nodes: ids,
					From: from, To: from.Add(time.Duration(1+b3%6) * time.Hour),
				}); err != nil {
					t.Fatal(err)
				}
			case 9: // emergency reclock of all running jobs
				b1, _ := next()
				fs := fcfg.CPU.DefaultSetting()
				if b1%2 == 1 {
					fs = fcfg.CPU.CappedSetting()
				}
				if _, err := s.ReclockRunning(fs); err != nil {
					t.Fatal(err)
				}
			}
			checkSchedulerInvariants(t, fmt.Sprintf("op %d", opIdx), s, total)
		}
		eng.Run()
		checkSchedulerInvariants(t, "drained", s, total)
	})
}
