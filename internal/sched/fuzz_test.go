package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
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
//   - every node is either free or busy;
//   - utilisation stays within [0, 1];
//   - jobs are conserved: everything submitted is queued, held, running,
//     or terminally accounted (completed, dropped, or preempted in cancel
//     mode).
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
	for id := range seen {
		if s.free.Contains(id) {
			t.Fatalf("%s: busy node %d is in the free set", tag, id)
		}
	}
	if got := s.free.Count() + busy; got != total {
		t.Fatalf("%s: free %d + busy %d = %d, want %d nodes", tag, s.free.Count(), busy, got, total)
	}
	if u := s.Utilisation(); u < 0 || u > 1 {
		t.Fatalf("%s: utilisation %v out of [0,1]", tag, u)
	}
	st := s.Stats()
	terminal := st.Completed + st.Dropped
	if s.cfg.Preemption == PreemptCancel {
		terminal += st.Preemptions
	}
	if live := s.QueueDepth() + s.HeldJobs() + len(s.running); live+terminal != st.Submitted {
		t.Fatalf("%s: %d live + %d terminal jobs, %d submitted", tag, live, terminal, st.Submitted)
	}
}

// switchProvider answers like cappedProvider at either the capped or the
// default setting, and bumps its epoch on every switch.
type switchProvider struct {
	spec   *cpu.Spec
	capped bool
	epoch  uint64
}

func newSwitchProvider(spec *cpu.Spec) *switchProvider {
	return &switchProvider{spec: spec, capped: true, epoch: 1}
}

func (p *switchProvider) setting() cpu.FreqSetting {
	if p.capped {
		return p.spec.CappedSetting()
	}
	return p.spec.DefaultSetting()
}

func (p *switchProvider) JobSettings(*apps.App) (cpu.FreqSetting, cpu.Mode, bool) {
	return p.setting(), cpu.PerformanceDeterminism, false
}

func (p *switchProvider) PeekSettings(*apps.App) (cpu.FreqSetting, cpu.Mode) {
	return p.setting(), cpu.PerformanceDeterminism
}

func (p *switchProvider) SettingsEpoch() uint64 { return p.epoch }

func (p *switchProvider) toggle() {
	p.capped = !p.capped
	p.epoch++
}

// schedState renders what a submission's skipped pass must leave as the
// full pass would: the queue, the held jobs, the running set with ends
// and allocations, the free set and the statistics.
func schedState(s *Scheduler) string {
	var b strings.Builder
	for _, j := range s.QueuedJobs() {
		fmt.Fprintf(&b, "q%d ", j.Spec.ID)
	}
	for _, j := range s.heldJobs {
		fmt.Fprintf(&b, "h%d@%v ", j.Spec.ID, j.releaseAt)
	}
	for _, j := range s.running {
		fmt.Fprintf(&b, "r%d@%v%v ", j.Spec.ID, j.End, j.Nodes)
	}
	fmt.Fprintf(&b, "free %x %+v", s.free.bits, s.Stats())
	return b.String()
}

// FuzzSchedulerOps drives the scheduler with an arbitrary byte-decoded
// operation stream — submits, emergency reclocks, operating-point
// switches, clock advances — over a fuzzer-chosen policy
// configuration (backfill flavour, depth, priority aging, preemption
// mode) on a homogeneous or two-partition machine, asserting the
// structural invariants after every operation and again after the event
// queue fully drains.
//
// A twin scheduler takes the same stream but is unsettled before every
// operation, so each of its submissions runs the full scheduling pass.
// The two must agree after every operation: that is the settled-pass
// rule checked against always scheduling. Completed jobs submit a
// follow-up from their end callback on both sides, so submissions also
// arrive between a finish and its pass.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 8, 2, 1, 12, 4, 5, 3, 2, 9, 1, 6, 2, 5, 7})
	f.Add([]byte{1, 1, 1, 0, 15, 47, 5, 8, 30, 6, 3, 9, 3, 8, 1, 2, 2, 5, 95})
	f.Add([]byte{2, 2, 3, 3, 7, 24, 0, 8, 10, 2, 3, 1, 8, 30, 4, 3, 5, 40})
	f.Add([]byte{5, 1, 2, 2, 16, 40, 3, 5, 60, 9, 16, 8, 30, 2, 2, 5, 80, 8, 30})
	// A two-partition machine.
	f.Add([]byte{2, 0x80, 0, 0, 0, 9, 40, 0, 0, 15, 60, 0x80, 1, 3, 4, 1, 0, 7, 200, 0, 8,
		2, 8, 20, 5, 0, 3, 5, 2, 1, 9, 12, 2, 4, 9, 0, 9, 4, 0, 4, 30, 5, 12, 4, 2, 3, 1,
		8, 2, 9, 5, 0, 2, 5, 1, 7, 8, 1, 6, 3, 5, 0, 5, 30})
	// A conservative pass that started nothing does not stay a no-op as
	// time passes: here a later full pass starts job 4, which a settled
	// scheduler would skip. Its planned-start profile is not monotone in
	// time, so conservative backfill never settles.
	f.Add([]byte("2\xa310210227A001000000010029X1011M01022+002$0\xe027002CX\xcf7*2"))
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
		hetero := data[1]&0x80 != 0
		app := &apps.App{Name: "fuzz", Kernel: roofline.Kernel{ComputeFraction: 0.5},
			ActCore: 0.6, ActUncore: 0.6}
		build := func() (*des.Engine, *Scheduler, *switchProvider) {
			fcfg := facility.ARCHER2()
			fcfg.Nodes = total
			if hetero {
				fcfg.Nodes = total - 8
				fcfg.Partitions = []facility.Partition{facility.AIPartition(8)}
			}
			fac, err := facility.New(fcfg, rng.New(7), t0)
			if err != nil {
				t.Fatal(err)
			}
			eng := des.NewEngine(t0)
			prov := newSwitchProvider(fcfg.CPU)
			s := New(eng, fac, prov, cfg)
			s.OnJobEnd(func(j *Job) {
				if j.State == Completed && j.Spec.ID < followBase && j.Spec.ID%3 == 0 {
					s.Submit(workload.JobSpec{ID: followBase + j.Spec.ID, Class: "fuzz", App: app,
						Nodes: j.Spec.Nodes, RefRuntime: j.Spec.RefRuntime, Partition: j.Spec.Partition})
				}
			})
			return eng, s, prov
		}
		eng, s, prov := build()
		twinEng, twin, twinProv := build()
		fcfg := facility.ARCHER2()

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
		jobID := 0
		for opIdx := 0; ; opIdx++ {
			op, ok := next()
			if !ok {
				break
			}
			twin.settled = false
			switch op % 7 {
			case 0, 1, 2, 3, 4: // submit
				b1, _ := next()
				b2, _ := next()
				b3, _ := next()
				jobID++
				spec := workload.JobSpec{
					ID: jobID, Class: "fuzz", App: app,
					Nodes:      1 + int(b1%16),
					RefRuntime: time.Duration(1+int(b2%48)) * 15 * time.Minute,
					Priority:   int(b3 % 6),
				}
				if hetero && b3&0x80 != 0 {
					spec.Partition = 1
				}
				s.Submit(spec)
				twin.Submit(spec)
			case 5: // advance the clock
				b1, _ := next()
				now = now.Add(time.Duration(b1%96) * 10 * time.Minute)
				eng.RunUntil(now)
				twinEng.RunUntil(now)
			case 6: // emergency reclock of all running jobs, or a switch of the operating point for new ones
				b1, _ := next()
				if b1&4 != 0 {
					prov.toggle()
					twinProv.toggle()
					break
				}
				fs := fcfg.CPU.DefaultSetting()
				if b1%2 == 1 {
					fs = fcfg.CPU.CappedSetting()
				}
				for _, s := range []*Scheduler{s, twin} {
					if _, err := s.ReclockRunning(fs); err != nil {
						t.Fatal(err)
					}
				}
			}
			tag := fmt.Sprintf("op %d", opIdx)
			checkSchedulerInvariants(t, tag, s, total)
			if got, want := schedState(s), schedState(twin); got != want {
				t.Fatalf("%s: settled scheduler\n  %s\nalways-pass twin\n  %s", tag, got, want)
			}
		}
		eng.Run()
		twinEng.Run()
		checkSchedulerInvariants(t, "drained", s, total)
		if got, want := schedState(s), schedState(twin); got != want {
			t.Fatalf("drained: settled scheduler\n  %s\nalways-pass twin\n  %s", got, want)
		}
	})
}

// followBase offsets the IDs of the follow-up jobs FuzzSchedulerOps
// submits from end callbacks; follow-ups submit none of their own.
const followBase = 1 << 20
