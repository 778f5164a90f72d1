package sched

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/node"
	"github.com/greenhpc/archertwin/internal/policy"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/units"
	"github.com/greenhpc/archertwin/internal/workload"
)

var t0 = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

// stockProvider always uses the stock operating point.
type stockProvider struct{ spec *cpu.Spec }

func (p stockProvider) JobSettings(*apps.App) (cpu.FreqSetting, cpu.Mode, bool) {
	return p.spec.DefaultSetting(), cpu.PowerDeterminism, false
}

func (p stockProvider) PeekSettings(*apps.App) (cpu.FreqSetting, cpu.Mode) {
	return p.spec.DefaultSetting(), cpu.PowerDeterminism
}

func (p stockProvider) SettingsEpoch() uint64 { return 1 }

type rig struct {
	eng *des.Engine
	fac *facility.Facility
	s   *Scheduler
	app *apps.App
}

func newRig(t *testing.T, nodes int, cfg Config) *rig {
	t.Helper()
	fcfg := facility.ARCHER2()
	fcfg.Nodes = nodes
	fac, err := facility.New(fcfg, rng.New(5), t0)
	if err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine(t0)
	s := New(eng, fac, stockProvider{fcfg.CPU}, cfg)
	app := &apps.App{
		Name:    "test-app",
		Kernel:  roofline.Kernel{ComputeFraction: 0.5},
		ActCore: 0.6, ActUncore: 0.6,
	}
	return &rig{eng: eng, fac: fac, s: s, app: app}
}

func (r *rig) spec(id, nodes int, runtime time.Duration) workload.JobSpec {
	return workload.JobSpec{ID: id, Class: "test", App: r.app, Nodes: nodes, RefRuntime: runtime}
}

func TestSingleJobLifecycle(t *testing.T) {
	r := newRig(t, 10, DefaultConfig())
	j := r.s.Submit(r.spec(1, 4, time.Hour))
	if j.State != Running {
		t.Fatalf("state = %v, want running", j.State)
	}
	if r.s.BusyNodes() != 4 || math.Abs(r.s.Utilisation()-0.4) > 1e-9 {
		t.Fatalf("busy = %d util = %v", r.s.BusyNodes(), r.s.Utilisation())
	}
	if len(j.Nodes) != 4 {
		t.Fatalf("allocated = %v", j.Nodes)
	}
	// Lowest IDs first, deterministic.
	for i, id := range j.Nodes {
		if id != i {
			t.Fatalf("allocation = %v, want [0 1 2 3]", j.Nodes)
		}
	}
	r.eng.Run()
	if j.State != Completed {
		t.Fatalf("final state = %v", j.State)
	}
	if r.s.BusyNodes() != 0 || r.s.RunningJobs() != 0 {
		t.Fatal("scheduler not empty after completion")
	}
	st := r.s.Stats()
	if st.Completed != 1 || st.Submitted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if j.Energy.Joules() <= 0 {
		t.Fatal("no energy accounted")
	}
	// Runtime at the reference point equals the reference runtime up to the
	// sampled per-die performance spread (sigma 0.8%).
	if math.Abs(j.Runtime.Hours()-1) > 0.03 {
		t.Fatalf("runtime = %v, want ~1h", j.Runtime)
	}
	if math.Abs(st.NodeHoursUsed-4*j.Runtime.Hours()) > 1e-9 {
		t.Fatalf("node hours = %v, want %v", st.NodeHoursUsed, 4*j.Runtime.Hours())
	}
}

func TestFCFSQueueing(t *testing.T) {
	r := newRig(t, 10, Config{BackfillDepth: 0, MaxQueue: 100})
	j1 := r.s.Submit(r.spec(1, 8, time.Hour))
	j2 := r.s.Submit(r.spec(2, 8, time.Hour))
	if j1.State != Running || j2.State != Queued {
		t.Fatalf("states = %v, %v", j1.State, j2.State)
	}
	r.eng.Run()
	if j2.State != Completed {
		t.Fatalf("j2 = %v", j2.State)
	}
	if j2.Start.Before(j1.End) {
		t.Fatalf("j2 started %v before j1 ended %v", j2.Start, j1.End)
	}
	// Wait equals j1's (die-spread-adjusted) runtime, ~1h +/- 3%.
	if got := j2.WaitTime(); math.Abs(got.Hours()-1) > 0.03 {
		t.Fatalf("j2 wait = %v, want ~1h", got)
	}
}

func TestEASYBackfill(t *testing.T) {
	// 10 nodes. j1 takes 8 for 2h. j2 (head, blocked) wants 10.
	// j3 wants 2 nodes for 1h: fits now and ends before j1 frees nodes,
	// so EASY must start it immediately.
	r := newRig(t, 10, DefaultConfig())
	j1 := r.s.Submit(r.spec(1, 8, 2*time.Hour))
	j2 := r.s.Submit(r.spec(2, 10, time.Hour))
	j3 := r.s.Submit(r.spec(3, 2, time.Hour))
	if j1.State != Running {
		t.Fatalf("j1 = %v", j1.State)
	}
	if j2.State != Queued {
		t.Fatalf("j2 = %v", j2.State)
	}
	if j3.State != Running {
		t.Fatalf("j3 = %v (backfill failed)", j3.State)
	}
	r.eng.Run()
	// j2 must not have been delayed beyond j1's end.
	if !j2.Start.Equal(j1.End) {
		t.Fatalf("j2 started %v, want %v", j2.Start, j1.End)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	// j3 would fit now but runs past the shadow time and needs nodes the
	// head will use: it must NOT be backfilled.
	r := newRig(t, 10, DefaultConfig())
	j1 := r.s.Submit(r.spec(1, 8, 2*time.Hour))
	j2 := r.s.Submit(r.spec(2, 10, time.Hour))
	j3 := r.s.Submit(r.spec(3, 2, 10*time.Hour))
	if j3.State != Queued {
		t.Fatalf("j3 = %v, should wait (would delay head)", j3.State)
	}
	r.eng.Run()
	if !j2.Start.Equal(j1.End) {
		t.Fatalf("head delayed: started %v, want %v", j2.Start, j1.End)
	}
}

func TestBackfillUsesExtraNodes(t *testing.T) {
	// Head needs 8 after j1's 4-node job ends; 10-node system: free now =
	// 6, so shadow leaves extra = (6+4)-8 = 2 nodes. A long 2-node job can
	// backfill even though it outlives the shadow time.
	r := newRig(t, 10, DefaultConfig())
	j1 := r.s.Submit(r.spec(1, 4, 2*time.Hour))
	j2 := r.s.Submit(r.spec(2, 8, time.Hour))
	j3 := r.s.Submit(r.spec(3, 2, 24*time.Hour))
	if j1.State != Running || j2.State != Queued {
		t.Fatalf("setup wrong: j1=%v j2=%v", j1.State, j2.State)
	}
	if j3.State != Running {
		t.Fatalf("j3 = %v, want backfilled on extra nodes", j3.State)
	}
	r.eng.Run()
	if !j2.Start.Equal(j1.End) {
		t.Fatalf("head delayed to %v", j2.Start)
	}
}

func TestDropOversizedAndOverflow(t *testing.T) {
	r := newRig(t, 10, Config{BackfillDepth: 0, MaxQueue: 2})
	if j := r.s.Submit(r.spec(1, 11, time.Hour)); j.State != Dropped {
		t.Fatalf("oversized job = %v", j.State)
	}
	r.s.Submit(r.spec(2, 10, time.Hour)) // running
	r.s.Submit(r.spec(3, 10, time.Hour)) // queued
	r.s.Submit(r.spec(4, 10, time.Hour)) // queued
	if j := r.s.Submit(r.spec(5, 1, time.Hour)); j.State != Dropped {
		t.Fatalf("overflow job = %v", j.State)
	}
	if r.s.Stats().Dropped != 2 {
		t.Fatalf("dropped = %d", r.s.Stats().Dropped)
	}
}

func TestNodeConservation(t *testing.T) {
	// Property-style stress: random-ish job stream; at every completion
	// the invariant busy+free+down == total holds and no node is double
	// allocated.
	r := newRig(t, 50, DefaultConfig())
	seen := func() {
		inUse := map[int]bool{}
		for _, j := range r.s.running {
			for _, id := range j.Nodes {
				if inUse[id] {
					t.Fatalf("node %d double-allocated", id)
				}
				inUse[id] = true
			}
		}
		if len(inUse) != r.s.BusyNodes() {
			t.Fatalf("busy count %d != allocated %d", r.s.BusyNodes(), len(inUse))
		}
		if r.s.BusyNodes()+r.s.free.Count() != r.s.UpNodes() {
			t.Fatalf("conservation: busy %d + free %d != up %d",
				r.s.BusyNodes(), r.s.free.Count(), r.s.UpNodes())
		}
	}
	r.s.OnJobEnd(func(*Job) { seen() })
	stream := rng.New(77)
	for i := 0; i < 200; i++ {
		nodes := 1 + stream.Intn(20)
		rt := time.Duration(1+stream.Intn(8)) * time.Hour
		r.s.Submit(r.spec(i, nodes, rt))
		seen()
	}
	r.eng.Run()
	st := r.s.Stats()
	if st.Completed != 200 {
		t.Fatalf("completed = %d, want 200", st.Completed)
	}
	if r.s.BusyNodes() != 0 || r.s.free.Count() != 50 {
		t.Fatal("not all nodes returned")
	}
}

func TestFailNodeIdle(t *testing.T) {
	r := newRig(t, 10, DefaultConfig())
	if err := r.s.FailNode(3); err != nil {
		t.Fatal(err)
	}
	if r.s.UpNodes() != 9 {
		t.Fatalf("up = %d", r.s.UpNodes())
	}
	// A 10-node job can no longer run; 9-node job can and avoids node 3.
	j := r.s.Submit(r.spec(1, 9, time.Hour))
	if j.State != Running {
		t.Fatalf("9-node job = %v", j.State)
	}
	for _, id := range j.Nodes {
		if id == 3 {
			t.Fatal("failed node allocated")
		}
	}
	// Repair and reuse.
	r.eng.Run()
	if err := r.s.RepairNode(3); err != nil {
		t.Fatal(err)
	}
	if r.s.UpNodes() != 10 {
		t.Fatalf("up after repair = %d", r.s.UpNodes())
	}
	j2 := r.s.Submit(r.spec(2, 10, time.Hour))
	if j2.State != Running {
		t.Fatalf("10-node job after repair = %v", j2.State)
	}
}

func TestFailNodeKillsJob(t *testing.T) {
	r := newRig(t, 10, DefaultConfig())
	j := r.s.Submit(r.spec(1, 4, 10*time.Hour))
	r.eng.RunUntil(t0.Add(2 * time.Hour))
	if err := r.s.FailNode(j.Nodes[0]); err != nil {
		t.Fatal(err)
	}
	if j.State != Failed {
		t.Fatalf("job state = %v, want failed", j.State)
	}
	if j.Runtime != 2*time.Hour {
		t.Fatalf("failed job runtime = %v, want 2h", j.Runtime)
	}
	// Other three nodes are free again; the failed one is down.
	if r.s.UpNodes() != 9 || r.s.free.Count() != 9-0 {
		t.Fatalf("up = %d free = %d", r.s.UpNodes(), r.s.free.Count())
	}
	if r.fac.Node(j.Nodes[0]).State() != node.Down {
		t.Fatal("failed node not down")
	}
	if r.s.Stats().Failed != 1 {
		t.Fatalf("failed stat = %d", r.s.Stats().Failed)
	}
	// Double-fail and out-of-range are handled.
	if err := r.s.FailNode(j.Nodes[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.s.FailNode(-1); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := r.s.RepairNode(9999); err == nil {
		t.Fatal("out-of-range repair accepted")
	}
}

func TestRuntimeStretchedByOperatingPoint(t *testing.T) {
	// A capped provider must stretch runtimes per the roofline model.
	fcfg := facility.ARCHER2()
	fcfg.Nodes = 10
	fac, err := facility.New(fcfg, rng.New(5), t0)
	if err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine(t0)
	s := New(eng, fac, cappedProvider{fcfg.CPU}, DefaultConfig())
	app := &apps.App{Name: "x", Kernel: roofline.Kernel{ComputeFraction: 1.0}, ActCore: 1, ActUncore: 0.2}
	j := s.Submit(workload.JobSpec{ID: 1, App: app, Nodes: 2, RefRuntime: time.Hour})
	if j.State != Running {
		t.Fatalf("state = %v", j.State)
	}
	// Fully compute-bound at 2.0 vs 2.8 boost: 1.4x, divided by the
	// perf-det factor 0.99.
	want := 1.4 / 0.99
	got := float64(j.Runtime) / float64(time.Hour)
	if math.Abs(got-want) > 0.001 {
		t.Fatalf("stretch = %v, want %v", got, want)
	}
	if j.Mode != cpu.PerformanceDeterminism || j.Setting.Boost {
		t.Fatalf("operating point = %v/%v", j.Setting, j.Mode)
	}
}

type cappedProvider struct{ spec *cpu.Spec }

func (p cappedProvider) JobSettings(*apps.App) (cpu.FreqSetting, cpu.Mode, bool) {
	return p.spec.CappedSetting(), cpu.PerformanceDeterminism, false
}

func (p cappedProvider) PeekSettings(*apps.App) (cpu.FreqSetting, cpu.Mode) {
	return p.spec.CappedSetting(), cpu.PerformanceDeterminism
}

func (p cappedProvider) SettingsEpoch() uint64 { return 1 }

func TestMeanWait(t *testing.T) {
	var st Stats
	if st.MeanWait() != 0 {
		t.Fatal("zero-jobs mean wait nonzero")
	}
	st.StartedJobs = 2
	st.TotalWait = 3 * time.Hour
	if st.MeanWait() != 90*time.Minute {
		t.Fatalf("mean wait = %v", st.MeanWait())
	}
}

func TestJobStateString(t *testing.T) {
	for _, s := range []JobState{Queued, Running, Completed, Failed, Dropped, JobState(42)} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
}

func TestReclockRunning(t *testing.T) {
	r := newRig(t, 20, DefaultConfig())
	// Fully compute-bound app so the stretch is exactly the frequency ratio.
	app := &apps.App{Name: "cb", Kernel: roofline.Kernel{ComputeFraction: 1.0},
		ActCore: 1.0, ActUncore: 0.2}
	j := r.s.Submit(workload.JobSpec{ID: 1, App: app, Nodes: 4, RefRuntime: 4 * time.Hour})
	if j.State != Running {
		t.Fatal("setup: job not running")
	}
	runtimeBefore := j.Runtime
	powerBefore := 0.0
	for _, id := range j.Nodes {
		powerBefore += r.fac.Node(id).Power().Watts()
	}

	// Halfway through, cap to 2.0 GHz.
	half := j.Start.Add(j.Runtime / 2)
	r.eng.RunUntil(half)
	n, err := r.s.ReclockRunning(r.fac.Config().CPU.CappedSetting())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reclocked %d jobs", n)
	}
	powerAfter := 0.0
	for _, id := range j.Nodes {
		powerAfter += r.fac.Node(id).Power().Watts()
	}
	if powerAfter >= powerBefore {
		t.Fatalf("reclock did not cut power: %v -> %v", powerBefore, powerAfter)
	}
	// Remaining half stretches by 2.8/2.0 = 1.4: total = 0.5 + 0.5*1.4.
	wantTotal := time.Duration(float64(runtimeBefore) * (0.5 + 0.5*1.4))
	if math.Abs(float64(j.Runtime-wantTotal)) > float64(time.Minute) {
		t.Fatalf("runtime after reclock = %v, want ~%v", j.Runtime, wantTotal)
	}
	// Job still completes, at the adjusted end.
	r.eng.Run()
	if j.State != Completed {
		t.Fatalf("state = %v", j.State)
	}
	if !j.End.Equal(j.Start.Add(j.Runtime)) {
		t.Fatal("end/runtime inconsistent")
	}
	// Energy combines both segments: between full-rate (fast, hot) and
	// capped-rate (slow, cool) single-point totals.
	if j.Energy.Joules() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestReclockRunningRestore(t *testing.T) {
	r := newRig(t, 20, DefaultConfig())
	app := &apps.App{Name: "cb", Kernel: roofline.Kernel{ComputeFraction: 0.5},
		ActCore: 0.8, ActUncore: 0.5}
	j := r.s.Submit(workload.JobSpec{ID: 1, App: app, Nodes: 2, RefRuntime: 6 * time.Hour})
	spec := r.fac.Config().CPU
	r.eng.RunUntil(j.Start.Add(time.Hour))
	if _, err := r.s.ReclockRunning(spec.CappedSetting()); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now().Add(time.Hour))
	// Restore to stock: reclock back.
	if _, err := r.s.ReclockRunning(spec.DefaultSetting()); err != nil {
		t.Fatal(err)
	}
	if j.Setting != spec.DefaultSetting() {
		t.Fatalf("setting = %v", j.Setting)
	}
	// Reclocking to the current setting is a no-op.
	n, err := r.s.ReclockRunning(spec.DefaultSetting())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("no-op reclock touched %d jobs", n)
	}
	r.eng.Run()
	if j.State != Completed {
		t.Fatalf("state = %v", j.State)
	}
}

func TestReclockInvalidSetting(t *testing.T) {
	r := newRig(t, 10, DefaultConfig())
	bad := cpu.FreqSetting{Base: units.Gigahertz(5)}
	if _, err := r.s.ReclockRunning(bad); err == nil {
		t.Fatal("invalid reclock setting accepted")
	}
}

func TestPowerCapAdmission(t *testing.T) {
	r := newRig(t, 20, DefaultConfig())
	// Each 4-node test-app job draws 4 x ~500 W = ~2 kW.
	perJob := 4 * 500.0
	r.s.SetPowerCap(units.Watts(2.2 * perJob)) // room for two jobs
	j1 := r.s.Submit(r.spec(1, 4, time.Hour))
	j2 := r.s.Submit(r.spec(2, 4, 3*time.Hour))
	j3 := r.s.Submit(r.spec(3, 4, 3*time.Hour))
	if j1.State != Running || j2.State != Running {
		t.Fatalf("first two jobs: %v, %v", j1.State, j2.State)
	}
	if j3.State != Queued {
		t.Fatalf("third job = %v, want queued under power cap (est %v, cap %v)",
			j3.State, r.s.EstimatedBusyPower(), r.s.PowerCap())
	}
	// Nodes are free (12 of 20), so the block is the cap, not capacity.
	if r.s.free.Count() < j3.Spec.Nodes {
		t.Fatal("test premise broken: nodes are not free")
	}
	// When j1 ends, j3 starts.
	r.eng.RunUntil(j1.End.Add(time.Minute))
	if j3.State != Running {
		t.Fatalf("j3 after release = %v", j3.State)
	}
	// Removing the cap opens the gates.
	j4 := r.s.Submit(r.spec(4, 4, time.Hour))
	if j4.State != Queued {
		t.Fatalf("j4 = %v, want queued (cap still on)", j4.State)
	}
	r.s.SetPowerCap(0)
	if j4.State != Running {
		t.Fatalf("j4 after cap removal = %v", j4.State)
	}
}

func TestPowerCapLedgerBalances(t *testing.T) {
	r := newRig(t, 30, DefaultConfig())
	for i := 0; i < 10; i++ {
		r.s.Submit(r.spec(i, 3, time.Duration(1+i)*time.Hour))
	}
	if est := r.s.EstimatedBusyPower().Watts(); est <= 0 {
		t.Fatal("no committed power tracked")
	}
	r.eng.Run()
	if est := r.s.EstimatedBusyPower().Watts(); math.Abs(est) > 1e-6 {
		t.Fatalf("ledger nonzero after drain: %v W", est)
	}
}

func TestPowerCapWithReclock(t *testing.T) {
	r := newRig(t, 20, DefaultConfig())
	j := r.s.Submit(r.spec(1, 8, 4*time.Hour))
	before := r.s.EstimatedBusyPower().Watts()
	r.eng.RunUntil(j.Start.Add(time.Hour))
	if _, err := r.s.ReclockRunning(r.fac.Config().CPU.CappedSetting()); err != nil {
		t.Fatal(err)
	}
	after := r.s.EstimatedBusyPower().Watts()
	if after >= before {
		t.Fatalf("ledger did not fall on reclock: %v -> %v", before, after)
	}
	r.eng.Run()
	if est := r.s.EstimatedBusyPower().Watts(); math.Abs(est) > 1e-6 {
		t.Fatalf("ledger nonzero after drain: %v W", est)
	}
}

// Job recycling (Config.ReuseJobs) must be observationally invisible:
// an identical interleaved submission pattern — arrivals racing
// completions so the free list is actually exercised, plus drops and a
// node failure — must produce bit-identical scheduler statistics with
// recycling on and off.
func TestReuseJobsBitIdentical(t *testing.T) {
	run := func(reuse bool) (Stats, float64) {
		cfg := DefaultConfig()
		cfg.MaxQueue = 8 // force the dropped-job recycle path
		cfg.ReuseJobs = reuse
		r := newRig(t, 24, cfg)
		stream := rng.New(99)
		for i := 0; i < 400; i++ {
			at := t0.Add(time.Duration(i) * 7 * time.Minute)
			id, nodes := i, 1+stream.Intn(12)
			runtime := time.Duration(10+stream.Intn(300)) * time.Minute
			r.eng.At(at, func(time.Time) {
				r.s.Submit(r.spec(id, nodes, runtime))
			})
		}
		r.eng.At(t0.Add(24*time.Hour), func(time.Time) {
			if err := r.s.FailNode(3); err != nil {
				t.Error(err)
			}
		})
		r.eng.At(t0.Add(30*time.Hour), func(time.Time) {
			if err := r.s.RepairNode(3); err != nil {
				t.Error(err)
			}
		})
		r.eng.Run()
		return r.s.Stats(), r.fac.Utilisation()
	}
	plainStats, plainUtil := run(false)
	reuseStats, reuseUtil := run(true)
	if plainStats != reuseStats {
		t.Errorf("stats diverge:\n  plain %+v\n  reuse %+v", plainStats, reuseStats)
	}
	if plainUtil != reuseUtil {
		t.Errorf("utilisation diverges: %v vs %v", plainUtil, reuseUtil)
	}
	if plainStats.Completed == 0 || plainStats.Dropped == 0 {
		t.Fatalf("pattern did not exercise completions and drops: %+v", plainStats)
	}
}

// TestBackfillScanAllocFree pins the backfill hot loop's allocation
// behaviour: runtime predictions are cached on the jobs and every
// scratch structure — victim list, capacity profiles, the release walk's
// reservation list — is retained across passes, so a steady-state
// scheduling attempt over a saturated cluster with a deep non-fitting
// queue must not allocate at all. The rows add a started reservation
// that holds free nodes and drains busy ones (plus a pending one), and a
// two-partition machine, under both policies.
func TestBackfillScanAllocFree(t *testing.T) {
	rows := []struct {
		name string
		// setup leaves no node free and 32 jobs queued.
		setup func(t *testing.T, cfg Config) *rig
	}{
		{"saturated", func(t *testing.T, cfg Config) *rig {
			r := newRig(t, 32, cfg)
			for i := 0; i < 32; i++ {
				r.s.Submit(r.spec(i, 1, 200*time.Hour))
			}
			return r
		}},
		{"draining", func(t *testing.T, cfg Config) *rig {
			r := newRig(t, 32, cfg)
			for i := 0; i < 30; i++ {
				r.s.Submit(r.spec(i, 1, 200*time.Hour))
			}
			now := r.eng.Now()
			for _, rs := range []Reservation{
				{Name: "drain", Nodes: []int{26, 27, 28, 29, 30, 31}, From: now, To: now.Add(100 * time.Hour)},
				{Name: "later", Nodes: []int{0, 1, 2, 3}, From: now.Add(50 * time.Hour), To: now.Add(60 * time.Hour)},
			} {
				if err := r.s.AddReservation(rs); err != nil {
					t.Fatal(err)
				}
			}
			if r.s.DrainingNodes() != 4 || r.s.ReservedNodes() != 2 {
				t.Fatalf("%d draining, %d reserved, want 4 and 2", r.s.DrainingNodes(), r.s.ReservedNodes())
			}
			return r
		}},
		{"two-partition", func(t *testing.T, cfg Config) *rig {
			r := newHeteroRig(t, 24, 8, cfg)
			for i := 0; i < 32; i++ {
				r.s.Submit(r.partSpec(i, i/24, 1, 200*time.Hour))
			}
			return r
		}},
	}
	for _, policy := range []BackfillPolicy{BackfillEASY, BackfillConservative} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					r := row.setup(t, Config{BackfillDepth: 16, MaxQueue: 256, Backfill: policy})
					// Queue jobs that can neither start nor backfill (no
					// free nodes at all), alternating partitions where
					// there are two.
					for i := 32; i < 64; i++ {
						spec := r.spec(i, 2, time.Hour)
						spec.Partition = i % 2
						r.s.Submit(spec)
					}
					if r.s.free.Count() != 0 || r.s.QueueDepth() != 32 {
						t.Fatalf("rig not saturated: %d free, %d queued", r.s.free.Count(), r.s.QueueDepth())
					}
					now := r.eng.Now()
					r.s.trySchedule(now) // warm the per-pass caches
					if allocs := testing.AllocsPerRun(200, func() { r.s.trySchedule(now) }); allocs > 0 {
						t.Errorf("steady-state trySchedule allocates %.1f times per pass, want 0", allocs)
					}
				})
			}
		})
	}
}

// TestReleaseWalkTieOrder pins the release walk's order at equal
// times: a running job's release comes before a reservation's, and the
// walk stops at the first release that crosses, so the spare count
// excludes later releases at the same instant. Here the head crosses on
// the running job's release with nothing spare; taking the reservation
// first would leave two spare nodes and let a long candidate backfill.
func TestReleaseWalkTieOrder(t *testing.T) {
	r := newRig(t, 8, Config{BackfillDepth: 4, MaxQueue: 64})
	runner := r.s.Submit(r.spec(1, 4, 10*time.Hour))
	now := r.eng.Now()
	if err := r.s.AddReservation(Reservation{Name: "m", Nodes: []int{4, 5}, From: now, To: runner.End}); err != nil {
		t.Fatal(err)
	}
	var walked []capEvent
	if at, n := r.s.releases(0, r.s.free.Count(), math.MaxInt, &walked); !at.IsZero() || n != 0 {
		t.Fatalf("full walk crossed at %v with %d spare", at, n)
	}
	want := []capEvent{{at: runner.End, delta: 4}, {at: runner.End, delta: 2}}
	if len(walked) != len(want) || walked[0] != want[0] || walked[1] != want[1] {
		t.Fatalf("walk %v, want %v", walked, want)
	}
	if at, spare := r.s.releases(0, r.s.free.Count(), 6, nil); !at.Equal(runner.End) || spare != 0 {
		t.Fatalf("6-node crossing at %v with %d spare, want %v with 0", at, spare, runner.End)
	}
	head := r.s.Submit(r.spec(2, 6, time.Hour))
	cand := r.s.Submit(r.spec(3, 2, 40*time.Hour))
	if head.State != Queued || cand.State != Queued {
		t.Fatalf("head %v, candidate %v: want both queued", head.State, cand.State)
	}
}

// TestPredictRuntimeCachedAllocFree pins a cached prediction (same job,
// unchanged settings epoch) at zero allocations.
func TestPredictRuntimeCachedAllocFree(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	j := &Job{Spec: r.spec(1, 2, time.Hour)}
	want := r.s.predictRuntime(j)
	allocs := testing.AllocsPerRun(200, func() {
		if r.s.predictRuntime(j) != want {
			t.Fatal("cached prediction changed")
		}
	})
	if allocs != 0 {
		t.Errorf("cached predictRuntime allocates %.1f times per call, want 0", allocs)
	}
}

// TestPredictionEpochMatchesFreshScheduler checks that runtime predictions
// cached on queued jobs follow the provider: when the default setting or
// mode changes between two backfill passes, the next pass starts exactly
// the jobs a fresh scheduler restored into the same state starts. The
// candidate is sized so the change decides it: it needs more nodes than
// the head leaves spare, so it may start only if it ends before the
// running job, which it does at the new operating point but not the old.
func TestPredictionEpochMatchesFreshScheduler(t *testing.T) {
	spec := cpu.EPYC7742()
	app := &apps.App{Name: "cb", Kernel: roofline.Kernel{ComputeFraction: 1}, ActCore: 0.8, ActUncore: 0.3}
	build := func(t *testing.T) (*facility.Facility, *policy.Provider, *Scheduler) {
		fcfg := facility.ARCHER2()
		fcfg.Nodes = 16
		fac, err := facility.New(fcfg, rng.New(5), t0)
		if err != nil {
			t.Fatal(err)
		}
		pcfg := policy.DefaultConfig()
		pcfg.OverridesEnabled = false
		prov, err := policy.NewProvider(spec, pcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fac, prov, New(des.NewEngine(t0), fac, prov, DefaultConfig())
	}
	cases := []struct {
		name   string
		before func(*policy.Provider)
	}{
		{"setting", func(p *policy.Provider) { _ = p.SetDefaultSetting(spec.CappedSetting()) }},
		{"mode", func(p *policy.Provider) { p.SetDefaultMode(cpu.PerformanceDeterminism) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fac, prov, s := build(t)
			c.before(prov)
			job := func(id, nodes int, ref time.Duration) workload.JobSpec {
				return workload.JobSpec{ID: id, Class: "cb", App: app, Nodes: nodes, RefRuntime: ref}
			}
			runner := s.Submit(job(1, 8, 10*time.Hour))
			s.Submit(job(2, 12, time.Hour)) // blocked head: 4 nodes spare at the shadow
			until := float64(runner.End.Sub(t0))
			fs, m := prov.PeekSettings(app)
			before := app.TimeMultiplier(spec, fs, m)
			after := app.TimeMultiplier(spec, spec.DefaultSetting(), cpu.PowerDeterminism)
			cand := s.Submit(job(3, 5, time.Duration(until/math.Sqrt(before*after))))
			if cand.State != Queued {
				t.Fatalf("candidate started at the old operating point: %v", cand.State)
			}

			// Back to the stock defaults between passes.
			_ = prov.SetDefaultSetting(spec.DefaultSetting())
			prov.SetDefaultMode(cpu.PowerDeterminism)

			freshFac, freshProv, fresh := build(t)
			if err := freshFac.Restore(fac.Snapshot()); err != nil {
				t.Fatal(err)
			}
			freshProv.Restore(prov.Snapshot())
			resolve := func(string) (*apps.App, error) { return app, nil }
			if err := fresh.Restore(s.Snapshot(), resolve, func(_ uint64, schedule func()) { schedule() }); err != nil {
				t.Fatal(err)
			}

			s.Kick()
			fresh.Kick()
			ids := func(s *Scheduler) (running, queued []int) {
				for _, j := range s.running {
					running = append(running, j.Spec.ID)
				}
				for _, j := range s.QueuedJobs() {
					queued = append(queued, j.Spec.ID)
				}
				return running, queued
			}
			gotRun, gotQueue := ids(s)
			wantRun, wantQueue := ids(fresh)
			if fmt.Sprint(gotRun, gotQueue) != fmt.Sprint(wantRun, wantQueue) {
				t.Fatalf("running %v queued %v, fresh scheduler: running %v queued %v", gotRun, gotQueue, wantRun, wantQueue)
			}
			if cand.State != Running {
				t.Fatalf("candidate %v after the change, want running", cand.State)
			}
		})
	}
}
