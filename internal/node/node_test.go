package node

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/units"
)

var t0 = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

func newNode(t *testing.T) *Node {
	t.Helper()
	return New(cpu.EPYC7742(), rng.New(42).Split("node"))
}

// newLedgerNode returns a fresh node attached to its own fleet ledger
// starting at t0.
func newLedgerNode(t *testing.T) (*Node, *FleetCounters) {
	t.Helper()
	n := newNode(t)
	c := &FleetCounters{AtNs: t0.UnixNano()}
	n.AttachCounters(c)
	return n, c
}

// relClose reports whether got is within rel of want, relative to want's
// magnitude (absolute rel near zero).
func relClose(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(1, math.Abs(want))
}

func TestIdlePowerMatchesPaper(t *testing.T) {
	// Paper Table 2: compute node idle = 0.23 kW.
	p := IdlePower(cpu.EPYC7742())
	if math.Abs(p.Watts()-230) > 1e-9 {
		t.Fatalf("idle node power = %v, want 230 W", p)
	}
	n := newNode(t)
	if got := n.Power(); math.Abs(got.Watts()-230) > 1e-9 {
		t.Fatalf("fresh node power = %v, want 230 W", got)
	}
}

func TestIdleIsHalfLoaded(t *testing.T) {
	// Paper §5: idle nodes draw ~50% of a fully loaded node.
	spec := cpu.EPYC7742()
	idle := IdlePower(spec)
	loaded := ExpectedPower(spec, spec.DefaultSetting(),
		cpu.Activity{Core: 0.7, Uncore: 0.65}, cpu.PowerDeterminism)
	ratio := idle.Watts() / loaded.Watts()
	if ratio < 0.40 || ratio > 0.60 {
		t.Fatalf("idle/loaded = %v, want ~0.5 (idle %v, loaded %v)", ratio, idle, loaded)
	}
}

func TestStartStopWorkPower(t *testing.T) {
	n, c := newLedgerNode(t)
	a := cpu.Activity{Core: 0.6, Uncore: 0.5}
	n.StartWork(a, t0)
	if !n.Busy() {
		t.Fatal("node not busy after StartWork")
	}
	busy := n.Power()
	if busy.Watts() <= 230 {
		t.Fatalf("busy power = %v, not above idle", busy)
	}
	n.StopWork(t0.Add(time.Hour))
	if n.Busy() {
		t.Fatal("node busy after StopWork")
	}
	if got := n.Power(); math.Abs(got.Watts()-230) > 1e-9 {
		t.Fatalf("post-work power = %v", got)
	}
	// Ledger energy for the hour must equal busy power * 1h, within 1 J
	// (the ledger's power moves by differences, so it may round apart).
	wantE := busy.EnergyOver(time.Hour)
	if math.Abs(c.Energy.Joules()-wantE.Joules()) > 1 {
		t.Fatalf("energy = %v, want %v", c.Energy, wantE)
	}
}

func TestEnergyAccrualAcrossTransitions(t *testing.T) {
	n, c := newLedgerNode(t)
	a := cpu.Activity{Core: 1, Uncore: 0}
	n.StartWork(a, t0) // idle 0..0
	p1 := n.Power()
	n.StopWork(t0.Add(2 * time.Hour)) // busy 0..2h
	c.Accrue(t0.Add(3 * time.Hour))   // idle 2..3h
	want := p1.EnergyOver(2*time.Hour).Joules() + 230*3600
	if math.Abs(c.Energy.Joules()-want) > 1 {
		t.Fatalf("energy = %v J, want %v J (1 J tolerance)", c.Energy.Joules(), want)
	}
}

func TestAccruePastPanics(t *testing.T) {
	_, c := newLedgerNode(t)
	c.Accrue(t0.Add(time.Hour))
	defer func() {
		if recover() == nil {
			t.Fatal("backwards accrual did not panic")
		}
	}()
	c.Accrue(t0)
}

func TestSetFrequency(t *testing.T) {
	n := newNode(t)
	spec := n.Spec
	if err := n.SetFrequency(spec.CappedSetting(), t0); err != nil {
		t.Fatal(err)
	}
	if n.Setting() != spec.CappedSetting() {
		t.Fatalf("setting = %v", n.Setting())
	}
	if err := n.SetFrequency(cpu.FreqSetting{Base: units.Gigahertz(4)}, t0); err == nil {
		t.Fatal("invalid frequency accepted")
	}
}

func TestFrequencyCapReducesBusyPower(t *testing.T) {
	n := newNode(t)
	a := cpu.Activity{Core: 0.8, Uncore: 0.5}
	n.StartWork(a, t0)
	before := n.Power()
	if err := n.SetFrequency(n.Spec.CappedSetting(), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	after := n.Power()
	if after.Watts() >= before.Watts() {
		t.Fatalf("cap did not reduce power: %v -> %v", before, after)
	}
}

func TestSetModeRedrawsAndReducesPower(t *testing.T) {
	n := newNode(t)
	a := cpu.Activity{Core: 0.8, Uncore: 0.5}
	n.StartWork(a, t0)
	before := n.Power()
	pfBefore := n.PerfFactor()
	n.SetMode(cpu.PerformanceDeterminism, t0.Add(time.Minute))
	if n.Mode() != cpu.PerformanceDeterminism {
		t.Fatalf("mode = %v", n.Mode())
	}
	after := n.Power()
	if after.Watts() >= before.Watts() {
		t.Fatalf("perf-det did not reduce busy power: %v -> %v", before, after)
	}
	if n.PerfFactor() == pfBefore {
		t.Log("perf factor unchanged by mode switch (possible but unlikely)")
	}
	if n.PerfFactor() != n.Spec.PerfDetPerfFactor {
		t.Fatalf("perf-det perf factor = %v, want %v", n.PerfFactor(), n.Spec.PerfDetPerfFactor)
	}
	// Switching to the same mode is a no-op (no redraw).
	df := n.Power()
	n.SetMode(cpu.PerformanceDeterminism, t0.Add(2*time.Minute))
	if n.Power() != df {
		t.Fatal("same-mode switch changed power")
	}
}

func TestExpectedPowerModeOrdering(t *testing.T) {
	spec := cpu.EPYC7742()
	a := cpu.Activity{Core: 0.7, Uncore: 0.6}
	pd := ExpectedPower(spec, spec.DefaultSetting(), a, cpu.PowerDeterminism)
	pf := ExpectedPower(spec, spec.DefaultSetting(), a, cpu.PerformanceDeterminism)
	if pf.Watts() >= pd.Watts() {
		t.Fatalf("expected power ordering wrong: %v vs %v", pf, pd)
	}
}

func TestNodeDeterminism(t *testing.T) {
	// Same seed -> identical die factors and power trajectory.
	mk := func() *Node {
		return New(cpu.EPYC7742(), rng.New(99).Split("node"))
	}
	a, b := mk(), mk()
	a.SetMode(cpu.PerformanceDeterminism, t0)
	b.SetMode(cpu.PerformanceDeterminism, t0)
	if a.Power() != b.Power() || a.PerfFactor() != b.PerfFactor() {
		t.Fatal("same-seed nodes diverge")
	}
}

// TestStartJobMatchesSequentialCalls drives two same-seed nodes through a
// random sequence of job starts, stops and mode changes. One starts
// jobs with StartJob, the other with SetMode, SetFrequency and StartWork;
// after every step their full state (RNG position included), cached
// power and ledger counts must agree bit for bit. Ledger power and energy
// agree to a relative 1e-9: the sequential form moves the ledger's power
// by three differences where the fused form moves it by one, which
// rounds differently. Mode flips exercise the die-factor redraw, and
// zero-length intervals the second accrual the fused form drops.
func TestStartJobMatchesSequentialCalls(t *testing.T) {
	spec := cpu.EPYC7742()
	mk := func() (*Node, *FleetCounters) {
		n := New(spec, rng.New(7).Split("node"))
		c := &FleetCounters{AtNs: t0.UnixNano()}
		n.AttachCounters(c)
		return n, c
	}
	fused, fc := mk()
	seq, sc := mk()
	settings := []cpu.FreqSetting{
		{Base: units.Gigahertz(1.5)},
		{Base: units.Gigahertz(2.0)},
		{Base: units.Gigahertz(2.25)},
		{Base: units.Gigahertz(2.25), Boost: true},
	}
	modes := []cpu.Mode{cpu.PowerDeterminism, cpu.PerformanceDeterminism}
	r := rng.New(11).Split("steps")
	at := t0
	for step := 0; step < 5000; step++ {
		if r.Intn(3) > 0 {
			at = at.Add(time.Duration(r.Intn(7200)) * time.Second)
		}
		switch op := r.Intn(10); {
		case op < 6:
			m := modes[r.Intn(len(modes))]
			fs := settings[r.Intn(len(settings))]
			a := cpu.Activity{Core: r.Float64(), Uncore: r.Float64()}
			fused.StartJob(m, spec.Load(fs, a), at)
			seq.SetMode(m, at)
			if err := seq.SetFrequency(fs, at); err != nil {
				t.Fatalf("step %d: SetFrequency(%v): %v", step, fs, err)
			}
			seq.StartWork(a, at)
		case op < 7:
			m := modes[r.Intn(len(modes))]
			fused.SetMode(m, at)
			seq.SetMode(m, at)
		default:
			fused.StopWork(at)
			seq.StopWork(at)
		}
		if fused.Snapshot() != seq.Snapshot() {
			t.Fatalf("step %d: snapshots diverge:\n fused %+v\n   seq %+v", step, fused.Snapshot(), seq.Snapshot())
		}
		if math.Float64bits(fused.PowerWatts()) != math.Float64bits(seq.PowerWatts()) {
			t.Fatalf("step %d: power %v != %v", step, fused.PowerWatts(), seq.PowerWatts())
		}
		if fc.Busy != sc.Busy || fc.AtNs != sc.AtNs {
			t.Fatalf("step %d: fleet counters %+v != %+v", step, *fc, *sc)
		}
		if !relClose(fc.PowerW, sc.PowerW, 1e-9) || !relClose(fc.Energy.Joules(), sc.Energy.Joules(), 1e-9) {
			t.Fatalf("step %d: ledger power/energy %v/%v != %v/%v", step, fc.PowerW, fc.Energy, sc.PowerW, sc.Energy)
		}
	}
}

// TestLedgerCycleAllocFree pins a ledger-attached job start and finish on
// one node at zero allocations.
func TestLedgerCycleAllocFree(t *testing.T) {
	n, _ := newLedgerNode(t)
	l := n.Spec.Load(n.Spec.DefaultSetting(), cpu.Activity{Core: 0.7, Uncore: 0.6})
	at := t0
	allocs := testing.AllocsPerRun(200, func() {
		at = at.Add(time.Minute)
		n.StartJob(cpu.PerformanceDeterminism, l, at)
		at = at.Add(time.Minute)
		n.StopWork(at)
	})
	if allocs != 0 {
		t.Errorf("StartJob/StopWork cycle allocates %.1f times, want 0", allocs)
	}
}

// TestSnapshotRestoreReconcilesLedger restores a busy, mode-switched node
// into a fresh ledger-attached node: the cached power and load must match
// the original bit for bit, and the ledger's counts exactly and its power
// to a relative 1e-12 (the restore moves it by a difference).
func TestSnapshotRestoreReconcilesLedger(t *testing.T) {
	src, _ := newLedgerNode(t)
	src.SetMode(cpu.PerformanceDeterminism, t0)
	src.StartJob(cpu.PerformanceDeterminism, src.Spec.Load(src.Spec.CappedSetting(), cpu.Activity{Core: 0.9, Uncore: 0.4}), t0.Add(time.Hour))
	dst, c := newLedgerNode(t)
	dst.Restore(src.Snapshot())
	if math.Float64bits(dst.PowerWatts()) != math.Float64bits(src.PowerWatts()) || dst.load != src.load {
		t.Fatalf("restored power %v load %+v, want %v %+v", dst.PowerWatts(), dst.load, src.PowerWatts(), src.load)
	}
	if c.Busy != 1 || !relClose(c.PowerW, src.PowerWatts(), 1e-12) {
		t.Fatalf("ledger after restore %+v, want 1 busy, %v W", *c, src.PowerWatts())
	}
}
