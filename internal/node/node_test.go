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
	return New(1, cpu.EPYC7742(), rng.New(42).Split("node"), t0)
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
	n := newNode(t)
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
	// Energy for the hour must equal busy power * 1h.
	wantE := busy.EnergyOver(time.Hour)
	if math.Abs(n.Energy().Joules()-wantE.Joules()) > 1 {
		t.Fatalf("energy = %v, want %v", n.Energy(), wantE)
	}
}

func TestEnergyAccrualAcrossTransitions(t *testing.T) {
	n := newNode(t)
	a := cpu.Activity{Core: 1, Uncore: 0}
	n.StartWork(a, t0) // idle 0..0
	p1 := n.Power()
	n.StopWork(t0.Add(2 * time.Hour)) // busy 0..2h
	n.Accrue(t0.Add(3 * time.Hour))   // idle 2..3h
	want := p1.EnergyOver(2*time.Hour).Joules() + 230*3600
	if math.Abs(n.Energy().Joules()-want) > 1 {
		t.Fatalf("energy = %v J, want %v J", n.Energy().Joules(), want)
	}
}

func TestAccruePastPanics(t *testing.T) {
	n := newNode(t)
	n.Accrue(t0.Add(time.Hour))
	defer func() {
		if recover() == nil {
			t.Fatal("backwards accrual did not panic")
		}
	}()
	n.Accrue(t0)
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

func TestDownNodeDrawsNothing(t *testing.T) {
	n := newNode(t)
	n.SetState(Down, t0)
	if n.State() != Down {
		t.Fatalf("state = %v", n.State())
	}
	if n.Power() != 0 {
		t.Fatalf("down node power = %v", n.Power())
	}
	n.Accrue(t0.Add(time.Hour))
	if n.Energy() != 0 {
		t.Fatalf("down node accrued energy %v", n.Energy())
	}
}

func TestDrainingNodeDrawsNormally(t *testing.T) {
	n := newNode(t)
	n.SetState(Draining, t0)
	if got := n.Power(); math.Abs(got.Watts()-230) > 1e-9 {
		t.Fatalf("draining node power = %v", got)
	}
}

func TestStateString(t *testing.T) {
	for _, s := range []State{Up, Draining, Down, State(9)} {
		if s.String() == "" {
			t.Fatalf("empty string for state %d", int(s))
		}
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
		return New(7, cpu.EPYC7742(), rng.New(99).Split("node"), t0)
	}
	a, b := mk(), mk()
	a.SetMode(cpu.PerformanceDeterminism, t0)
	b.SetMode(cpu.PerformanceDeterminism, t0)
	if a.Power() != b.Power() || a.PerfFactor() != b.PerfFactor() {
		t.Fatal("same-seed nodes diverge")
	}
}

// TestStartJobMatchesSequentialCalls drives two same-seed nodes through a
// random sequence of job starts, stops and state changes. One starts jobs
// with StartJob, the other with SetMode, SetFrequency and StartWork; after
// every step their full state (RNG position included), cached power,
// energy and fleet counters must agree bit for bit. Mode flips exercise
// the die-factor redraw, and zero-length intervals the second accrual the
// fused form drops.
func TestStartJobMatchesSequentialCalls(t *testing.T) {
	spec := cpu.EPYC7742()
	mk := func() (*Node, *FleetCounters) {
		n := New(3, spec, rng.New(7).Split("node"), t0)
		c := &FleetCounters{}
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
	invalid := []cpu.FreqSetting{
		{Base: units.Gigahertz(1.7)},
		{Base: units.Gigahertz(2.0), Boost: true},
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
			if err := fused.StartJob(m, fs, a, at); err != nil {
				t.Fatalf("step %d: StartJob(%v): %v", step, fs, err)
			}
			seq.SetMode(m, at)
			if err := seq.SetFrequency(fs, at); err != nil {
				t.Fatalf("step %d: SetFrequency(%v): %v", step, fs, err)
			}
			seq.StartWork(a, at)
		case op < 7:
			before := fused.Snapshot()
			fs := invalid[r.Intn(len(invalid))]
			if err := fused.StartJob(modes[r.Intn(len(modes))], fs, cpu.Activity{Core: 1}, at); err == nil {
				t.Fatalf("step %d: StartJob accepted invalid setting %v", step, fs)
			}
			if fused.Snapshot() != before {
				t.Fatalf("step %d: rejected StartJob mutated the node", step)
			}
		case op < 9:
			fused.StopWork(at)
			seq.StopWork(at)
		default:
			s := State(r.Intn(3))
			fused.SetState(s, at)
			seq.SetState(s, at)
		}
		if fused.Snapshot() != seq.Snapshot() {
			t.Fatalf("step %d: snapshots diverge:\n fused %+v\n   seq %+v", step, fused.Snapshot(), seq.Snapshot())
		}
		if math.Float64bits(fused.PowerWatts()) != math.Float64bits(seq.PowerWatts()) {
			t.Fatalf("step %d: power %v != %v", step, fused.PowerWatts(), seq.PowerWatts())
		}
		if math.Float64bits(fused.Energy().Joules()) != math.Float64bits(seq.Energy().Joules()) {
			t.Fatalf("step %d: energy %v != %v", step, fused.Energy(), seq.Energy())
		}
		if *fc != *sc {
			t.Fatalf("step %d: fleet counters %+v != %+v", step, *fc, *sc)
		}
	}
}
