package facility

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/rng"
)

var t0 = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

func newFacility(t *testing.T, cfg Config) *Facility {
	t.Helper()
	f, err := New(cfg, rng.New(1), t0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// small returns a scaled-down config for fast tests.
func small() Config {
	cfg := ARCHER2()
	cfg.Nodes = 100
	return cfg
}

func TestTable1Inventory(t *testing.T) {
	f := newFacility(t, ARCHER2())
	if f.NodeCount() != 5860 {
		t.Errorf("nodes = %d, want 5860", f.NodeCount())
	}
	if f.CoreCount() != 750080 {
		t.Errorf("cores = %d, want 750080", f.CoreCount())
	}
	if f.Fabric().SwitchCount() != 768 {
		t.Errorf("switches = %d, want 768", f.Fabric().SwitchCount())
	}
	if f.Storage().Count() != 5 {
		t.Errorf("file systems = %d, want 5", f.Storage().Count())
	}
	if f.Config().Cabinets != 23 {
		t.Errorf("cabinets = %d, want 23", f.Config().Cabinets)
	}
}

func TestTable2Breakdown(t *testing.T) {
	f := newFacility(t, ARCHER2())
	rows := f.Breakdown()
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	byName := map[string]ComponentRow{}
	for _, r := range rows {
		byName[r.Component] = r
	}

	// Paper Table 2 values, with tolerance for the model's rounding.
	nodes := byName["Compute nodes"]
	if got := nodes.Idle.Kilowatts(); math.Abs(got-1350) > 30 {
		t.Errorf("compute idle = %v kW, want ~1350", got)
	}
	if got := nodes.Loaded.Kilowatts(); math.Abs(got-3000) > 60 {
		t.Errorf("compute loaded = %v kW, want ~3000", got)
	}
	if nodes.PercentLoaded < 83 || nodes.PercentLoaded > 88 {
		t.Errorf("compute share = %v%%, want ~86%%", nodes.PercentLoaded)
	}

	sw := byName["Slingshot interconnect"]
	if got := sw.Loaded.Kilowatts(); math.Abs(got-200) > 15 {
		t.Errorf("interconnect loaded = %v kW, want ~200", got)
	}
	if sw.PercentLoaded < 4 || sw.PercentLoaded > 8 {
		t.Errorf("interconnect share = %v%%, want ~6%%", sw.PercentLoaded)
	}

	cdu := byName["Coolant distribution units"]
	if got := cdu.Loaded.Kilowatts(); math.Abs(got-96) > 1e-9 {
		t.Errorf("CDU loaded = %v kW, want 96", got)
	}
	fs := byName["File systems"]
	if got := fs.Loaded.Kilowatts(); math.Abs(got-40) > 1e-9 {
		t.Errorf("FS loaded = %v kW, want 40", got)
	}

	idle, loaded := BreakdownTotals(rows)
	if got := idle.Kilowatts(); math.Abs(got-1800) > 100 {
		t.Errorf("idle total = %v kW, want ~1800", got)
	}
	if got := loaded.Kilowatts(); math.Abs(got-3500) > 100 {
		t.Errorf("loaded total = %v kW, want ~3500", got)
	}
}

func TestInvalidConfig(t *testing.T) {
	cfg := ARCHER2()
	cfg.Nodes = 0
	if _, err := New(cfg, rng.New(1), t0); err == nil {
		t.Fatal("zero-node config accepted")
	}
	cfg = ARCHER2()
	cfg.CPU = nil
	if _, err := New(cfg, rng.New(1), t0); err == nil {
		t.Fatal("nil CPU config accepted")
	}
}

func TestUtilisationAndPower(t *testing.T) {
	f := newFacility(t, small())
	if u := f.Utilisation(); u != 0 {
		t.Fatalf("idle utilisation = %v", u)
	}
	idleCab := f.CabinetPower().Kilowatts()

	// Load half the nodes.
	for i := 0; i < 50; i++ {
		f.Node(i).StartWork(TypicalLoadedActivity, t0)
	}
	if u := f.Utilisation(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilisation = %v, want 0.5", u)
	}
	halfCab := f.CabinetPower().Kilowatts()
	if halfCab <= idleCab {
		t.Fatalf("cabinet power did not rise: %v -> %v", idleCab, halfCab)
	}
}

func TestEnergyAccounting(t *testing.T) {
	f := newFacility(t, small())
	p := f.ComputeNodePower()
	f.AccrueEnergy(t0.Add(time.Hour))
	got := f.ComputeEnergy().KilowattHours()
	want := p.EnergyOver(time.Hour).KilowattHours()
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("energy = %v kWh, want %v", got, want)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := newFacility(t, small())
	b := newFacility(t, small())
	for i := 0; i < a.NodeCount(); i++ {
		a.Node(i).SetMode(cpu.PerformanceDeterminism, t0)
		b.Node(i).SetMode(cpu.PerformanceDeterminism, t0)
	}
	if a.ComputeNodePower() != b.ComputeNodePower() {
		t.Fatal("same-seed facilities differ")
	}
}

// driveNodes applies steps random node transitions drawn from r to f,
// starting at `at`, and returns the last step's time. Every transition
// kind the ledger sees is covered: SetMode, SetFrequency, StartJob and
// StopWork. before, when non-nil,
// runs ahead of each transition with the node index and its time.
func driveNodes(f *Facility, r *rng.Stream, at time.Time, steps int, before func(i int, at time.Time)) time.Time {
	modes := []cpu.Mode{cpu.PowerDeterminism, cpu.PerformanceDeterminism}
	for step := 0; step < steps; step++ {
		if r.Intn(3) > 0 {
			at = at.Add(time.Duration(r.Intn(3600)) * time.Second)
		}
		i := r.Intn(f.NodeCount())
		n := f.Node(i)
		ps := n.Spec.PStates
		fs := cpu.FreqSetting{Base: ps[r.Intn(len(ps))].Freq}
		fs.Boost = fs.Base == ps[len(ps)-1].Freq && r.Intn(2) == 0
		if before != nil {
			before(i, at)
		}
		switch r.Intn(5) {
		case 0:
			n.SetMode(modes[r.Intn(2)], at)
		case 1:
			if err := n.SetFrequency(fs, at); err != nil {
				panic(err)
			}
		case 2, 3:
			a := cpu.Activity{Core: 1.3 * r.Float64(), Uncore: r.Float64()}
			n.StartJob(modes[r.Intn(2)], n.Spec.Load(fs, a), at)
		default:
			n.StopWork(at)
		}
	}
	return at
}

// mixed returns a small two-partition config, so the ledger sums nodes of
// different layouts.
func mixed() Config {
	cfg := ARCHER2()
	cfg.Nodes = 24
	cfg.Partitions = []Partition{AIPartition(8)}
	return cfg
}

// TestLedgerMatchesPerNodeIntegrators checks the fleet ledger against a
// reference of per-node piecewise-constant integrators kept here: after
// every random transition the ledger's power matches a fresh
// ComputeNodePower and its energy matches the per-node sum, each to a
// relative 1e-9 (the ledger moves power by differences, which rounds
// apart from a fresh sum).
func TestLedgerMatchesPerNodeIntegrators(t *testing.T) {
	const rel = 1e-9
	near := func(got, want float64) bool { return math.Abs(got-want) <= rel*math.Max(1, math.Abs(want)) }
	for seed := uint64(1); seed <= 4; seed++ {
		f := newFacility(t, mixed())
		energy := make([]float64, f.NodeCount())
		last := make([]time.Time, f.NodeCount())
		for i := range last {
			last[i] = t0
		}
		integrate := func(i int, at time.Time) {
			energy[i] += f.Node(i).PowerWatts() * at.Sub(last[i]).Seconds()
			last[i] = at
		}
		r := rng.New(seed).Split("ledger")
		at := t0
		for step := 0; step < 2000; step++ {
			at = driveNodes(f, r, at, 1, integrate)
			if got, want := f.counters.PowerW, f.ComputeNodePower().Watts(); !near(got, want) {
				t.Fatalf("seed %d step %d: ledger power %v W, fresh sum %v W", seed, step, got, want)
			}
			f.AccrueEnergy(at)
			var want float64
			for i := range energy {
				want += energy[i] + f.Node(i).PowerWatts()*at.Sub(last[i]).Seconds()
			}
			if got := f.ComputeEnergy().Joules(); !near(got, want) {
				t.Fatalf("seed %d step %d: ledger energy %v J, per-node reference %v J", seed, step, got, want)
			}
		}
	}
}

// TestSnapshotRestoreLedgerBitIdentical checks that the ledger survives a
// checkpoint exactly: a facility restored from a mid-run snapshot and
// driven on through the same transitions keeps ledger power and energy
// bit-identical to the straight run, although the restored facility had
// been driven somewhere else first.
func TestSnapshotRestoreLedgerBitIdentical(t *testing.T) {
	straight := newFacility(t, mixed())
	at := driveNodes(straight, rng.New(5).Split("prefix"), t0, 700, nil)
	snap := straight.Snapshot()

	forked := newFacility(t, mixed())
	driveNodes(forked, rng.New(6).Split("elsewhere"), t0, 300, nil)
	if err := forked.Restore(snap); err != nil {
		t.Fatal(err)
	}
	rs, rf := rng.New(7).Split("suffix"), rng.New(7).Split("suffix")
	for step := 0; step < 1000; step++ {
		as := driveNodes(straight, rs, at, 1, nil)
		driveNodes(forked, rf, at, 1, nil)
		at = as
		straight.AccrueEnergy(at)
		forked.AccrueEnergy(at)
		a, b := straight.counters, forked.counters
		if math.Float64bits(a.PowerW) != math.Float64bits(b.PowerW) ||
			math.Float64bits(a.Energy.Joules()) != math.Float64bits(b.Energy.Joules()) ||
			a.Busy != b.Busy || a.AtNs != b.AtNs {
			t.Fatalf("step %d: ledgers diverge:\n straight %+v\n   forked %+v", step, a, b)
		}
	}
}
