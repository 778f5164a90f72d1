package interconnect

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/greenhpc/archertwin/internal/units"
)

func mustNew(t *testing.T) *Fabric {
	t.Helper()
	f, err := New(ARCHER2Config())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestARCHER2Config(t *testing.T) {
	f := mustNew(t)
	if f.SwitchCount() != 768 {
		t.Fatalf("switches = %d, want 768", f.SwitchCount())
	}
	// Paper Table 2: interconnect loaded fleet power ~200 kW.
	got := f.LoadedTotalPower().Kilowatts()
	if got < 150 || got > 250 {
		t.Fatalf("loaded fleet power = %v kW, want ~200", got)
	}
	// Idle in the paper's 100-200 kW band.
	idle := f.IdleTotalPower().Kilowatts()
	if idle < 100 || idle > 200 {
		t.Fatalf("idle fleet power = %v kW, want 100-200", idle)
	}
}

func TestInvalidConfigs(t *testing.T) {
	bad := []Config{
		{Switches: 0},
		{Switches: -1},
		{Switches: 4,
			SwitchIdlePower: units.Watts(250), SwitchLoadedPower: units.Watts(200)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestPowerLoadInsensitivity(t *testing.T) {
	// Paper §5: switch power steady at 200-250 W irrespective of load.
	f := mustNew(t)
	f.SetLoad(0)
	p0 := f.SwitchPower().Watts()
	f.SetLoad(1)
	p1 := f.SwitchPower().Watts()
	if p0 < 200 || p1 > 260 {
		t.Fatalf("switch power range %v-%v outside 200-260 W", p0, p1)
	}
	// The swing is under 30% of the idle level: near-constant.
	if (p1-p0)/p0 > 0.3 {
		t.Fatalf("switch power too load-sensitive: %v -> %v", p0, p1)
	}
}

func TestSetLoadClamps(t *testing.T) {
	f := mustNew(t)
	f.SetLoad(-1)
	if f.Load() != 0 {
		t.Fatalf("load = %v", f.Load())
	}
	f.SetLoad(2)
	if f.Load() != 1 {
		t.Fatalf("load = %v", f.Load())
	}
	f.SetLoad(0.5)
	mid := f.SwitchPower().Watts()
	want := (200.0 + 260.0) / 2
	if math.Abs(mid-want) > 1e-9 {
		t.Fatalf("mid-load power = %v, want %v", mid, want)
	}
}

func TestTotalPowerScalesWithCount(t *testing.T) {
	f := mustNew(t)
	f.SetLoad(0.3)
	want := f.SwitchPower().Watts() * 768
	if got := f.TotalPower().Watts(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("total = %v, want %v", got, want)
	}
}

// Property: fabric power is monotone in load and bounded by idle/loaded
// totals.
func TestPropertyPowerBounds(t *testing.T) {
	f := mustNew(t)
	prop := func(a, b uint8) bool {
		la, lb := float64(a)/255, float64(b)/255
		if la > lb {
			la, lb = lb, la
		}
		f.SetLoad(la)
		pa := f.TotalPower().Watts()
		f.SetLoad(lb)
		pb := f.TotalPower().Watts()
		return pa <= pb+1e-9 &&
			pa >= f.IdleTotalPower().Watts()-1e-9 &&
			pb <= f.LoadedTotalPower().Watts()+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
