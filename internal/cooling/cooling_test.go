package cooling

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCDUTotal(t *testing.T) {
	p := New(ARCHER2Config())
	// Paper Table 2: 6 CDUs x 16 kW = 96 kW, load-independent.
	if got := p.CDUTotalPower().Kilowatts(); math.Abs(got-96) > 1e-9 {
		t.Fatalf("CDU total = %v kW, want 96", got)
	}
}

func TestCabinetOverheadRange(t *testing.T) {
	p := New(ARCHER2Config())
	idle := p.CabinetOverhead(0).Kilowatts()
	full := p.CabinetOverhead(1).Kilowatts()
	// Paper Table 2: 100-200 kW idle band, 200 kW loaded.
	if idle < 90 || idle > 210 {
		t.Fatalf("idle overhead = %v kW", idle)
	}
	if math.Abs(full-207) > 10 {
		t.Fatalf("loaded overhead = %v kW, want ~207 (23 x 9)", full)
	}
	if full <= idle {
		t.Fatalf("overhead not increasing: %v -> %v", idle, full)
	}
}

func TestCabinetOverheadClamps(t *testing.T) {
	p := New(ARCHER2Config())
	if p.CabinetOverhead(-1) != p.CabinetOverhead(0) {
		t.Fatal("negative load not clamped")
	}
	if p.CabinetOverhead(2) != p.CabinetOverhead(1) {
		t.Fatal("overload not clamped")
	}
}

// Property: cabinet overhead is monotone in load.
func TestPropertyPlantMonotone(t *testing.T) {
	p := New(ARCHER2Config())
	f := func(a, b uint8) bool {
		la, lb := float64(a)/255, float64(b)/255
		if la > lb {
			la, lb = lb, la
		}
		return p.CabinetOverhead(la).Watts() <= p.CabinetOverhead(lb).Watts()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
