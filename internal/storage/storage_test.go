package storage

import (
	"math"
	"testing"
)

func TestARCHER2FleetInventory(t *testing.T) {
	f := ARCHER2Fleet()
	// Paper Table 1: five file systems.
	if f.Count() != 5 {
		t.Fatalf("count = %d, want 5", f.Count())
	}
	// Paper Table 2: 40 kW total.
	if got := f.TotalPower().Kilowatts(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("total power = %v kW, want 40", got)
	}
	// Paper Table 1 capacities: 1 PB NetApp + 13.6 PB L300 + 1 PB E1000.
	if got := f.TotalCapacityPB(); math.Abs(got-15.6) > 1e-9 {
		t.Fatalf("total capacity = %v PB, want 15.6", got)
	}
}

func TestSystemsPositive(t *testing.T) {
	for i, s := range ARCHER2Fleet().systems {
		if s.Power.Watts() <= 0 {
			t.Errorf("system %d: non-positive power", i)
		}
		if s.CapacityPB <= 0 {
			t.Errorf("system %d: non-positive capacity", i)
		}
	}
}
