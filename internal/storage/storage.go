// Package storage models the ARCHER2 file-system fleet: the 1 PB NetApp
// home storage, four ClusterStor L300 HDD work file systems (13.6 PB
// total) and the 1 PB ClusterStor E1000 NVMe system. The paper's Table 2
// treats storage as a 40 kW constant (~1% of system power), and the
// model reflects that: file-system power is load-insensitive at the
// facility scale. Each system also carries its capacity, so the fleet
// total can be checked against Table 1.
package storage

import "github.com/greenhpc/archertwin/internal/units"

// FileSystem is one storage system.
type FileSystem struct {
	Name       string
	CapacityPB float64
	Power      units.Power
}

// Fleet is a collection of file systems.
type Fleet struct {
	systems []FileSystem
}

// ARCHER2Fleet returns the paper's five file systems (Table 1) with the
// 40 kW total of Table 2 split 8 kW each.
func ARCHER2Fleet() *Fleet {
	per := units.Kilowatts(8)
	return &Fleet{systems: []FileSystem{
		{Name: "home (NetApp)", CapacityPB: 1.0, Power: per},
		{Name: "work1 (ClusterStor L300)", CapacityPB: 3.4, Power: per},
		{Name: "work2 (ClusterStor L300)", CapacityPB: 3.4, Power: per},
		{Name: "work3 (ClusterStor L300)", CapacityPB: 6.8, Power: per},
		{Name: "scratch (ClusterStor E1000)", CapacityPB: 1.0, Power: per},
	}}
}

// Count returns the number of file systems.
func (f *Fleet) Count() int { return len(f.systems) }

// TotalPower returns the fleet power draw.
func (f *Fleet) TotalPower() units.Power {
	var w float64
	for _, s := range f.systems {
		w += s.Power.Watts()
	}
	return units.Watts(w)
}

// TotalCapacityPB returns the fleet capacity in petabytes.
func (f *Fleet) TotalCapacityPB() float64 {
	var pb float64
	for _, s := range f.systems {
		pb += s.CapacityPB
	}
	return pb
}
