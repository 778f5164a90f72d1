// Package facility composes the hardware substrates — compute nodes,
// Slingshot fabric, storage fleet and cooling plant — into the full
// ARCHER2 configuration (5,860 nodes / 750,080 cores / 23 cabinets), and
// produces the per-component power breakdown of the paper's Table 2.
package facility

import (
	"fmt"
	"strings"
	"time"

	"github.com/greenhpc/archertwin/internal/cooling"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/interconnect"
	"github.com/greenhpc/archertwin/internal/node"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/storage"
	"github.com/greenhpc/archertwin/internal/units"
)

// TypicalLoadedActivity is the reference workload activity used for the
// "loaded" column of Table 2: it puts a node at ~510 W under the stock
// frequency setting in Power Determinism mode.
var TypicalLoadedActivity = cpu.Activity{Core: 0.62, Uncore: 0.62}

// Config describes a facility.
type Config struct {
	Nodes    int
	Cabinets int
	CPU      *cpu.Spec

	// Partitions are extra named node partitions appended after the
	// implicit primary CPU partition (Nodes/Cabinets/CPU above). Empty
	// for the homogeneous ARCHER2 configuration — the heterogeneous
	// fleet adds e.g. a GPU/AI partition here.
	Partitions []Partition

	Interconnect interconnect.Config
	Cooling      cooling.Config
}

// Partition describes one extra node partition: its own node type (CPU
// spec, per-node socket/module count, board power) and cabinet block.
// Zero values default to the primary partition's layout: nil CPU means
// the facility CPU spec, zero SocketsPerNode means node.SocketsPerNode,
// zero BoardPower means node.BoardPower.
type Partition struct {
	Name           string
	Nodes          int
	Cabinets       int
	CPU            *cpu.Spec
	SocketsPerNode int
	BoardPower     units.Power
}

// AIPartition returns a GPU/AI partition of the given node count: four
// MI250X-class accelerator modules per node with a 150 W host board
// budget, packed 256 nodes per cabinet.
func AIPartition(nodes int) Partition {
	return Partition{
		Name:           "ai",
		Nodes:          nodes,
		Cabinets:       (nodes + 255) / 256,
		CPU:            cpu.AcceleratorGPU(),
		SocketsPerNode: 4,
		BoardPower:     units.Watts(150),
	}
}

// TotalNodes returns the node count across the primary partition and all
// extra partitions.
func (cfg Config) TotalNodes() int {
	t := cfg.Nodes
	for _, p := range cfg.Partitions {
		t += p.Nodes
	}
	return t
}

// PartitionShape returns a canonical string describing the extra
// partition layout — empty for a homogeneous facility. Fork validation
// uses it to reject partition-shape mismatches between a snapshot and
// the config it is restored into.
func (cfg Config) PartitionShape() string {
	if len(cfg.Partitions) == 0 {
		return ""
	}
	var b strings.Builder
	for _, p := range cfg.Partitions {
		fmt.Fprintf(&b, "%s:%d:%d:%d;", p.Name, p.Nodes, p.SocketsPerNode, p.Cabinets)
	}
	return b.String()
}

// ARCHER2 returns the paper's Table 1 configuration.
func ARCHER2() Config {
	return Config{
		Nodes:        5860,
		Cabinets:     23,
		CPU:          cpu.EPYC7742(),
		Interconnect: interconnect.ARCHER2Config(),
		Cooling:      cooling.ARCHER2Config(),
	}
}

// PartitionInfo is one resolved partition of an instantiated facility:
// the configured partition with defaults applied and its node index range
// fixed. Partition 0 is always the primary CPU partition.
type PartitionInfo struct {
	Name    string
	Start   int // first node ID
	Nodes   int
	CPU     *cpu.Spec
	Sockets int
	Board   units.Power
}

// End returns one past the partition's last node ID.
func (p PartitionInfo) End() int { return p.Start + p.Nodes }

// Facility is an instantiated system.
type Facility struct {
	cfg    Config
	parts  []PartitionInfo
	nodes  []*node.Node
	fabric *interconnect.Fabric
	fs     *storage.Fleet
	plant  *cooling.Plant

	// counters is the fleet ledger the nodes keep up to date: the busy
	// count (so the per-sample Utilisation read is O(1) instead of a
	// fleet scan), compute power and compute energy.
	counters node.FleetCounters
}

// resolvePartitions turns the config into the resolved partition list:
// the implicit primary partition followed by the extras with defaults
// applied and ranges assigned.
func resolvePartitions(cfg Config) ([]PartitionInfo, error) {
	parts := make([]PartitionInfo, 0, 1+len(cfg.Partitions))
	parts = append(parts, PartitionInfo{
		Name:    "compute",
		Nodes:   cfg.Nodes,
		CPU:     cfg.CPU,
		Sockets: node.SocketsPerNode,
		Board:   node.BoardPower,
	})
	seen := map[string]bool{parts[0].Name: true}
	for i, p := range cfg.Partitions {
		if p.Name == "" {
			return nil, fmt.Errorf("facility: partition %d: empty name", i)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("facility: duplicate partition name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Nodes <= 0 {
			return nil, fmt.Errorf("facility: partition %q: non-positive node count %d", p.Name, p.Nodes)
		}
		if p.SocketsPerNode < 0 || p.BoardPower.Watts() < 0 {
			return nil, fmt.Errorf("facility: partition %q: negative layout", p.Name)
		}
		r := PartitionInfo{
			Name:    p.Name,
			Nodes:   p.Nodes,
			CPU:     p.CPU,
			Sockets: p.SocketsPerNode,
			Board:   p.BoardPower,
		}
		if r.CPU == nil {
			r.CPU = cfg.CPU
		}
		if r.Sockets == 0 {
			r.Sockets = node.SocketsPerNode
		}
		if r.Board.Watts() == 0 {
			r.Board = node.BoardPower
		}
		parts = append(parts, r)
	}
	for i := 1; i < len(parts); i++ {
		parts[i].Start = parts[i-1].Start + parts[i-1].Nodes
	}
	return parts, nil
}

// New builds a facility at virtual time `at`, with per-node die variation
// seeded from r.
func New(cfg Config, r *rng.Stream, at time.Time) (*Facility, error) {
	if cfg.Nodes <= 0 || cfg.Cabinets <= 0 || cfg.CPU == nil {
		return nil, fmt.Errorf("facility: invalid config (nodes=%d cabinets=%d)", cfg.Nodes, cfg.Cabinets)
	}
	parts, err := resolvePartitions(cfg)
	if err != nil {
		return nil, err
	}
	fabric, err := interconnect.New(cfg.Interconnect)
	if err != nil {
		return nil, err
	}
	f := &Facility{
		cfg:    cfg,
		parts:  parts,
		nodes:  make([]*node.Node, cfg.TotalNodes()),
		fabric: fabric,
		fs:     storage.ARCHER2Fleet(),
		plant:  cooling.New(cfg.Cooling),

		counters: node.FleetCounters{AtNs: at.UnixNano()},
	}
	// Node IDs run globally across partitions and each node's RNG stream
	// is split by that global ID, so a homogeneous facility (one
	// partition, default layout) constructs exactly the node sequence it
	// always did — bit-identical die draws included.
	nodeStream := r.Split("nodes")
	for pi := range f.parts {
		p := &f.parts[pi]
		for i := p.Start; i < p.End(); i++ {
			f.nodes[i] = node.NewWithLayout(p.CPU, p.Sockets, p.Board, nodeStream.SplitIndexed("node", i))
			f.nodes[i].AttachCounters(&f.counters)
		}
	}
	return f, nil
}

// Config returns the facility configuration.
func (f *Facility) Config() Config { return f.cfg }

// NodeCount returns the number of compute nodes.
func (f *Facility) NodeCount() int { return len(f.nodes) }

// CoreCount returns the total compute core count (Table 1: 750,080 for
// the homogeneous configuration), summed across partitions.
func (f *Facility) CoreCount() int {
	total := 0
	for _, p := range f.parts {
		total += p.Nodes * p.Sockets * p.CPU.Cores
	}
	return total
}

// PartitionCount returns the number of partitions (1 for a homogeneous
// facility).
func (f *Facility) PartitionCount() int { return len(f.parts) }

// Partitions returns the resolved partition list (partition 0 is the
// primary CPU partition). The returned slice is a copy.
func (f *Facility) Partitions() []PartitionInfo {
	out := make([]PartitionInfo, len(f.parts))
	copy(out, f.parts)
	return out
}

// Partition returns resolved partition p.
func (f *Facility) Partition(p int) PartitionInfo { return f.parts[p] }

// PartitionOfNode returns the partition index housing node i.
func (f *Facility) PartitionOfNode(i int) int {
	for pi := len(f.parts) - 1; pi > 0; pi-- {
		if i >= f.parts[pi].Start {
			return pi
		}
	}
	return 0
}

// Node returns node i.
func (f *Facility) Node(i int) *node.Node { return f.nodes[i] }

// Fabric returns the interconnect.
func (f *Facility) Fabric() *interconnect.Fabric { return f.fabric }

// Storage returns the file-system fleet.
func (f *Facility) Storage() *storage.Fleet { return f.fs }

// ComputeNodePower returns the instantaneous power of all compute nodes.
// Each node's draw is cached (see node.Power), so this is a linear sweep
// of plain float loads — in node-index order, keeping the floating-point
// summation bit-identical to the uncached engine.
func (f *Facility) ComputeNodePower() units.Power {
	var w float64
	for _, n := range f.nodes {
		w += n.PowerWatts()
	}
	return units.Watts(w)
}

// Utilisation returns the fraction of nodes that are busy, from the
// incrementally maintained fleet busy count (identical to a fresh scan).
func (f *Facility) Utilisation() float64 {
	return float64(f.counters.Busy) / float64(len(f.nodes))
}

// CabinetPower returns what the paper's Figures 1-3 measure: compute node
// power plus interconnect switch power ("compute cabinets, which includes
// all compute nodes and interconnect switches, approx. 90% of the total").
func (f *Facility) CabinetPower() units.Power {
	f.fabric.SetLoad(f.Utilisation())
	return units.Watts(f.ComputeNodePower().Watts() + f.fabric.TotalPower().Watts())
}

// AccrueEnergy integrates the fleet ledger's compute energy up to `at`
// (used before reading facility-wide energy totals).
func (f *Facility) AccrueEnergy(at time.Time) { f.counters.Accrue(at) }

// ComputeEnergy returns the cumulative compute-node energy up to the
// ledger's last accrual.
func (f *Facility) ComputeEnergy() units.Energy { return f.counters.Energy }

// ComponentRow is one row of the Table 2 breakdown.
type ComponentRow struct {
	Component string
	Count     int
	Idle      units.Power
	Loaded    units.Power
	// PercentLoaded is this component's share of the loaded total.
	PercentLoaded float64
}

// Breakdown reproduces the paper's Table 2: spec-level idle and loaded
// power per component with percentage shares. These are static estimates
// (as in the paper, which combined measurements and vendor estimates),
// independent of the current simulation state.
func (f *Facility) Breakdown() []ComponentRow {
	spec := f.cfg.CPU
	idleNode := node.IdlePower(spec).Watts()
	loadedNode := node.ExpectedPower(spec, spec.DefaultSetting(),
		TypicalLoadedActivity, cpu.PowerDeterminism).Watts()

	primary := f.parts[0].Nodes
	rows := []ComponentRow{
		{
			Component: "Compute nodes",
			Count:     primary,
			Idle:      units.Watts(idleNode * float64(primary)),
			Loaded:    units.Watts(loadedNode * float64(primary)),
		},
	}
	for _, p := range f.parts[1:] {
		pIdle := node.IdlePowerLayout(p.CPU, p.Sockets, p.Board).Watts()
		pLoaded := node.ExpectedPowerLayout(p.CPU, p.Sockets, p.Board,
			p.CPU.DefaultSetting(), TypicalLoadedActivity, cpu.PowerDeterminism).Watts()
		rows = append(rows, ComponentRow{
			Component: fmt.Sprintf("%s partition nodes", p.Name),
			Count:     p.Nodes,
			Idle:      units.Watts(pIdle * float64(p.Nodes)),
			Loaded:    units.Watts(pLoaded * float64(p.Nodes)),
		})
	}
	rows = append(rows, []ComponentRow{
		{
			Component: "Slingshot interconnect",
			Count:     f.fabric.SwitchCount(),
			Idle:      f.fabric.IdleTotalPower(),
			Loaded:    f.fabric.LoadedTotalPower(),
		},
		{
			Component: "Other cabinet overheads",
			Count:     f.cfg.Cabinets,
			Idle:      f.plant.CabinetOverhead(0),
			Loaded:    f.plant.CabinetOverhead(1),
		},
		{
			Component: "Coolant distribution units",
			Count:     f.plant.Config().CDUs,
			Idle:      f.plant.CDUTotalPower(),
			Loaded:    f.plant.CDUTotalPower(),
		},
		{
			Component: "File systems",
			Count:     f.fs.Count(),
			Idle:      f.fs.TotalPower(),
			Loaded:    f.fs.TotalPower(),
		},
	}...)
	var total float64
	for _, r := range rows {
		total += r.Loaded.Watts()
	}
	for i := range rows {
		rows[i].PercentLoaded = rows[i].Loaded.Watts() / total * 100
	}
	return rows
}

// BreakdownTotals returns the idle and loaded totals of the Table 2 rows.
func BreakdownTotals(rows []ComponentRow) (idle, loaded units.Power) {
	var iw, lw float64
	for _, r := range rows {
		iw += r.Idle.Watts()
		lw += r.Loaded.Watts()
	}
	return units.Watts(iw), units.Watts(lw)
}
