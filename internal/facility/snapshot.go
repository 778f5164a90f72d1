package facility

import (
	"fmt"

	"github.com/greenhpc/archertwin/internal/node"
)

// Snapshot is the facility's full mutable state at a checkpoint: every
// node's state, the fabric's last-set load level and the fleet ledger.
// Restoring the ledger after the nodes makes its power and energy
// bit-identical to the parent's, not just equal to rounding.
type Snapshot struct {
	Nodes      []node.Snapshot
	FabricLoad float64
	Ledger     node.FleetCounters
}

// Snapshot captures the facility state.
func (f *Facility) Snapshot() *Snapshot {
	s := &Snapshot{
		Nodes:      make([]node.Snapshot, len(f.nodes)),
		FabricLoad: f.fabric.Load(),
		Ledger:     f.counters,
	}
	for i, n := range f.nodes {
		s.Nodes[i] = n.Snapshot()
	}
	return s
}

// Restore overwrites this facility's node, fabric and ledger state from
// a snapshot taken on an identically-shaped facility.
func (f *Facility) Restore(s *Snapshot) error {
	if len(s.Nodes) != len(f.nodes) {
		return fmt.Errorf("facility: snapshot has %d nodes, facility has %d", len(s.Nodes), len(f.nodes))
	}
	for i, n := range f.nodes {
		n.Restore(s.Nodes[i])
	}
	f.counters = s.Ledger
	f.fabric.SetLoad(s.FabricLoad)
	return nil
}
