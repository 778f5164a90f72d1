package node

import (
	"github.com/greenhpc/archertwin/internal/cpu"
)

// Snapshot is one node's full mutable state at a checkpoint. The cached
// power draw and socket power terms are deliberately absent: they are
// pure functions of the captured fields and are recomputed bit-identically
// on Restore. So are the die and perf factors, which a node draws once at
// construction. Energy lives in the fleet ledger, which the facility
// snapshot captures.
type Snapshot struct {
	Setting  cpu.FreqSetting
	Mode     cpu.Mode
	Activity cpu.Activity
	Busy     bool
}

// Snapshot captures the node's mutable state.
func (n *Node) Snapshot() Snapshot {
	return Snapshot{
		Setting:  n.load.Setting,
		Mode:     n.mode,
		Activity: n.load.Activity,
		Busy:     n.busy,
	}
}

// Restore overwrites the node's mutable state from a snapshot, selecting
// the factors of the restored mode, refreshing the power cache and
// reconciling any attached fleet counters (the facility then restores the
// ledger's power and energy exactly).
func (n *Node) Restore(s Snapshot) {
	wasBusy := n.busy
	n.load = n.Spec.Load(s.Setting, s.Activity)
	n.mode = s.Mode
	n.busy = s.Busy
	n.refreshPower()
	n.updateCounters(wasBusy)
}
