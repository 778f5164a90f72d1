package node

import (
	"github.com/greenhpc/archertwin/internal/cpu"
)

// Snapshot is one node's full mutable state at a checkpoint. The cached
// power draw and socket power terms are deliberately absent: they are
// pure functions of the captured fields and are recomputed bit-identically
// on Restore. Energy lives in the fleet ledger, which the facility
// snapshot captures.
type Snapshot struct {
	Setting    cpu.FreqSetting
	Mode       cpu.Mode
	DieFactor  float64
	PerfFactor float64
	Activity   cpu.Activity
	Busy       bool
	Rng        [4]uint64
}

// Snapshot captures the node's mutable state, including the position of
// its die-variation RNG stream (consumed on mode changes, so a fork must
// resume it exactly).
func (n *Node) Snapshot() Snapshot {
	return Snapshot{
		Setting:    n.load.Setting,
		Mode:       n.mode,
		DieFactor:  n.dieFactor,
		PerfFactor: n.perfFactor,
		Activity:   n.load.Activity,
		Busy:       n.busy,
		Rng:        n.rng.State(),
	}
}

// Restore overwrites the node's mutable state from a snapshot, refreshing
// the power cache and reconciling any attached fleet counters (the
// facility then restores the ledger's power and energy exactly).
func (n *Node) Restore(s Snapshot) {
	wasBusy := n.busy
	n.load = n.Spec.Load(s.Setting, s.Activity)
	n.mode = s.Mode
	n.dieFactor = s.DieFactor
	n.perfFactor = s.PerfFactor
	n.busy = s.Busy
	n.rng.SetState(s.Rng)
	n.refreshPower()
	n.updateCounters(wasBusy)
}
