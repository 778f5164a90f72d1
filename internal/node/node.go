// Package node models an ARCHER2 compute node: two EPYC sockets, board
// components (memory DIMMs, Slingshot NICs, baseboard), per-node frequency
// and BIOS-mode state, and the fleet ledger of busy nodes, power and
// energy the nodes keep up to date.
//
// With the default EPYC7742 socket spec, a node idles at 230 W (2x85 W
// sockets + 60 W board) and draws around 510 W under a typical mixed load
// at the stock 2.25 GHz + boost setting, matching the paper's Table 2.
package node

import (
	"fmt"
	"math"
	"time"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/units"
)

// SocketsPerNode is the socket count of an ARCHER2 compute node.
const SocketsPerNode = 2

// BoardPower is the frequency-independent power of node components outside
// the CPU sockets (DIMMs at idle, NICs, baseboard, fans' share).
var BoardPower = units.Watts(60)

// Node is one compute node.
type Node struct {
	Spec *cpu.Spec

	mode cpu.Mode

	// die and perf are the node's silicon-quality factors, indexed by BIOS
	// mode. They are a property of (die, mode), so they are drawn once at
	// construction and a mode change only selects a pair.
	die, perf [2]float64

	// load is the frequency setting and workload activity (zero when
	// idle), with the socket power terms they imply.
	load cpu.Load
	busy bool

	// sockets / boardW are the node's physical layout: socket (or GPU
	// module) count and frequency-independent board power in watts. An
	// int32 count packs beside busy, which keeps a node at 128 bytes.
	sockets int32
	boardW  float64

	// powerW caches Power().Watts(), a pure function of (load, mode) that
	// only the mutators below change, so the telemetry fleet sweep reads a
	// field instead of the voltage/frequency model, with bit-identical
	// sums.
	powerW float64

	// counters, when attached, is the fleet ledger this node keeps.
	counters *FleetCounters
}

// FleetCounters is the fleet ledger, kept up to date by each attached
// node's transitions. Busy is identical to a fresh fleet scan; PowerW
// moves by each node's change in draw, so it matches a fresh sum only to
// rounding.
type FleetCounters struct {
	// Busy counts the busy nodes.
	Busy int
	// PowerW is the summed power draw of the attached nodes, in watts.
	PowerW float64
	// Energy is the compute-node energy integrated up to AtNs.
	Energy units.Energy
	// AtNs is the ledger time in Unix nanoseconds, initially the fleet's
	// construction time.
	AtNs int64
}

// Accrue integrates fleet energy at the current power up to at. Every
// node transition calls it before changing its draw; all but the first
// call at one event time take the unchanged-time fast path.
func (c *FleetCounters) Accrue(at time.Time) {
	t := at.UnixNano()
	if t == c.AtNs {
		return
	}
	if t < c.AtNs {
		panic(fmt.Sprintf("node: accrue time %v before ledger time %v", at, time.Unix(0, c.AtNs).UTC()))
	}
	c.Energy += units.Watts(c.PowerW).EnergyOver(time.Duration(t - c.AtNs))
	c.AtNs = t
}

// NewWithLayout creates a node using spec with a physical layout: sockets
// (or GPU modules) per node and board power (SocketsPerNode and
// BoardPower for an ARCHER2 compute node). The node starts at the spec's
// default frequency setting in Power Determinism mode. Its die and perf
// factors for both modes are drawn from r here, and r is not retained.
func NewWithLayout(spec *cpu.Spec, sockets int, board units.Power, r *rng.Stream) *Node {
	if sockets <= 0 || sockets > math.MaxInt32 {
		panic(fmt.Sprintf("node: socket count %d out of range", sockets))
	}
	n := &Node{
		Spec:    spec,
		load:    cpu.Load{Setting: spec.DefaultSetting()},
		mode:    cpu.PowerDeterminism,
		sockets: int32(sockets),
		boardW:  board.Watts(),
	}
	// The draw order fixes every node's factors for a seed, so the goldens
	// pin it: Power Determinism draws only its perf factor, then
	// Performance Determinism only its die factor.
	for _, m := range [...]cpu.Mode{cpu.PowerDeterminism, cpu.PerformanceDeterminism} {
		n.die[m] = spec.DrawDieFactor(m, r)
		n.perf[m] = spec.DrawPerfFactor(m, r)
	}
	n.refreshPower()
	return n
}

// AttachCounters registers the node on a fleet ledger, contributing its
// current busy state and power. Facility attaches every node to one
// shared ledger.
func (n *Node) AttachCounters(c *FleetCounters) {
	n.counters = c
	c.PowerW += n.powerW
	if n.busy {
		c.Busy++
	}
}

// refreshPower recomputes the cached power draw and moves the ledger's
// fleet power by the change. Call after any mutation of load or mode.
func (n *Node) refreshPower() {
	old := n.powerW
	n.powerW = float64(n.sockets)*n.Spec.SocketWatts(n.load, n.die[n.mode]) + n.boardW
	if c := n.counters; c != nil {
		c.PowerW += n.powerW - old
	}
}

// accrue brings the attached ledger's energy up to at.
func (n *Node) accrue(at time.Time) {
	if c := n.counters; c != nil {
		c.Accrue(at)
	}
}

// updateCounters reconciles the fleet busy count after a busy
// transition, given the prior value.
func (n *Node) updateCounters(wasBusy bool) {
	c := n.counters
	if c == nil || n.busy == wasBusy {
		return
	}
	if n.busy {
		c.Busy++
	} else {
		c.Busy--
	}
}

// Setting returns the node's current frequency setting.
func (n *Node) Setting() cpu.FreqSetting { return n.load.Setting }

// Mode returns the node's current BIOS determinism mode.
func (n *Node) Mode() cpu.Mode { return n.mode }

// Busy reports whether a job is currently running on the node.
func (n *Node) Busy() bool { return n.busy }

// SetFrequency changes the node's frequency setting, accruing energy at the
// old setting first. It returns an error for unsupported settings.
func (n *Node) SetFrequency(fs cpu.FreqSetting, at time.Time) error {
	if err := n.Spec.ValidateSetting(fs); err != nil {
		return err
	}
	n.accrue(at)
	n.load = n.Spec.Load(fs, n.load.Activity)
	n.refreshPower()
	return nil
}

// SetMode changes the BIOS determinism mode, selecting the mode's die and
// perf factors. Energy is accrued at the old mode first.
func (n *Node) SetMode(m cpu.Mode, at time.Time) {
	if m == n.mode {
		return
	}
	n.accrue(at)
	n.mode = m
	n.refreshPower()
}

// StartWork marks the node busy with the given activity (from the
// application model). It accrues idle energy up to `at` first.
func (n *Node) StartWork(a cpu.Activity, at time.Time) {
	n.accrue(at)
	wasBusy := n.busy
	n.load = n.Spec.Load(n.load.Setting, a)
	n.busy = true
	n.refreshPower()
	n.updateCounters(wasBusy)
}

// StartJob puts the node to work at load l, which the caller computed
// once per job with Spec.Load after validating its setting. It is SetMode,
// SetFrequency and StartWork fused into one accrual and one power refresh,
// with node power and state bit-identical to the sequential form. At the
// node's own mode it is a reclock of a busy node.
func (n *Node) StartJob(m cpu.Mode, l cpu.Load, at time.Time) {
	n.accrue(at)
	n.mode = m
	wasBusy := n.busy
	n.load = l
	n.busy = true
	n.refreshPower()
	n.updateCounters(wasBusy)
}

// StopWork marks the node idle, accruing the work period's energy. Both
// power terms drop to zero, so the socket draws exactly its idle power.
func (n *Node) StopWork(at time.Time) {
	n.accrue(at)
	wasBusy := n.busy
	n.load = cpu.Load{Setting: n.load.Setting}
	n.busy = false
	n.refreshPower()
	n.updateCounters(wasBusy)
}

// PerfFactor returns the node's per-die performance factor in its current
// mode.
func (n *Node) PerfFactor() float64 { return n.perf[n.mode] }

// Power returns the node's current power draw: both sockets plus board.
// The value is cached across reads and refreshed on state mutations, so
// fleet-wide power sweeps cost a field load per node.
func (n *Node) Power() units.Power {
	return units.Watts(n.powerW)
}

// PowerWatts is Power().Watts() without the unit round-trip, for the
// facility's per-sample fleet summation.
func (n *Node) PowerWatts() float64 { return n.powerW }

// IdlePower returns the node's idle power draw (mode-independent baseline:
// 2 sockets idle + board).
func IdlePower(spec *cpu.Spec) units.Power { return IdlePowerLayout(spec, SocketsPerNode, BoardPower) }

// ExpectedPower returns the fleet-expectation node power for the given
// application activity, setting and mode, using mean die factors rather
// than sampled ones. Calibration and the analytic tables use this.
func ExpectedPower(spec *cpu.Spec, fs cpu.FreqSetting, a cpu.Activity, m cpu.Mode) units.Power {
	return ExpectedPowerLayout(spec, SocketsPerNode, BoardPower, fs, a, m)
}

// ExpectedPowerLayout is ExpectedPower for an explicit node layout —
// the heterogeneous-partition counterpart, used wherever a partition's
// nodes differ from the default two-socket compute node.
func ExpectedPowerLayout(spec *cpu.Spec, sockets int, board units.Power, fs cpu.FreqSetting, a cpu.Activity, m cpu.Mode) units.Power {
	socket := spec.Power(fs, a, spec.MeanDieFactor(m))
	return units.Watts(float64(sockets)*socket.Watts() + board.Watts())
}

// IdlePowerLayout is IdlePower for an explicit node layout.
func IdlePowerLayout(spec *cpu.Spec, sockets int, board units.Power) units.Power {
	return units.Watts(float64(sockets)*spec.IdlePower.Watts() + board.Watts())
}
