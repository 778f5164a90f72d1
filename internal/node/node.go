// Package node models an ARCHER2 compute node: two EPYC sockets, board
// components (memory DIMMs, Slingshot NICs, baseboard), per-node frequency
// and BIOS-mode state, and the fleet ledger of node counts, power and
// energy the nodes keep up to date.
//
// With the default EPYC7742 socket spec, a node idles at 230 W (2x85 W
// sockets + 60 W board) and draws around 510 W under a typical mixed load
// at the stock 2.25 GHz + boost setting, matching the paper's Table 2.
package node

import (
	"fmt"
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

// State is a node's administrative state.
type State int

const (
	// Up: available for scheduling.
	Up State = iota
	// Draining: running work finishes but no new work starts.
	Draining
	// Down: failed or administratively removed.
	Down
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Draining:
		return "draining"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Node is one compute node.
type Node struct {
	ID   int
	Spec *cpu.Spec

	mode  cpu.Mode
	state State

	// Per-node die silicon-quality factors, re-drawn when the BIOS mode
	// changes (they are a property of (die, mode)).
	dieFactor  float64
	perfFactor float64
	rng        *rng.Stream

	// load is the frequency setting and workload activity (zero when
	// idle), with the socket power terms they imply.
	load cpu.Load
	busy bool

	// powerW caches Power().Watts(), a pure function of (load, mode,
	// dieFactor, state) that only the mutators below change, so the
	// telemetry fleet sweep reads a field instead of the voltage/frequency
	// model, with bit-identical sums.
	powerW float64

	// counters, when attached, is the fleet ledger this node keeps.
	counters *FleetCounters

	// sockets / boardW are the node's physical layout: socket (or GPU
	// module) count and frequency-independent board power in watts.
	// New uses SocketsPerNode and BoardPower.
	sockets int
	boardW  float64
}

// FleetCounters is the fleet ledger, kept up to date by each attached
// node's transitions. The counts are identical to a fresh fleet scan;
// PowerW moves by each node's change in draw, so it matches a fresh sum
// only to rounding.
type FleetCounters struct {
	// Up counts nodes not Down (Up or Draining).
	Up int
	// BusyUp counts nodes that are busy and not Down.
	BusyUp int
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

// New creates a node with the given ID using spec, initialised at the
// spec's default frequency setting in Power Determinism mode. The stream r
// seeds the node's die-variation draws; it is retained.
func New(id int, spec *cpu.Spec, r *rng.Stream) *Node {
	return NewWithLayout(id, spec, SocketsPerNode, BoardPower, r)
}

// NewWithLayout creates a node with an explicit physical layout: sockets
// (or GPU modules) per node and board power. Heterogeneous partitions
// use it for node types that differ from the ARCHER2 CPU compute node;
// New(...) is exactly NewWithLayout(..., SocketsPerNode, BoardPower, ...).
func NewWithLayout(id int, spec *cpu.Spec, sockets int, board units.Power, r *rng.Stream) *Node {
	if sockets <= 0 {
		panic(fmt.Sprintf("node %d: non-positive socket count %d", id, sockets))
	}
	n := &Node{
		ID:      id,
		Spec:    spec,
		load:    cpu.Load{Setting: spec.DefaultSetting()},
		mode:    cpu.PowerDeterminism,
		rng:     r,
		sockets: sockets,
		boardW:  board.Watts(),
	}
	n.redraw()
	n.refreshPower()
	return n
}

func (n *Node) redraw() {
	n.dieFactor = n.Spec.DrawDieFactor(n.mode, n.rng)
	n.perfFactor = n.Spec.DrawPerfFactor(n.mode, n.rng)
}

// AttachCounters registers the node on a fleet ledger, contributing its
// current state and power. Facility attaches every node to one shared
// ledger.
func (n *Node) AttachCounters(c *FleetCounters) {
	n.counters = c
	c.PowerW += n.powerW
	if n.state != Down {
		c.Up++
		if n.busy {
			c.BusyUp++
		}
	}
}

// refreshPower recomputes the cached power draw and moves the ledger's
// fleet power by the change. Call after any mutation of load, mode, die
// factors or state.
func (n *Node) refreshPower() {
	old := n.powerW
	if n.state == Down {
		n.powerW = 0
	} else {
		n.powerW = float64(n.sockets)*n.Spec.SocketWatts(n.load, n.dieFactor) + n.boardW
	}
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

// updateCounters reconciles the fleet counters after a state or busy
// transition, given the prior values.
func (n *Node) updateCounters(wasUp, wasBusy bool) {
	c := n.counters
	if c == nil {
		return
	}
	up := n.state != Down
	if up != wasUp {
		if up {
			c.Up++
		} else {
			c.Up--
		}
	}
	if was, now := wasUp && wasBusy, up && n.busy; now != was {
		if now {
			c.BusyUp++
		} else {
			c.BusyUp--
		}
	}
}

// Setting returns the node's current frequency setting.
func (n *Node) Setting() cpu.FreqSetting { return n.load.Setting }

// Mode returns the node's current BIOS determinism mode.
func (n *Node) Mode() cpu.Mode { return n.mode }

// State returns the node's administrative state.
func (n *Node) State() State { return n.state }

// SetState updates the administrative state (the ledger accrues energy
// first so the transition is accounted at the right power level).
func (n *Node) SetState(s State, at time.Time) {
	n.accrue(at)
	wasUp, wasBusy := n.state != Down, n.busy
	n.state = s
	n.refreshPower()
	n.updateCounters(wasUp, wasBusy)
}

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

// SetMode changes the BIOS determinism mode. The die factors are redrawn
// because they are mode-dependent silicon behaviour. Energy is accrued at
// the old mode first.
func (n *Node) SetMode(m cpu.Mode, at time.Time) {
	if m == n.mode {
		return
	}
	n.accrue(at)
	n.mode = m
	n.redraw()
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
	n.updateCounters(n.state != Down, wasBusy)
}

// StartJob puts the node to work at load l, which the caller computed
// once per job with Spec.Load after validating its setting. It is SetMode,
// SetFrequency and StartWork fused into one accrual and one power refresh
// (die factors redrawn only on a mode change), with node power and state
// bit-identical to the sequential form. At the node's own mode it is a
// reclock of a busy node.
func (n *Node) StartJob(m cpu.Mode, l cpu.Load, at time.Time) {
	n.accrue(at)
	if m != n.mode {
		n.mode = m
		n.redraw()
	}
	wasBusy := n.busy
	n.load = l
	n.busy = true
	n.refreshPower()
	n.updateCounters(n.state != Down, wasBusy)
}

// StopWork marks the node idle, accruing the work period's energy. Both
// power terms drop to zero, so the socket draws exactly its idle power.
func (n *Node) StopWork(at time.Time) {
	n.accrue(at)
	wasBusy := n.busy
	n.load = cpu.Load{Setting: n.load.Setting}
	n.busy = false
	n.refreshPower()
	n.updateCounters(n.state != Down, wasBusy)
}

// PerfFactor returns the node's current per-die performance factor.
func (n *Node) PerfFactor() float64 { return n.perfFactor }

// Power returns the node's current power draw: both sockets plus board.
// A Down node draws no power (powered off); Draining nodes draw normally.
// The value is cached across reads and refreshed on state mutations, so
// fleet-wide power sweeps cost a field load per node.
func (n *Node) Power() units.Power {
	return units.Watts(n.powerW)
}

// PowerWatts is Power().Watts() without the unit round-trip, for the
// facility's per-sample fleet summation.
func (n *Node) PowerWatts() float64 { return n.powerW }

// IdlePower returns the node's idle power draw (state- and mode-independent
// baseline: 2 sockets idle + board).
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
