// Package node models an ARCHER2 compute node: two EPYC sockets, board
// components (memory DIMMs, Slingshot NICs, baseboard), per-node frequency
// and BIOS-mode state, and cumulative energy accounting.
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

	setting cpu.FreqSetting
	mode    cpu.Mode
	state   State

	// Per-node die silicon-quality factors, re-drawn when the BIOS mode
	// changes (they are a property of (die, mode)).
	dieFactor  float64
	perfFactor float64
	rng        *rng.Stream

	// Current workload activity (zero when idle).
	activity cpu.Activity
	busy     bool

	energy     units.Energy
	lastUpdate time.Time

	// powerW caches Power().Watts(): the socket power model is a pure
	// function of (setting, mode, activity, dieFactor, state), all of
	// which change only through the mutator methods below, so the cache
	// is refreshed there and every read — telemetry sweeps the whole
	// fleet per sample — is a field load instead of the full voltage/
	// frequency model. The cached value is the same computation, so sums
	// over nodes are bit-identical to the uncached engine.
	powerW float64

	// counters, when attached, aggregates fleet-wide up/busy node counts
	// incrementally so Facility.Utilisation is O(1) instead of a fleet
	// scan per telemetry sample.
	counters *FleetCounters

	// sockets / boardW are the node's physical layout: socket (or GPU
	// module) count and frequency-independent board power in watts.
	// New initialises them to the package defaults (SocketsPerNode,
	// BoardPower); NewWithLayout lets a heterogeneous partition override
	// them per node type.
	sockets int
	boardW  float64
}

// FleetCounters aggregates schedulable and busy node counts across a
// fleet, maintained incrementally by each node's state transitions. The
// ratios it yields are integer-derived and therefore identical to a
// fresh scan of the fleet.
type FleetCounters struct {
	// Up counts nodes not Down (Up or Draining).
	Up int
	// BusyUp counts nodes that are busy and not Down.
	BusyUp int
}

// New creates a node with the given ID using spec, initialised at the
// spec's default frequency setting in Power Determinism mode. The stream r
// seeds the node's die-variation draws; it is retained.
func New(id int, spec *cpu.Spec, r *rng.Stream, at time.Time) *Node {
	return NewWithLayout(id, spec, SocketsPerNode, BoardPower, r, at)
}

// NewWithLayout creates a node with an explicit physical layout: sockets
// (or GPU modules) per node and board power. Heterogeneous partitions
// use it for node types that differ from the ARCHER2 CPU compute node;
// New(...) is exactly NewWithLayout(..., SocketsPerNode, BoardPower, ...).
func NewWithLayout(id int, spec *cpu.Spec, sockets int, board units.Power, r *rng.Stream, at time.Time) *Node {
	if sockets <= 0 {
		panic(fmt.Sprintf("node %d: non-positive socket count %d", id, sockets))
	}
	n := &Node{
		ID:         id,
		Spec:       spec,
		setting:    spec.DefaultSetting(),
		mode:       cpu.PowerDeterminism,
		rng:        r,
		lastUpdate: at,
		sockets:    sockets,
		boardW:     board.Watts(),
	}
	n.redraw()
	n.refreshPower()
	return n
}

func (n *Node) redraw() {
	n.dieFactor = n.Spec.DrawDieFactor(n.mode, n.rng)
	n.perfFactor = n.Spec.DrawPerfFactor(n.mode, n.rng)
}

// AttachCounters registers the node on a fleet counter set, contributing
// its current state. Facility attaches every node to one shared set.
func (n *Node) AttachCounters(c *FleetCounters) {
	n.counters = c
	if n.state != Down {
		c.Up++
		if n.busy {
			c.BusyUp++
		}
	}
}

// refreshPower recomputes the cached power draw. Call after any mutation
// of setting, mode, activity, die factors or state.
func (n *Node) refreshPower() {
	if n.state == Down {
		n.powerW = 0
		return
	}
	socket := n.Spec.Power(n.setting, n.activity, n.dieFactor)
	n.powerW = float64(n.sockets)*socket.Watts() + n.boardW
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
func (n *Node) Setting() cpu.FreqSetting { return n.setting }

// Mode returns the node's current BIOS determinism mode.
func (n *Node) Mode() cpu.Mode { return n.mode }

// State returns the node's administrative state.
func (n *Node) State() State { return n.state }

// SetState updates the administrative state (accrues energy first so the
// transition is accounted at the right power level).
func (n *Node) SetState(s State, at time.Time) {
	n.Accrue(at)
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
	n.Accrue(at)
	n.setting = fs
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
	n.Accrue(at)
	n.mode = m
	n.redraw()
	n.refreshPower()
}

// StartWork marks the node busy with the given activity (from the
// application model). It accrues idle energy up to `at` first.
func (n *Node) StartWork(a cpu.Activity, at time.Time) {
	n.Accrue(at)
	wasBusy := n.busy
	n.activity = a
	n.busy = true
	n.refreshPower()
	n.updateCounters(n.state != Down, wasBusy)
}

// StartJob puts the node to work for a job: it is SetMode, SetFrequency
// and StartWork in that order, fused into one validation, one accrual and
// one power refresh. The die factors are redrawn only when the mode
// changes. The sequential form accrues once at the pre-job power and then
// again over a zero-length interval, so the fused form is bit-identical.
// An unsupported setting returns an error and leaves the node unchanged.
func (n *Node) StartJob(m cpu.Mode, fs cpu.FreqSetting, a cpu.Activity, at time.Time) error {
	if err := n.Spec.ValidateSetting(fs); err != nil {
		return err
	}
	n.Accrue(at)
	if m != n.mode {
		n.mode = m
		n.redraw()
	}
	wasBusy := n.busy
	n.setting = fs
	n.activity = a
	n.busy = true
	n.refreshPower()
	n.updateCounters(n.state != Down, wasBusy)
	return nil
}

// StopWork marks the node idle, accruing the work period's energy.
func (n *Node) StopWork(at time.Time) {
	n.Accrue(at)
	wasBusy := n.busy
	n.activity = cpu.Activity{}
	n.busy = false
	n.refreshPower()
	n.updateCounters(n.state != Down, wasBusy)
}

// PerfFactor returns the node's current per-die performance factor.
func (n *Node) PerfFactor() float64 { return n.perfFactor }

// Sockets returns the node's socket (or GPU module) count.
func (n *Node) Sockets() int { return n.sockets }

// Board returns the node's frequency-independent board power.
func (n *Node) Board() units.Power { return units.Watts(n.boardW) }

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

// Accrue integrates energy at the current power level from the last update
// to `at`. Callers mutating power-relevant state must Accrue first; the
// state-changing methods on Node do this automatically.
func (n *Node) Accrue(at time.Time) {
	if at.Before(n.lastUpdate) {
		panic(fmt.Sprintf("node %d: accrue time %v before last update %v", n.ID, at, n.lastUpdate))
	}
	d := at.Sub(n.lastUpdate)
	if d > 0 {
		n.energy += n.Power().EnergyOver(d)
	}
	n.lastUpdate = at
}

// Energy returns cumulative node energy up to the last accrual.
func (n *Node) Energy() units.Energy { return n.energy }

// IdlePower returns the node's idle power draw (state- and mode-independent
// baseline: 2 sockets idle + board).
func IdlePower(spec *cpu.Spec) units.Power {
	return units.Watts(SocketsPerNode*spec.IdlePower.Watts() + BoardPower.Watts())
}

// ExpectedPower returns the fleet-expectation node power for the given
// application activity, setting and mode, using mean die factors rather
// than sampled ones. Calibration and the analytic tables use this.
func ExpectedPower(spec *cpu.Spec, fs cpu.FreqSetting, a cpu.Activity, m cpu.Mode) units.Power {
	socket := spec.Power(fs, a, spec.MeanDieFactor(m))
	return units.Watts(SocketsPerNode*socket.Watts() + BoardPower.Watts())
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
