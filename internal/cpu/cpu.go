// Package cpu models an AMD EPYC-class server socket as deployed in the
// ARCHER2 HPE Cray EX system: discrete P-states (1.5 / 2.0 / 2.25 GHz), a
// turbo-boost region (effective ~2.8 GHz under typical HPC load, per the
// paper's §4.2 observation), a voltage-frequency curve, and the
// Power/Performance Determinism BIOS modes.
//
// # Power model
//
// Socket power is decomposed into three components:
//
//	P = P_idle + a_core * D_core * d(f) * dieFactor + a_uncore * D_uncore
//
// where a_core/a_uncore are workload activity factors (package apps), d(f)
// = f*V(f)^2 normalised to the boost point is the classic dynamic-power
// scaling, and D_core/D_uncore are the socket's dynamic power headroom for
// core logic and for the uncore/memory subsystem respectively. Uncore power
// (memory controllers, DRAM, Infinity-fabric) is deliberately independent
// of the core P-state: capping core frequency does not reduce the DRAM
// power of a bandwidth-bound code. This three-component split is what lets
// the model reproduce both the per-application energy ratios (paper Tables
// 3-4) and the fleet-level power steps (Figures 1-3) simultaneously.
//
// # Determinism modes
//
// Following AMD's description: in Power Determinism every part runs up to
// the socket power limit, so power draw is uniform (dieFactor = 1) and
// per-die performance varies slightly. In Performance Determinism the part
// is locked to reference-die behaviour, so performance is uniform (and
// ~1% lower) while power varies below the cap; the fleet-mean dieFactor is
// calibrated (0.82) so that the BIOS change reproduces the paper's ~6.5%
// fleet power reduction.
package cpu

import (
	"fmt"

	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/units"
)

// Mode is the BIOS determinism mode.
type Mode int

const (
	// PowerDeterminism: uniform (maximal) power draw, per-die performance
	// varies. ARCHER2's setting until May 2022.
	PowerDeterminism Mode = iota
	// PerformanceDeterminism: uniform reference-die performance, power draw
	// varies below the cap. ARCHER2's setting from May 2022.
	PerformanceDeterminism
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case PowerDeterminism:
		return "power-determinism"
	case PerformanceDeterminism:
		return "performance-determinism"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// PState is a frequency/voltage operating point.
type PState struct {
	Freq    units.Frequency
	Voltage float64 // normalised to the 2.25 GHz point
}

// FreqSetting selects an operating point for a socket: a base P-state and
// whether turbo boost above it is permitted. On ARCHER2 boost is only
// available with the 2.25 GHz base setting.
type FreqSetting struct {
	Base  units.Frequency
	Boost bool
}

// String implements fmt.Stringer.
func (s FreqSetting) String() string {
	if s.Boost {
		return fmt.Sprintf("%v+boost", s.Base)
	}
	return s.Base.String()
}

// Spec describes a socket model.
type Spec struct {
	Name  string
	Cores int

	// PStates are the selectable base operating points, ascending by
	// frequency. The highest P-state admits boost.
	PStates []PState
	// BoostFreq is the effective sustained all-core boost frequency under
	// typical HPC load, with BoostVoltage its operating voltage.
	BoostFreq    units.Frequency
	BoostVoltage float64

	// IdlePower is the socket's share of node idle power.
	IdlePower units.Power
	// CoreDynMax is the core-logic dynamic power at the boost point with
	// activity 1.0.
	CoreDynMax units.Power
	// UncoreDynMax is the uncore/memory dynamic power at activity 1.0
	// (frequency-independent).
	UncoreDynMax units.Power

	// PerfDetDieFactorMean/Sigma describe the distribution of per-die power
	// factors in Performance Determinism mode (power varies below cap).
	PerfDetDieFactorMean  float64
	PerfDetDieFactorSigma float64
	// PerfDetPerfFactor is the uniform performance multiplier in
	// Performance Determinism (reference-die lock), ~0.99.
	PerfDetPerfFactor float64
	// PowerDetPerfSigma is the per-die performance spread in Power
	// Determinism mode (mean 1.0).
	PowerDetPerfSigma float64
}

// EPYC7742 returns the socket model for the 64-core 2.25 GHz AMD EPYC
// processors in ARCHER2 compute nodes. (The paper's Table 1 prints the
// model number as "7842"; the deployed part is the EPYC 7742.) Power
// figures are one socket's share of the paper's per-node values: node idle
// 230 W and a loaded envelope consistent with Table 2's 510 W typical
// loaded draw, with headroom above it for power-hungry codes as observed
// in the HPC-JEEP measurements the paper cites.
func EPYC7742() *Spec {
	return &Spec{
		Name:  "AMD EPYC 7742",
		Cores: 64,
		PStates: []PState{
			{Freq: units.Gigahertz(1.5), Voltage: 0.85},
			{Freq: units.Gigahertz(2.0), Voltage: 0.95},
			{Freq: units.Gigahertz(2.25), Voltage: 1.00},
		},
		BoostFreq:    units.Gigahertz(2.8),
		BoostVoltage: 1.18,

		IdlePower:    units.Watts(85),  // 2x85 + 60 W board = 230 W node idle
		CoreDynMax:   units.Watts(150), // 300 W/node core dynamic headroom
		UncoreDynMax: units.Watts(75),  // 150 W/node memory/uncore headroom

		PerfDetDieFactorMean:  0.82,
		PerfDetDieFactorSigma: 0.03,
		PerfDetPerfFactor:     0.99,
		PowerDetPerfSigma:     0.008,
	}
}

// AcceleratorGPU returns the socket model for one GPU module of the
// AI/accelerator partition (an MI250X-class OAM package, following the
// LUMI-G / Frontier sibling deployments of the same HPE Cray EX line).
// The Spec abstraction carries over directly: "cores" are compute units,
// the p-state curve is the GPU clock ladder, and the idle/dynamic power
// decomposition separates compute-die switching power from the
// frequency-independent HBM stack draw — the GPU partition's own power
// decomposition, distinct from the CPU cabinets'. Determinism-mode
// spreads are tighter than the EPYC's (GPU boards bin narrowly).
func AcceleratorGPU() *Spec {
	return &Spec{
		Name:  "AMD MI250X GPU module",
		Cores: 110, // compute units per GCD pair
		PStates: []PState{
			{Freq: units.Gigahertz(0.9), Voltage: 0.80},
			{Freq: units.Gigahertz(1.2), Voltage: 0.90},
			{Freq: units.Gigahertz(1.5), Voltage: 1.00},
		},
		BoostFreq:    units.Gigahertz(1.7),
		BoostVoltage: 1.10,

		IdlePower:    units.Watts(90),  // per-module share of blade idle
		CoreDynMax:   units.Watts(320), // compute-die dynamic headroom
		UncoreDynMax: units.Watts(90),  // HBM + fabric, clock-independent

		PerfDetDieFactorMean:  0.90,
		PerfDetDieFactorSigma: 0.02,
		PerfDetPerfFactor:     0.995,
		PowerDetPerfSigma:     0.005,
	}
}

// DefaultSetting returns the ARCHER2 pre-change default: 2.25 GHz with
// turbo boost enabled.
func (s *Spec) DefaultSetting() FreqSetting {
	return FreqSetting{Base: s.PStates[len(s.PStates)-1].Freq, Boost: true}
}

// CappedSetting returns the post-change default: 2.0 GHz, no boost.
func (s *Spec) CappedSetting() FreqSetting {
	return FreqSetting{Base: units.Gigahertz(2.0), Boost: false}
}

// ValidateSetting reports whether the setting selects a supported P-state
// and, if boost is requested, whether boost is available at that base.
func (s *Spec) ValidateSetting(fs FreqSetting) error {
	top := s.PStates[len(s.PStates)-1].Freq
	found := false
	for _, p := range s.PStates {
		if p.Freq == fs.Base {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("cpu: unsupported base frequency %v", fs.Base)
	}
	if fs.Boost && fs.Base != top {
		return fmt.Errorf("cpu: boost only available at %v base", top)
	}
	return nil
}

// EffectiveFrequency returns the frequency the cores actually sustain under
// load at this setting: the boost frequency when boost is enabled, else the
// base P-state.
func (s *Spec) EffectiveFrequency(fs FreqSetting) units.Frequency {
	if fs.Boost {
		return s.BoostFreq
	}
	return fs.Base
}

// VoltageAt returns the operating voltage at frequency f by piecewise
// linear interpolation over the P-state curve (which must be ascending by
// frequency, as Spec requires) extended to the boost point. Frequencies
// outside the curve are clamped to the endpoints. This is on the node
// power hot path and performs no allocation.
func (s *Spec) VoltageAt(f units.Frequency) float64 {
	pointAt := func(i int) PState {
		if i < len(s.PStates) {
			return s.PStates[i]
		}
		return PState{Freq: s.BoostFreq, Voltage: s.BoostVoltage}
	}
	n := len(s.PStates) + 1
	if f <= pointAt(0).Freq {
		return pointAt(0).Voltage
	}
	if f >= pointAt(n-1).Freq {
		return pointAt(n - 1).Voltage
	}
	for i := 1; i < n; i++ {
		hi := pointAt(i)
		if f <= hi.Freq {
			lo := pointAt(i - 1)
			frac := (f.Hertz() - lo.Freq.Hertz()) / (hi.Freq.Hertz() - lo.Freq.Hertz())
			return lo.Voltage + frac*(hi.Voltage-lo.Voltage)
		}
	}
	return pointAt(n - 1).Voltage
}

// DynFraction returns d(f) = f*V(f)^2 normalised so the boost point is 1.
func (s *Spec) DynFraction(f units.Frequency) float64 {
	v, vb := s.VoltageAt(f), s.BoostVoltage
	return (f.Hertz() * v * v) / (s.BoostFreq.Hertz() * vb * vb)
}

// Activity is a workload's power activity on a socket.
type Activity struct {
	// Core is the core-logic activity factor (0 = idle, 1 = fully exercising
	// the core dynamic power headroom at the current frequency).
	Core float64
	// Uncore is the memory/uncore activity factor.
	Uncore float64
}

// DrawDieFactor samples a per-die power factor for the given mode. In
// Power Determinism all dies draw at the cap (factor 1); in Performance
// Determinism dies draw below the cap with the spec's calibrated mean.
func (s *Spec) DrawDieFactor(m Mode, r *rng.Stream) float64 {
	if m == PowerDeterminism {
		return 1.0
	}
	return r.TruncNormal(
		s.PerfDetDieFactorMean, s.PerfDetDieFactorSigma,
		s.PerfDetDieFactorMean-3*s.PerfDetDieFactorSigma,
		s.PerfDetDieFactorMean+3*s.PerfDetDieFactorSigma)
}

// MeanDieFactor returns the expected die power factor for the mode, used by
// calibration and fleet-expectation calculations.
func (s *Spec) MeanDieFactor(m Mode) float64 {
	if m == PowerDeterminism {
		return 1.0
	}
	return s.PerfDetDieFactorMean
}

// DrawPerfFactor samples a per-die performance factor. Power Determinism
// lets good dies run slightly faster (mean 1.0, small spread); Performance
// Determinism locks all dies to the reference (uniform ~0.99).
func (s *Spec) DrawPerfFactor(m Mode, r *rng.Stream) float64 {
	if m == PowerDeterminism {
		return r.TruncNormal(1.0, s.PowerDetPerfSigma, 1-3*s.PowerDetPerfSigma, 1+3*s.PowerDetPerfSigma)
	}
	return s.PerfDetPerfFactor
}

// MeanPerfFactor returns the expected performance factor for the mode.
func (s *Spec) MeanPerfFactor(m Mode) float64 {
	if m == PowerDeterminism {
		return 1.0
	}
	return s.PerfDetPerfFactor
}

// Load is a socket's workload at one setting with the die-independent
// terms of Power in watts, CoreW = a_core*D_core*d(f) and UncoreW =
// a_uncore*D_uncore, so a job's nodes share one voltage/frequency model
// evaluation.
type Load struct {
	Setting        FreqSetting
	Activity       Activity
	CoreW, UncoreW float64
}

// Load evaluates Power's die-independent terms for activity a at setting
// fs. It does not validate fs (see ValidateSetting).
func (s *Spec) Load(fs FreqSetting, a Activity) Load {
	return Load{
		Setting:  fs,
		Activity: a,
		CoreW:    a.Core * s.CoreDynMax.Watts() * s.DynFraction(s.EffectiveFrequency(fs)),
		UncoreW:  a.Uncore * s.UncoreDynMax.Watts(),
	}
}

// SocketWatts returns the power of a socket carrying load l on a die with
// the given power factor. The sum associates left to right as in the
// package formula, so Power and a per-job Load give identical bits.
func (s *Spec) SocketWatts(l Load, dieFactor float64) float64 {
	return s.IdlePower.Watts() + l.CoreW*dieFactor + l.UncoreW
}

// Power returns the socket power at the given setting, activity, mode and
// die factor (obtain dieFactor from DrawDieFactor or MeanDieFactor).
func (s *Spec) Power(fs FreqSetting, a Activity, dieFactor float64) units.Power {
	return units.Watts(s.SocketWatts(s.Load(fs, a), dieFactor))
}
