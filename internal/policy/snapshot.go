package policy

import (
	"github.com/greenhpc/archertwin/internal/cpu"
)

// Snapshot is a provider's mutable state at a checkpoint: the defaults in
// force (after any applied timeline changes), the override/revert
// counters, and the user-revert RNG stream position.
type Snapshot struct {
	DefaultSetting cpu.FreqSetting
	DefaultMode    cpu.Mode
	Overrides      int
	Reverts        int
	HasRng         bool
	Rng            [4]uint64
}

// Snapshot captures the provider's mutable state.
func (p *Provider) Snapshot() Snapshot {
	s := Snapshot{
		DefaultSetting: p.defaultSetting,
		DefaultMode:    p.defaultMode,
		Overrides:      p.overrides,
		Reverts:        p.reverts,
	}
	if p.r != nil {
		s.HasRng = true
		s.Rng = p.r.State()
	}
	return s
}

// Restore overwrites the provider's mutable state from a snapshot. The
// setting is restored without revalidation: it was validated when the
// parent applied it.
func (p *Provider) Restore(s Snapshot) {
	p.defaultSetting = s.DefaultSetting
	p.defaultMode = s.DefaultMode
	p.overrides = s.Overrides
	p.reverts = s.Reverts
	p.epoch++
	if s.HasRng && p.r != nil {
		p.r.SetState(s.Rng)
	}
}
