package policy

import (
	"github.com/greenhpc/archertwin/internal/cpu"
)

// Snapshot is a provider's mutable state at a checkpoint: the defaults in
// force (after any applied timeline changes) and the override counter.
type Snapshot struct {
	DefaultSetting cpu.FreqSetting
	DefaultMode    cpu.Mode
	Overrides      int
}

// Snapshot captures the provider's mutable state.
func (p *Provider) Snapshot() Snapshot {
	return Snapshot{
		DefaultSetting: p.defaultSetting,
		DefaultMode:    p.defaultMode,
		Overrides:      p.overrides,
	}
}

// Restore overwrites the provider's mutable state from a snapshot. The
// setting is restored without revalidation: it was validated when the
// parent applied it.
func (p *Provider) Restore(s Snapshot) {
	p.defaultSetting = s.DefaultSetting
	p.defaultMode = s.DefaultMode
	p.overrides = s.Overrides
	p.epoch++
}
