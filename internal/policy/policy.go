// Package policy implements the operational levers the paper evaluates:
// the system-wide BIOS determinism mode, the default CPU frequency
// setting, the per-application module overrides (applications expected to
// lose more than 10% performance at the capped frequency are reset to the
// stock setting automatically).
//
// The Provider implements sched.SettingsProvider; a Timeline injects the
// paper's operational history (May 2022: Power -> Performance Determinism;
// Nov/Dec 2022: default frequency 2.25 GHz + boost -> 2.0 GHz) into the
// simulation as dated events.
package policy

import (
	"fmt"
	"sort"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
)

// Config parameterises the provider.
type Config struct {
	// OverrideThreshold is the fractional performance loss above which an
	// application's module setup resets the stock frequency (paper: 10%).
	OverrideThreshold float64
	// OverridesEnabled turns the per-application module overrides on.
	OverridesEnabled bool
}

// DefaultConfig returns the paper's override policy (enabled, 10%).
func DefaultConfig() Config {
	return Config{OverrideThreshold: 0.10, OverridesEnabled: true}
}

// Provider selects per-job operating points from the current system
// defaults plus the override rules.
type Provider struct {
	spec *cpu.Spec
	cfg  Config

	defaultSetting cpu.FreqSetting
	defaultMode    cpu.Mode
	// epoch is the settings epoch (see SettingsEpoch).
	epoch uint64

	overrides int
}

// NewProvider creates a provider at the pre-change defaults (stock
// frequency, Power Determinism).
func NewProvider(spec *cpu.Spec, cfg Config) (*Provider, error) {
	if cfg.OverrideThreshold < 0 || cfg.OverrideThreshold > 1 {
		return nil, fmt.Errorf("policy: override threshold %v outside [0,1]", cfg.OverrideThreshold)
	}
	return &Provider{
		spec:           spec,
		cfg:            cfg,
		defaultSetting: spec.DefaultSetting(),
		defaultMode:    cpu.PowerDeterminism,
		epoch:          1,
	}, nil
}

// DefaultSetting returns the current system default frequency setting.
func (p *Provider) DefaultSetting() cpu.FreqSetting { return p.defaultSetting }

// DefaultMode returns the current system BIOS mode.
func (p *Provider) DefaultMode() cpu.Mode { return p.defaultMode }

// Overrides returns how many jobs received a module override.
func (p *Provider) Overrides() int { return p.overrides }

// SetDefaultSetting changes the system default frequency (new jobs only).
func (p *Provider) SetDefaultSetting(fs cpu.FreqSetting) error {
	if err := p.spec.ValidateSetting(fs); err != nil {
		return err
	}
	p.defaultSetting = fs
	p.epoch++
	return nil
}

// SetDefaultMode changes the system BIOS mode (new jobs only, matching the
// rolling reboots of the real change).
func (p *Provider) SetDefaultMode(m cpu.Mode) {
	p.defaultMode = m
	p.epoch++
}

// SettingsEpoch implements sched.SettingsProvider: 1 at first, then
// bumped by every default change and Restore.
func (p *Provider) SettingsEpoch() uint64 { return p.epoch }

// PredictedLoss returns the fractional performance loss of app at the
// current default setting versus the stock setting (0 when the default is
// the stock setting).
func (p *Provider) PredictedLoss(app *apps.App) float64 {
	stock := p.spec.DefaultSetting()
	if p.defaultSetting == stock {
		return 0
	}
	r := app.PerfRatio(p.spec, stock, p.defaultMode, p.defaultSetting, p.defaultMode)
	return 1 - r
}

// PeekSettings returns the operating point JobSettings would choose for
// app, without counting overrides, for power-cap admission control and
// backfill runtime prediction.
func (p *Provider) PeekSettings(app *apps.App) (cpu.FreqSetting, cpu.Mode) {
	fs := p.defaultSetting
	stock := p.spec.DefaultSetting()
	if fs != stock && p.cfg.OverridesEnabled && p.PredictedLoss(app) > p.cfg.OverrideThreshold {
		fs = stock
	}
	return fs, p.defaultMode
}

// JobSettings implements sched.SettingsProvider: PeekSettings, plus the
// override count.
func (p *Provider) JobSettings(app *apps.App) (cpu.FreqSetting, cpu.Mode, bool) {
	fs, m := p.PeekSettings(app)
	if fs != p.defaultSetting {
		p.overrides++
		return fs, m, true
	}
	return fs, m, false
}

// Change is one dated operational change.
type Change struct {
	At time.Time
	// Mode, if non-nil, switches the BIOS determinism mode.
	Mode *cpu.Mode
	// Setting, if non-nil, changes the default frequency setting.
	Setting *cpu.FreqSetting
}

// Timeline is a dated sequence of operational changes.
type Timeline struct {
	Changes []Change
}

// ARCHER2Timeline returns the paper's operational history. Dates are the
// midpoints of the paper's stated change windows.
func ARCHER2Timeline(spec *cpu.Spec) Timeline {
	perfDet := cpu.PerformanceDeterminism
	capped := spec.CappedSetting()
	return Timeline{Changes: []Change{
		{
			// BIOS: Power Determinism -> Performance Determinism (paper §4.1).
			At:   time.Date(2022, 5, 10, 9, 0, 0, 0, time.UTC),
			Mode: &perfDet,
		},
		{
			// Default CPU frequency 2.25 GHz+boost -> 2.0 GHz (paper §4.2).
			At:      time.Date(2022, 11, 25, 9, 0, 0, 0, time.UTC),
			Setting: &capped,
		},
	}}
}

// Validate checks that the timeline is ordered and the changes are valid
// for spec.
func (tl Timeline) Validate(spec *cpu.Spec) error {
	if !sort.SliceIsSorted(tl.Changes, func(i, j int) bool {
		return tl.Changes[i].At.Before(tl.Changes[j].At)
	}) {
		return fmt.Errorf("policy: timeline not in date order")
	}
	for _, c := range tl.Changes {
		if c.Mode == nil && c.Setting == nil {
			return fmt.Errorf("policy: empty change at %v", c.At)
		}
		if c.Setting != nil {
			if err := spec.ValidateSetting(*c.Setting); err != nil {
				return err
			}
		}
	}
	return nil
}

// Schedule installs the timeline's changes on the engine, applying them to
// the provider at their dates. Changes dated before the engine's current
// time are applied immediately.
func (tl Timeline) Schedule(eng *des.Engine, p *Provider) error {
	if err := tl.Validate(p.spec); err != nil {
		return err
	}
	apply := func(c Change) {
		if c.Mode != nil {
			p.SetDefaultMode(*c.Mode)
		}
		if c.Setting != nil {
			// Validated above.
			_ = p.SetDefaultSetting(*c.Setting)
		}
	}
	for _, c := range tl.Changes {
		c := c
		if !c.At.After(eng.Now()) {
			apply(c)
			continue
		}
		eng.At(c.At, func(time.Time) { apply(c) })
	}
	return nil
}
