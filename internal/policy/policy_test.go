package policy

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/roofline"
)

var t0 = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

func mkApp(c float64) *apps.App {
	return &apps.App{Name: "x", Kernel: roofline.Kernel{ComputeFraction: c},
		ActCore: 0.5, ActUncore: 0.5}
}

func newProvider(t *testing.T, cfg Config) *Provider {
	t.Helper()
	p, err := NewProvider(cpu.EPYC7742(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProviderDefaults(t *testing.T) {
	p := newProvider(t, DefaultConfig())
	spec := cpu.EPYC7742()
	if p.DefaultSetting() != spec.DefaultSetting() {
		t.Fatalf("default setting = %v", p.DefaultSetting())
	}
	if p.DefaultMode() != cpu.PowerDeterminism {
		t.Fatalf("default mode = %v", p.DefaultMode())
	}
	fs, m, ov := p.JobSettings(mkApp(0.9))
	if fs != spec.DefaultSetting() || m != cpu.PowerDeterminism || ov {
		t.Fatalf("stock settings = %v %v %v", fs, m, ov)
	}
}

func TestValidation(t *testing.T) {
	spec := cpu.EPYC7742()
	if _, err := NewProvider(spec, Config{OverrideThreshold: -0.1}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestOverrideRule(t *testing.T) {
	// Paper: >10% predicted loss resets the stock frequency.
	p := newProvider(t, DefaultConfig())
	spec := cpu.EPYC7742()
	if err := p.SetDefaultSetting(spec.CappedSetting()); err != nil {
		t.Fatal(err)
	}

	// Memory-bound app (c=0.1): loss ~3.9% -> stays capped.
	fs, _, ov := p.JobSettings(mkApp(0.1))
	if ov || fs != spec.CappedSetting() {
		t.Fatalf("memory-bound app overridden: %v %v", fs, ov)
	}
	// Compute-bound app (c=0.9): loss ~26% -> override to stock.
	fs, _, ov = p.JobSettings(mkApp(0.9))
	if !ov || fs != spec.DefaultSetting() {
		t.Fatalf("compute-bound app not overridden: %v %v", fs, ov)
	}
	if p.Overrides() != 1 {
		t.Fatalf("override count = %d", p.Overrides())
	}
}

func TestPredictedLoss(t *testing.T) {
	p := newProvider(t, DefaultConfig())
	spec := cpu.EPYC7742()
	if got := p.PredictedLoss(mkApp(0.9)); got != 0 {
		t.Fatalf("loss at stock default = %v", got)
	}
	if err := p.SetDefaultSetting(spec.CappedSetting()); err != nil {
		t.Fatal(err)
	}
	// LAMMPS-like c=0.878 -> perf ratio ~0.74 -> loss ~26%.
	got := p.PredictedLoss(mkApp(0.878))
	if math.Abs(got-0.26) > 0.01 {
		t.Fatalf("predicted loss = %v, want ~0.26", got)
	}
}

// TestNoRevertsAtStockDefault: while the default is the stock setting,
// no job is moved back to it, however frequency-sensitive.
func TestNoRevertsAtStockDefault(t *testing.T) {
	cfg := Config{OverridesEnabled: true, OverrideThreshold: 0.1}
	p := newProvider(t, cfg)
	for i := 0; i < 100; i++ {
		_, _, ov := p.JobSettings(mkApp(0.9))
		if ov {
			t.Fatal("override at stock default")
		}
	}
}

func TestSetDefaultSettingValidates(t *testing.T) {
	p := newProvider(t, DefaultConfig())
	bad := cpu.FreqSetting{Base: cpu.EPYC7742().PStates[0].Freq, Boost: true}
	if err := p.SetDefaultSetting(bad); err == nil {
		t.Fatal("invalid setting accepted")
	}
}

func TestARCHER2Timeline(t *testing.T) {
	spec := cpu.EPYC7742()
	tl := ARCHER2Timeline(spec)
	if err := tl.Validate(spec); err != nil {
		t.Fatal(err)
	}
	if len(tl.Changes) != 2 {
		t.Fatalf("changes = %d", len(tl.Changes))
	}
	// First change is the May 2022 BIOS switch, second the Nov 2022 cap.
	if tl.Changes[0].Mode == nil || *tl.Changes[0].Mode != cpu.PerformanceDeterminism {
		t.Fatal("first change is not the BIOS switch")
	}
	if tl.Changes[1].Setting == nil || tl.Changes[1].Setting.Boost {
		t.Fatal("second change is not the frequency cap")
	}
	if !tl.Changes[0].At.Before(tl.Changes[1].At) {
		t.Fatal("timeline out of order")
	}
}

func TestTimelineSchedule(t *testing.T) {
	spec := cpu.EPYC7742()
	p := newProvider(t, DefaultConfig())
	eng := des.NewEngine(t0)
	tl := ARCHER2Timeline(spec)
	if err := tl.Schedule(eng, p); err != nil {
		t.Fatal(err)
	}
	// Before the first change.
	eng.RunUntil(time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC))
	if p.DefaultMode() != cpu.PowerDeterminism {
		t.Fatal("mode changed early")
	}
	// After the BIOS change, before the cap.
	eng.RunUntil(time.Date(2022, 8, 1, 0, 0, 0, 0, time.UTC))
	if p.DefaultMode() != cpu.PerformanceDeterminism {
		t.Fatal("BIOS change not applied")
	}
	if p.DefaultSetting() != spec.DefaultSetting() {
		t.Fatal("frequency changed early")
	}
	// After the cap.
	eng.RunUntil(time.Date(2022, 12, 15, 0, 0, 0, 0, time.UTC))
	if p.DefaultSetting() != spec.CappedSetting() {
		t.Fatal("frequency cap not applied")
	}
}

func TestTimelinePastChangesApplyImmediately(t *testing.T) {
	spec := cpu.EPYC7742()
	p := newProvider(t, DefaultConfig())
	// Engine starts after both change dates.
	eng := des.NewEngine(time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC))
	if err := ARCHER2Timeline(spec).Schedule(eng, p); err != nil {
		t.Fatal(err)
	}
	if p.DefaultMode() != cpu.PerformanceDeterminism || p.DefaultSetting() != spec.CappedSetting() {
		t.Fatal("past changes not applied immediately")
	}
}

func TestTimelineValidateErrors(t *testing.T) {
	spec := cpu.EPYC7742()
	m := cpu.PerformanceDeterminism
	outOfOrder := Timeline{Changes: []Change{
		{At: t0.AddDate(1, 0, 0), Mode: &m},
		{At: t0, Mode: &m},
	}}
	if err := outOfOrder.Validate(spec); err == nil {
		t.Error("out-of-order timeline accepted")
	}
	empty := Timeline{Changes: []Change{{At: t0}}}
	if err := empty.Validate(spec); err == nil {
		t.Error("empty change accepted")
	}
	bad := cpu.FreqSetting{Base: spec.PStates[0].Freq, Boost: true}
	invalid := Timeline{Changes: []Change{{At: t0, Setting: &bad}}}
	if err := invalid.Validate(spec); err == nil {
		t.Error("invalid setting accepted")
	}
	eng := des.NewEngine(t0)
	p := newProvider(t, DefaultConfig())
	if err := invalid.Schedule(eng, p); err == nil {
		t.Error("Schedule accepted invalid timeline")
	}
}
