package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/policy"
	"github.com/greenhpc/archertwin/internal/units"
)

var t0 = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

func TestConfigValidation(t *testing.T) {
	good := ScaledConfig(100, t0, 7)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.End = bad.Start
	if err := bad.Validate(); err == nil {
		t.Error("empty span accepted")
	}
	bad = good
	bad.OverSubscription = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero oversubscription accepted")
	}
	bad = good
	bad.BusyNodeTarget = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero busy target accepted")
	}
	bad = good
	bad.Meter.Interval = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero meter interval accepted")
	}
	bad = good
	bad.Windows = []Window{{Label: "w", From: t0, To: t0}}
	if err := bad.Validate(); err == nil {
		t.Error("empty window accepted")
	}
}

func TestScaledRunSaturates(t *testing.T) {
	cfg := ScaledConfig(200, t0, 14)
	cfg.Windows = []Window{{Label: "steady", From: t0.AddDate(0, 0, 3), To: t0.AddDate(0, 0, 14)}}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	w := res.Windows[0]
	// Paper: utilisation consistently over 90%.
	if w.MeanUtil < 0.90 {
		t.Fatalf("steady utilisation = %v, want > 0.90", w.MeanUtil)
	}
	if w.SampleCount == 0 {
		t.Fatal("no samples in window")
	}
	if res.Sched.Completed == 0 {
		t.Fatal("no jobs completed")
	}
	if res.TotalUsage.NodeHours <= 0 || res.TotalUsage.Energy.Joules() <= 0 {
		t.Fatal("no usage accounted")
	}
	if len(res.Usage) == 0 {
		t.Fatal("no per-class usage")
	}
}

func TestScaledBaselinePowerConsistent(t *testing.T) {
	// At ~92% utilisation the scaled facility's cabinet power per node
	// should match the full system's 3220/5860 ~ 550 W/node (including the
	// per-node switch share).
	cfg := ScaledConfig(200, t0, 14)
	cfg.Windows = []Window{{Label: "steady", From: t0.AddDate(0, 0, 3), To: t0.AddDate(0, 0, 14)}}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	w := res.Windows[0]
	perNode := w.MeanPower.Watts() / 200
	if perNode < 480 || perNode < 0 || perNode > 620 {
		t.Fatalf("per-node cabinet power = %v W, want ~550", perNode)
	}
}

func TestModeChangeReducesPower(t *testing.T) {
	cfg := ScaledConfig(200, t0, 28)
	perfDet := cpu.PerformanceDeterminism
	cfg.Timeline = policy.Timeline{Changes: []policy.Change{
		{At: t0.AddDate(0, 0, 14), Mode: &perfDet}, // the BIOS change
	}}
	cfg.Windows = []Window{
		{Label: "before", From: t0.AddDate(0, 0, 4), To: t0.AddDate(0, 0, 14)},
		{Label: "after", From: t0.AddDate(0, 0, 17), To: t0.AddDate(0, 0, 28)},
	}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := res.WindowByLabel("before")
	after, _ := res.WindowByLabel("after")
	drop := 1 - after.MeanPower.Watts()/before.MeanPower.Watts()
	// Paper Figure 2: ~6.5% cabinet power reduction.
	if drop < 0.03 || drop > 0.10 {
		t.Fatalf("BIOS drop = %.3f (%.0f -> %.0f kW), want ~0.065",
			drop, before.MeanPower.Kilowatts(), after.MeanPower.Kilowatts())
	}
}

func TestFrequencyCapReducesPower(t *testing.T) {
	cfg := ScaledConfig(200, t0, 28)
	perfDet := cpu.PerformanceDeterminism
	capped := cfg.Facility.CPU.CappedSetting()
	cfg.Timeline = policy.Timeline{Changes: []policy.Change{
		{At: t0, Mode: &perfDet},
		{At: t0.AddDate(0, 0, 14), Setting: &capped}, // the frequency cap
	}}
	cfg.Windows = []Window{
		{Label: "before", From: t0.AddDate(0, 0, 4), To: t0.AddDate(0, 0, 14)},
		{Label: "after", From: t0.AddDate(0, 0, 18), To: t0.AddDate(0, 0, 28)},
	}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := res.WindowByLabel("before")
	after, _ := res.WindowByLabel("after")
	drop := 1 - after.MeanPower.Watts()/before.MeanPower.Watts()
	// Paper Figure 3: ~16% cabinet power reduction (3010 -> 2530).
	if drop < 0.10 || drop > 0.24 {
		t.Fatalf("cap drop = %.3f (%.0f -> %.0f kW), want ~0.16",
			drop, before.MeanPower.Kilowatts(), after.MeanPower.Kilowatts())
	}
}

func TestRunOnlyOnce(t *testing.T) {
	sim, err := NewSimulator(ScaledConfig(50, t0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() *Results {
		cfg := ScaledConfig(100, t0, 7)
		cfg.Windows = []Window{{Label: "w", From: t0.AddDate(0, 0, 2), To: t0.AddDate(0, 0, 7)}}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Windows[0].MeanPower != b.Windows[0].MeanPower {
		t.Fatalf("power means differ: %v vs %v", a.Windows[0].MeanPower, b.Windows[0].MeanPower)
	}
	if a.Sched.Completed != b.Sched.Completed || a.Sched.Submitted != b.Sched.Submitted {
		t.Fatalf("sched stats differ: %+v vs %+v", a.Sched, b.Sched)
	}
	if a.TotalUsage.Energy != b.TotalUsage.Energy {
		t.Fatal("energy accounting differs")
	}
}

func TestOverridePolicyTradesPowerForPerf(t *testing.T) {
	// With module overrides enabled, compute-bound classes stay at the
	// stock frequency, so the capped fleet draws more power than without
	// overrides but runs faster.
	runWith := func(overrides bool) units.Power {
		cfg := ScaledConfig(150, t0, 21)
		cfg.Policy = policy.Config{OverrideThreshold: 0.10, OverridesEnabled: overrides}
		perfDet := cpu.PerformanceDeterminism
		capped := cfg.Facility.CPU.CappedSetting()
		cfg.Timeline = policy.Timeline{Changes: []policy.Change{
			{At: t0, Mode: &perfDet},
			{At: t0.AddDate(0, 0, 3), Setting: &capped},
		}}
		cfg.Windows = []Window{{Label: "after", From: t0.AddDate(0, 0, 7), To: t0.AddDate(0, 0, 21)}}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		w, _ := res.WindowByLabel("after")
		if overrides && res.Overrides == 0 {
			t.Fatal("override policy applied to no jobs")
		}
		return w.MeanPower
	}
	with := runWith(true)
	without := runWith(false)
	if with.Watts() <= without.Watts() {
		t.Fatalf("overrides did not raise power: with %v, without %v", with, without)
	}
}

func TestPaperDatesSane(t *testing.T) {
	start, end, windows := PaperDates()
	if !end.After(start) {
		t.Fatal("bad span")
	}
	if len(windows) != 5 {
		t.Fatalf("windows = %d", len(windows))
	}
	for _, w := range windows {
		if !w.To.After(w.From) || w.From.Before(start) || w.To.After(end) {
			t.Fatalf("window %q outside span", w.Label)
		}
	}
	// figure2-before must precede the BIOS change date in the timeline and
	// figure2-after follow it.
	tl := policy.ARCHER2Timeline(cpu.EPYC7742())
	bios := tl.Changes[0].At
	var before, after Window
	for _, w := range windows {
		switch w.Label {
		case "figure2-before":
			before = w
		case "figure2-after":
			after = w
		}
	}
	if !before.To.Before(bios.Add(time.Hour*24)) || after.From.Before(bios) {
		t.Fatal("figure 2 windows do not bracket the BIOS change")
	}
}

func TestMixScaleReported(t *testing.T) {
	sim, err := NewSimulator(ScaledConfig(50, t0, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MixScale-1) > 0.3 {
		t.Fatalf("mix scale = %v, suspiciously far from 1", res.MixScale)
	}
}

func TestRunConfig(t *testing.T) {
	cfg := ScaledConfig(32, t0, 2)
	cfg.Windows = []Window{{Label: "w", From: t0.AddDate(0, 0, 1), To: t0.AddDate(0, 0, 2)}}
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 1 || res.Windows[0].MeanPower.Watts() <= 0 {
		t.Fatalf("degenerate RunConfig results: %+v", res.Windows)
	}
	// Invalid configs surface their error without running.
	bad := cfg
	bad.OverSubscription = -1
	if _, err := RunConfig(bad); err == nil {
		t.Error("invalid config ran")
	}
}

func TestFleetVariantShiftsPower(t *testing.T) {
	run := func(v *apps.Variant) *Results {
		cfg := ScaledConfig(32, t0, 3)
		cfg.FleetVariant = v
		cfg.Windows = []Window{{Label: "w", From: t0.AddDate(0, 0, 1), To: t0.AddDate(0, 0, 3)}}
		res, err := RunConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	// Pick the hottest build (highest core activity) rather than assuming
	// a position in CommonVariants.
	variants := apps.CommonVariants()
	simd := variants[0]
	for _, v := range variants[1:] {
		if v.CoreActivityFactor > simd.CoreActivityFactor {
			simd = v
		}
	}
	hot := run(&simd)
	b := base.Windows[0].MeanPower.Watts()
	h := hot.Windows[0].MeanPower.Watts()
	if h <= b {
		t.Errorf("SIMD fleet variant did not raise power: %v vs %v", h, b)
	}
}

// RunContext must stop a simulation promptly once its context is
// cancelled, and a cancellable context must not perturb results: the
// chunked event loop executes the exact sequence the plain run does.
func TestRunContextCancellation(t *testing.T) {
	cfg := ScaledConfig(32, t0, 2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunConfigContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}

	plain, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2() // never cancelled while running
	viaCtx, err := RunConfigContext(ctx2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest() != viaCtx.Digest() {
		t.Error("cancellable context changed simulation results")
	}
}
