package telemetry

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/sched"
	"github.com/greenhpc/archertwin/internal/workload"
)

var t0 = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

type stockProvider struct{ spec *cpu.Spec }

func (p stockProvider) JobSettings(*apps.App) (cpu.FreqSetting, cpu.Mode, bool) {
	return p.spec.DefaultSetting(), cpu.PowerDeterminism, false
}

func (p stockProvider) PeekSettings(*apps.App) (cpu.FreqSetting, cpu.Mode) {
	return p.spec.DefaultSetting(), cpu.PowerDeterminism
}

func (p stockProvider) SettingsEpoch() uint64 { return 1 }

func smallFacility(t *testing.T) *facility.Facility {
	t.Helper()
	cfg := facility.ARCHER2()
	cfg.Nodes = 50
	f, err := facility.New(cfg, rng.New(3), t0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMeterSampling(t *testing.T) {
	fac := smallFacility(t)
	eng := des.NewEngine(t0)
	m := NewMeter(eng, fac, MeterConfig{Interval: 15 * time.Minute}, t0.Add(6*time.Hour), nil)
	eng.Run()
	// Samples at 0:15 .. 5:45 (ticker excludes the end bound).
	if got := m.Power().Len(); got != 23 {
		t.Fatalf("samples = %d, want 23", got)
	}
	if m.Utilisation().Len() != m.Power().Len() {
		t.Fatal("power and utilisation series lengths differ")
	}
	// Idle facility: cabinet power = 50 idle nodes + switch fleet.
	want := (50*230 + 768*200) / 1000.0
	if got := m.Power().Mean(); math.Abs(got-want) > 1 {
		t.Fatalf("mean power = %v kW, want ~%v", got, want)
	}
	if got := m.Utilisation().Mean(); got != 0 {
		t.Fatalf("idle utilisation = %v", got)
	}
	if from := m.Power().At(0).T; !from.Equal(t0.Add(15*time.Minute)) || m.Power().Step() != 15*time.Minute {
		t.Fatalf("series starts %v every %v, want %v every 15m", from, m.Power().Step(), t0.Add(15*time.Minute))
	}
}

func TestMeterNoise(t *testing.T) {
	fac := smallFacility(t)
	eng := des.NewEngine(t0)
	m := NewMeter(eng, fac, MeterConfig{Interval: 5 * time.Minute, NoiseSigma: 0.01},
		t0.Add(48*time.Hour), rng.New(9).Split("meter"))
	eng.Run()
	p := m.Power()
	mean, sq := p.Mean(), 0.0
	for i := 0; i < p.Len(); i++ {
		d := p.At(i).V - mean
		sq += d * d
	}
	sd := math.Sqrt(sq / float64(p.Len()))
	if sd == 0 {
		t.Fatal("noise produced constant series")
	}
	// Relative noise ~1%.
	if rel := sd / mean; rel > 0.03 {
		t.Fatalf("noise too large: %v", rel)
	}
}

func TestAccountant(t *testing.T) {
	fac := smallFacility(t)
	eng := des.NewEngine(t0)
	s := sched.New(eng, fac, stockProvider{fac.Config().CPU}, sched.DefaultConfig())
	a := NewAccountant(s)

	app1 := &apps.App{Name: "a1", Kernel: roofline.Kernel{ComputeFraction: 0.3}, ActCore: 0.5, ActUncore: 0.5}
	app2 := &apps.App{Name: "a2", Kernel: roofline.Kernel{ComputeFraction: 0.7}, ActCore: 1.0, ActUncore: 0.3}
	s.Submit(workload.JobSpec{ID: 1, Class: "alpha", App: app1, Nodes: 4, RefRuntime: 2 * time.Hour})
	s.Submit(workload.JobSpec{ID: 2, Class: "alpha", App: app1, Nodes: 2, RefRuntime: time.Hour})
	s.Submit(workload.JobSpec{ID: 3, Class: "beta", App: app2, Nodes: 8, RefRuntime: 3 * time.Hour})
	eng.Run()

	alpha, beta := a.Class("alpha"), a.Class("beta")
	if alpha.Jobs != 2 || beta.Jobs != 1 {
		t.Fatalf("jobs: alpha %d beta %d", alpha.Jobs, beta.Jobs)
	}
	if alpha.NodeHours < 9 || alpha.NodeHours > 11 {
		t.Fatalf("alpha node hours = %v, want ~10", alpha.NodeHours)
	}
	if beta.NodeHours < 22 || beta.NodeHours > 26 {
		t.Fatalf("beta node hours = %v, want ~24", beta.NodeHours)
	}
	tot := a.Total()
	if tot.Jobs != 3 {
		t.Fatalf("total jobs = %d", tot.Jobs)
	}
	if got := alpha.Energy.Joules() + beta.Energy.Joules(); math.Abs(got-tot.Energy.Joules()) > 1 {
		t.Fatal("class energies do not sum to total")
	}
	// Energy per node-hour: a busy node draws 300-700 W -> 0.3-0.7 kWh/nodeh.
	e := tot.Energy.KilowattHours() / tot.NodeHours
	if e < 0.25 || e > 0.8 {
		t.Fatalf("energy per node-hour = %v kWh", e)
	}
	if len(a.Classes()) != 2 {
		t.Fatalf("classes = %v", a.Classes())
	}
	if a.Class("missing").Jobs != 0 {
		t.Fatal("missing class not zero")
	}
}

func TestAccountantEmpty(t *testing.T) {
	fac := smallFacility(t)
	eng := des.NewEngine(t0)
	s := sched.New(eng, fac, stockProvider{fac.Config().CPU}, sched.DefaultConfig())
	a := NewAccountant(s)
	if tot := a.Total(); tot.Jobs != 0 || tot.NodeHours != 0 || tot.Energy != 0 {
		t.Fatalf("empty accountant nonzero usage: %+v", tot)
	}
}

func TestMeterSeesLoadChange(t *testing.T) {
	fac := smallFacility(t)
	eng := des.NewEngine(t0)
	s := sched.New(eng, fac, stockProvider{fac.Config().CPU}, sched.DefaultConfig())
	m := NewMeter(eng, fac, MeterConfig{Interval: 10 * time.Minute}, t0.Add(8*time.Hour), nil)
	app := &apps.App{Name: "x", Kernel: roofline.Kernel{ComputeFraction: 0.5}, ActCore: 0.8, ActUncore: 0.8}
	// Load the whole machine for the middle 4 hours.
	eng.At(t0.Add(2*time.Hour), func(time.Time) {
		s.Submit(workload.JobSpec{ID: 1, App: app, Class: "x", Nodes: 50, RefRuntime: 4 * time.Hour})
	})
	eng.Run()
	early := m.Power().MeanBetween(t0, t0.Add(2*time.Hour))
	mid := m.Power().MeanBetween(t0.Add(3*time.Hour), t0.Add(5*time.Hour))
	if mid <= early {
		t.Fatalf("meter missed load: %v -> %v", early, mid)
	}
	// Utilisation series reflects the busy window.
	u := m.Utilisation().MeanBetween(t0.Add(3*time.Hour), t0.Add(5*time.Hour))
	if u != 1 {
		t.Fatalf("mid-window utilisation = %v", u)
	}
}
